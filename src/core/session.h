// TracenetSession: one end-to-end run of tracenet toward one destination.
//
// Per §3.3 the session alternates two modes along the path:
//   trace collection  — obtain the next hop's IP address (Traceroute step),
//   subnet positioning + exploration — sketch the subnet accommodating it
//                       before moving on.
// The engine stack mirrors the paper's implementation notes: retries absorb
// loss (§3.8), a per-session probe cache realizes the merged-heuristic probe
// sharing (§3.5), and a constant flow id keeps per-flow load balancers from
// scattering the path (§3.8 / Paris traceroute). The session probes through
// one core::Prober — the top of that stack, the session's probe identity,
// its wave policy and its journal recorder — and hands each algorithm a copy.
#pragma once

#include <functional>
#include <memory>

#include "core/exploration.h"
#include "core/positioning.h"
#include "core/prober.h"
#include "core/traceroute.h"
#include "core/types.h"
#include "probe/adaptive.h"
#include "probe/cache.h"
#include "probe/engine.h"
#include "probe/retry.h"
#include "util/clock.h"

namespace tn::core {

struct SessionConfig {
  // The identity every probe of the session carries (core::Prober).
  net::ProbeProtocol protocol = net::ProbeProtocol::kIcmp;
  std::uint16_t flow_id = 0;
  TracerouteConfig trace;
  ExplorerConfig explore;
  int retry_attempts = 2;          // total tries per probe (§3.8 re-probe)
  bool use_probe_cache = true;     // merged-heuristic probe sharing (§3.5)
  // In-flight probe window for trace collection and subnet exploration:
  // waves of up to this many probes overlap their round trips through
  // ProbeEngine::probe_batch, cutting a session's RTT-bound wall clock by
  // roughly the window size while the output stays byte-identical on stable
  // networks (docs/PROBING.md). 1 = strictly sequential probing (the
  // historical behavior).
  int probe_window = 1;
  // Adaptive probing policy (probe/adaptive.h, docs/PROBING.md "Adaptive
  // policy"): when adaptive.enabled, a per-session feedback controller sizes
  // the in-flight window between waves, budgets speculative prescans per
  // growth level, and paces against drop signals — probe_window is ignored.
  // Decisions are schedule-invariant, so the collected subnets stay
  // byte-identical to probe_window = 1. The CLI spells this "--window auto".
  probe::AdaptivePolicy adaptive;
  // Clock the adaptive controller's pacing sleeps elapse on. nullptr = wall
  // clock; campaigns under --virtual-time inject the scheduler so sleeps
  // elapse on simulated time.
  util::Clock* clock = nullptr;
  // Optional cross-session coverage oracle: when set, a hop inside a subnet
  // some *other* session already explored is skipped, as a hop inside a
  // subnet this session collected always is — the Doubletree-style shared
  // stop set of the concurrent campaign runtime. Skipped subnets are absent
  // from this session's result; the campaign merge re-unions them from
  // whichever session grew them. Trades strict per-session completeness for
  // probe savings, so the runtime only wires it up in non-deterministic
  // (fast) mode.
  std::function<bool(net::Ipv4Addr)> covered_externally;
};

class TracenetSession {
 public:
  // `wire_engine` is the raw transport (simulator or raw socket); the
  // session owns the retry/cache stack built on top of it.
  TracenetSession(probe::ProbeEngine& wire_engine, SessionConfig config = {});

  // Runs trace collection + subnet exploration toward `destination`.
  SessionResult run(net::Ipv4Addr destination);

  // Wire probes issued through this session so far (all runs).
  std::uint64_t wire_probes() const noexcept {
    return wire_engine_.probes_issued();
  }

  // Re-probes spent by the §3.8 retry layer so far (all runs).
  std::uint64_t retries_used() const noexcept { return retry_->retries_used(); }

  // Journal destination for this session's events (flight recorder). Session
  // objects are reused across targets, so the campaign runtime swaps the
  // recorder per run; nullptr disables tracing. It goes to the prober, which
  // every algorithm copies at the start of a run, and to the decorator stack.
  void set_recorder(trace::Recorder* recorder) noexcept {
    prober_.recorder = recorder;
    if (cache_) cache_->set_recorder(recorder);
    retry_->set_recorder(recorder);
  }

  // Routing epoch stamped on every probe of subsequent runs
  // (net::Probe::epoch; routing churn, sim/faults.h), 0 until set. Session
  // objects are reused across targets, so campaigns under a churn fault spec
  // set it per run from FaultSpec::epoch_of(target_index), like set_recorder.
  void set_epoch(std::uint8_t epoch) noexcept { prober_.epoch = epoch; }

 private:
  // Windowed and adaptive modes: warms the probe cache with the first probes
  // subnet positioning will pay for every named hop of `path` — <v, d>,
  // <v, d-1> and <mate31(v), d> — as one wave through the prober, so the
  // serial positioning logic resolves them from memory.
  void prescan_positioning(const TracePath& path);

  probe::ProbeEngine& wire_engine_;
  SessionConfig config_;
  std::unique_ptr<probe::RetryingProbeEngine> retry_;
  std::unique_ptr<probe::CachingProbeEngine> cache_;
  // Adaptive feedback controller (config_.adaptive.enabled); reset at the
  // start of every run so no decision state leaks across targets. Its
  // cached-vs-fresh input is measured against wire_engine_ — the per-worker
  // scope — which keeps decisions schedule-invariant under --jobs.
  std::unique_ptr<probe::AdaptiveController> controller_;
  // The top of the decorator stack with the session's identity and wave
  // policy; declared after what it points into.
  Prober prober_;
};

}  // namespace tn::core
