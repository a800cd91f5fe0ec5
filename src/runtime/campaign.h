// CampaignRuntime: the campaign driver. It runs tracenet from one vantage
// point over a target list, one TracenetSession per target not yet covered,
// and fans the list out over a std::thread worker pool (--jobs). Each worker
// runs its own session against a shared, thread-safe probe stack
//
//     SimProbeEngine (thread-safe simulator; walks run in parallel)
//       -> PacedProbeEngine (aggregate token-bucket rate cap, --pps)
//       -> CachingProbeEngine (cross-session reply memoization)
//       -> per-worker ForwardingProbeEngine (local probe accounting)
//       -> per-worker TracenetSession (retry + per-session cache on top)
//
// while a SharedStopSet (Doubletree-style covered prefixes) lets any worker
// skip targets — and in fast mode, hops — already inside a subnet some
// other worker grew.
//
// A serial campaign is jobs = 1. With share_probe_cache off as well it is
// the plain serial loop, probe for probe: one session over the bare
// simulator, targets in order, each skipped when a merged subnet covers it.
//
// Determinism contract (default mode): results are merged by *target
// index*, not completion order, by replaying that serial skip/merge loop
// (eval::CampaignAccumulator) over the per-target session results. A target
// is dispatch-skipped only when provably skippable in any order (covered by
// a completed lower-index target); a target the replay wants but the stop
// set skipped is re-traced serially during the merge (rare). On networks
// whose replies are order-independent this makes jobs=N output
// byte-identical to jobs=1 — wire_probes excepted, which reports the real
// (schedule-dependent) probe cost. See docs/RUNTIME.md.
#pragma once

#include <string>
#include <vector>

#include "eval/campaign.h"
#include "runtime/metrics.h"
#include "sim/network.h"
#include "trace/journal.h"

namespace tn::runtime {

struct RuntimeConfig {
  eval::CampaignConfig campaign;

  // Worker threads. Values < 1 mean "one worker"; workers beyond the target
  // count are not spawned.
  int jobs = 1;

  // Aggregate probe budget across all workers, probes/second (0 = no cap),
  // with bursts of up to kPacerBurst (runtime/pacer.h) back-to-back probes.
  double pps = 0.0;

  // Cross-session sharing knobs (both on by default; the bench ablates them).
  // The paper benches and the examples turn share_probe_cache off: the cache
  // answers a retry with the silence it cached for the first try (ROADMAP
  // item 1).
  bool share_stop_set = true;     // Doubletree-style covered-prefix skipping
  bool share_probe_cache = true;  // campaign-wide reply memoization

  // Canonical serial-equivalent output (see the determinism contract above).
  // Off = fast mode: skip eagerly on any stop-set hit, hop-level included;
  // output remains merged in target order but is schedule-dependent.
  bool deterministic = true;

  // Flight-recorder sink (docs/TRACING.md). Workers open one recorder per
  // claimed target; buffers of sessions the canonical merge rejects are
  // dropped, so the merged journal covers exactly the sessions a serial run
  // would have produced and its session-level bytes are jobs/window
  // invariant. nullptr (the default) disables tracing entirely.
  trace::JsonlTraceWriter* trace_sink = nullptr;
};

struct CampaignReport {
  eval::VantageObservations observations;

  // Session results the canonical merge accepted, in target order (the same
  // sessions a serial run would have produced — feed to eval::build_router_map).
  std::vector<core::SessionResult> sessions;

  std::uint64_t wire_probes = 0;        // actual probes put on the wire
  std::uint64_t sessions_run = 0;       // sessions executed by workers
  std::uint64_t stop_set_skips = 0;     // targets skipped at dispatch
  std::uint64_t fallback_sessions = 0;  // re-traced serially during merge
  std::uint64_t stop_set_prefixes = 0;  // final covered-prefix count
};

class CampaignRuntime {
 public:
  // `metrics` may be null: the runtime then records into an internal
  // registry, readable via metrics(). The network must be quiescent (no
  // other concurrent users) for the duration of each run().
  CampaignRuntime(sim::Network& network, sim::NodeId vantage,
                  RuntimeConfig config = {},
                  MetricsRegistry* metrics = nullptr) noexcept
      : network_(network),
        vantage_(vantage),
        config_(config),
        metrics_(metrics != nullptr ? metrics : &own_metrics_) {}

  CampaignReport run(const std::string& vantage_name,
                     const std::vector<net::Ipv4Addr>& targets);

  MetricsRegistry& metrics() noexcept { return *metrics_; }

 private:
  sim::Network& network_;
  sim::NodeId vantage_;
  RuntimeConfig config_;
  MetricsRegistry* metrics_;
  MetricsRegistry own_metrics_;
};

// Runs one campaign and returns its observations (CampaignRuntime::run
// without the report's session list and counters).
eval::VantageObservations run_campaign(
    sim::Network& network, sim::NodeId vantage,
    const std::string& vantage_name,
    const std::vector<net::Ipv4Addr>& targets, const RuntimeConfig& config = {},
    MetricsRegistry* metrics = nullptr);

}  // namespace tn::runtime
