// Network: the simulator's forwarding + ICMP-generation plane.
//
// Given a probe injected at a vantage host, walks it router by router with
// real TTL semantics and produces exactly the reply a live network would:
//
//   * delivery to an owned address  -> direct reply per the node's response
//     policy (Echo Reply / Port Unreachable / TCP RST by protocol);
//   * TTL expiry while forwarding   -> ICMP Time Exceeded per the node's
//     indirect policy (incoming / shortest-path / default interface, §3.1);
//   * unassigned address on the LAN -> silence or Host Unreachable
//     (ArpFailBehavior);
//   * firewalled destination prefix -> silence;
//   * unresponsive interface / nil policy / rate-limited -> silence.
//
// Equal-cost multipath is resolved per-flow (deterministic hash) or
// per-packet (round-robin) per node, reproducing §3.7's path fluctuations.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "net/packet.h"
#include "sim/faults.h"
#include "sim/ratelimit.h"
#include "sim/routing.h"
#include "sim/topology.h"
#include "util/rng.h"

namespace tn::sim {

namespace vtime {
class Scheduler;
}  // namespace vtime

// What equal-cost hashing keys on. Destination-prefix hashing keeps the
// ingress router of a subnet fixed across its addresses (the paper's Fixed
// Ingress Router observation, §3.2(ii)); per-address hashing is the
// adversarial mode where different addresses of one subnet may enter through
// different routers.
enum class EcmpHashMode : std::uint8_t {
  kPerDestSubnet,
  kPerDestAddr,
};

// Forwarding loop guard: a walk gives up after this many steps.
inline constexpr int kMaxHops = 64;

struct NetworkConfig {
  EcmpHashMode ecmp_hash = EcmpHashMode::kPerDestSubnet;
  // Virtual time advanced per injected probe; drives rate limiters.
  std::uint64_t inter_probe_gap_us = 1000;
  // Emulated round-trip time: every send_probe call blocks the caller for
  // this long before returning its reply, exactly like a live blocking
  // probe engine. 0 (the default) keeps the simulator instant. Replies are
  // unaffected, so determinism is untouched; the wait happens outside every
  // lock, so concurrent workers overlap their waits — this is what makes
  // the parallel runtime's wall-clock speedup measurable on the simulator
  // (live probing is RTT-bound, not CPU-bound). Without a scheduler the
  // wait is a wall-clock sleep; with one it elapses in simulated time.
  std::uint64_t wall_rtt_us = 0;

  // Per-link delay model: each link the probe walks costs 2*link_delay_us
  // of round trip (out and back), added on top of wall_rtt_us. Deeper hops
  // therefore take proportionally longer, like a real traceroute.
  std::uint64_t link_delay_us = 0;

  // Deterministic delay jitter: adds a content-keyed draw in [0, jitter_us]
  // to every probe's emulated RTT. Keyed off (target, flow, ttl, attempt)
  // only — never off schedule — so the delays, and everything downstream of
  // them, replay identically across --jobs / --window and across wall vs
  // virtual modes.
  std::uint64_t jitter_us = 0;

  // Virtual-time mode (sim/vtime/, docs/SIMULATION.md): when set, emulated
  // RTT waits block on this discrete-event scheduler's simulated clock
  // instead of sleeping wall time. Reply content is computed before the
  // wait either way, so outputs are byte-identical between modes; only the
  // wall clock changes. Borrowed; must outlive the network.
  vtime::Scheduler* scheduler = nullptr;
};

struct NetworkStats {
  std::uint64_t probes_injected = 0;
  std::uint64_t echo_replies = 0;
  std::uint64_t ttl_exceeded = 0;
  std::uint64_t unreachable = 0;  // host + port unreachable
  std::uint64_t tcp_resets = 0;
  std::uint64_t silent = 0;
  std::uint64_t rate_limited = 0;  // responses suppressed by rate limiting

  // Fault injection (sim/faults.h). Every event below also counts as silent.
  std::uint64_t fault_probe_lost = 0;  // forward-path drops
  std::uint64_t fault_reply_lost = 0;  // replies dropped on the way back
  std::uint64_t fault_anonymous = 0;   // TTL-Exceeded suppressed (anonymous)
  std::uint64_t fault_blackholed = 0;  // probes in a black-holed TTL range
  // MPLS-like hop hiding / routing churn (spec-level mechanisms; these do
  // not count as silent — the probe keeps forwarding).
  std::uint64_t fault_hidden_hops = 0;    // TTL decrements elided (hide LO-HI)
  std::uint64_t fault_churned_picks = 0;  // ECMP picks re-salted by churn

  std::uint64_t fault_drops() const noexcept {
    return fault_probe_lost + fault_reply_lost + fault_blackholed;
  }
};

class Network {
 public:
  // Routing state is built on the first probe, not here (sim/routing.h):
  // a Network costs nothing per subnet until it forwards.
  explicit Network(const Topology& topology, NetworkConfig config = {})
      : topology_(topology), routing_(topology), config_(config) {}
  // A builder cannot be routed: freeze it first.
  explicit Network(const TopologyBuilder&, NetworkConfig = {}) = delete;

  // Injects `probe` from `origin` (a host or router in the topology) and
  // returns the reply the origin would eventually observe (kNone = silence).
  // This is the only way traffic enters the simulator.
  //
  // Safe to call from several campaign workers at once; forwarding walks
  // proceed in parallel. Each probe atomically claims a slot on the virtual
  // clock and a global sequence number at injection, so the clock-driven
  // state (rate limiters, flakiness draws, per-packet round-robin) observes
  // a single consistent probe order — serial callers see exactly the
  // historical behavior, while the order among racing probes is an
  // arbitrary arbitration, as at a real router. On topologies whose replies
  // are pure functions of the probe — no flakiness, rate limiting or
  // per-packet load balancing — replies are independent of that order,
  // which is what the runtime's determinism contract builds on.
  net::ProbeReply send_probe(NodeId origin, const net::Probe& probe);

  // Injects a whole wave of probes with overlapped round trips: every probe
  // claims its virtual-clock slot and sequence number in batch order (so the
  // clock-driven state sees the same schedule a serial caller would), the
  // walks run lock-free back to back, and the wave pays exactly *one*
  // emulated `wall_rtt_us` sleep instead of one per probe — in-flight
  // probes on a live network overlap their round trips the same way.
  // replies[i] answers probes[i]. Thread-safe like send_probe; concurrent
  // waves interleave their slot claims as an arbitrary arbitration.
  std::vector<net::ProbeReply> send_probe_batch(
      NodeId origin, std::span<const net::Probe> probes);

 private:
  // The forwarding walk proper; send_probe adds the optional emulated RTT.
  // `hops_walked`, when given, receives the number of forwarding steps the
  // packet took before its fate was decided — a pure function of
  // (topology, probe), which the per-link delay model feeds on.
  net::ProbeReply walk_probe(NodeId origin, const net::Probe& probe,
                             int* hops_walked = nullptr);

  // The emulated round trip of one probe under the configured delay model
  // (wall_rtt_us + 2*link_delay_us*hops + content-keyed jitter).
  std::uint64_t probe_delay_us(const net::Probe& probe, int hops) const;

  // Waits out `delay_us` of round trip: a wall sleep, or a virtual-time
  // wait when a scheduler is configured. Never touches reply state.
  void emulate_rtt(std::uint64_t delay_us);

 public:
  // The configured virtual-time scheduler, nullptr in wall-sleep mode. The
  // campaign runtime uses this to register its workers and to run the
  // pacer on simulated time.
  vtime::Scheduler* scheduler() const noexcept { return config_.scheduler; }

  // Installs a response rate limiter on one node.
  void set_rate_limiter(NodeId node, RateLimiter limiter);

  // Installs a fault scenario (sim/faults.h): probe/reply loss, anonymous
  // routers, black-holed TTL ranges, per-node rate limiting and bounded
  // reply reordering, all replayed byte-identically for a fixed
  // (topology, spec, seed) triple. Rate limits named by the spec are
  // installed as RateLimiters immediately. Install before probing starts;
  // not safe to call concurrently with send_probe.
  void set_faults(FaultSpec spec);
  const FaultSpec& faults() const noexcept { return faults_; }
  bool faults_enabled() const noexcept { return faults_enabled_; }

  // Test and bench hook: invoked before each forwarding decision with the
  // node about to decide; it observes the walk and cannot change it (the
  // topology is frozen). Cleared with {}. Serial-only: install before
  // probing and do not combine with concurrent send_probe callers.
  using StepHook = std::function<void(NodeId current, const net::Probe&)>;
  void set_step_hook(StepHook hook) { step_hook_ = std::move(hook); }

  // Counters are relaxed atomics: safe to read at any time, exact once
  // concurrent send_probe callers have joined.
  NetworkStats stats() const noexcept {
    NetworkStats out;
    out.probes_injected = probes_injected_.load(std::memory_order_relaxed);
    out.echo_replies = echo_replies_.load(std::memory_order_relaxed);
    out.ttl_exceeded = ttl_exceeded_.load(std::memory_order_relaxed);
    out.unreachable = unreachable_.load(std::memory_order_relaxed);
    out.tcp_resets = tcp_resets_.load(std::memory_order_relaxed);
    out.silent = silent_.load(std::memory_order_relaxed);
    out.rate_limited = rate_limited_.load(std::memory_order_relaxed);
    out.fault_probe_lost = fault_probe_lost_.load(std::memory_order_relaxed);
    out.fault_reply_lost = fault_reply_lost_.load(std::memory_order_relaxed);
    out.fault_anonymous = fault_anonymous_.load(std::memory_order_relaxed);
    out.fault_blackholed = fault_blackholed_.load(std::memory_order_relaxed);
    out.fault_hidden_hops = fault_hidden_hops_.load(std::memory_order_relaxed);
    out.fault_churned_picks =
        fault_churned_picks_.load(std::memory_order_relaxed);
    return out;
  }
  std::uint64_t now_us() const noexcept {
    return now_us_.load(std::memory_order_relaxed);
  }
  const RoutingTable& routing() const noexcept { return routing_; }

 private:
  // The virtual-clock slot and global sequence number one probe claimed at
  // injection; all order-dependent draws key off these, not off shared
  // mutable state, so walks can run concurrently. `fault_rng` is the probe's
  // private content-keyed keystream (sim/faults.h), nullptr when fault
  // injection is off.
  struct ProbeSlot {
    std::uint64_t now_us = 0;
    std::uint64_t sequence = 0;
    util::Rng* fault_rng = nullptr;
  };

  net::ProbeReply respond_direct(NodeId node, const net::Probe& probe,
                                 InterfaceId target_iface,
                                 InterfaceId incoming_iface,
                                 SubnetId origin_subnet, const ProbeSlot& slot);
  net::ProbeReply respond_indirect(NodeId node, const net::Probe& probe,
                                   InterfaceId incoming_iface,
                                   SubnetId origin_subnet,
                                   const ProbeSlot& slot);
  net::ProbeReply arp_fail(NodeId node, const net::Probe& probe,
                           InterfaceId incoming_iface, SubnetId origin_subnet,
                           const Subnet& lan, const ProbeSlot& slot);

  // Resolves the source address of a reply per `policy`; kInvalidId-free
  // result of unset means "suppress the reply".
  net::Ipv4Addr reply_source(NodeId node, ResponsePolicy policy,
                             InterfaceId probed_iface, InterfaceId incoming_iface,
                             SubnetId origin_subnet, InterfaceId default_iface);

  bool admit_response(NodeId node, const ProbeSlot& slot);

  // Applies the responder-side reply_loss draw, then counts the reply.
  net::ProbeReply finish_reply(NodeId node, net::ProbeReply reply,
                               const ProbeSlot& slot);

  // Which of `node`'s `count` equal-cost next hops the probe takes.
  std::uint32_t pick_next_hop(NodeId node, const net::Probe& probe,
                              SubnetId target_subnet, std::uint32_t count);

  net::ProbeReply count(net::ProbeReply reply);

  const Topology& topology_;
  RoutingTable routing_;
  NetworkConfig config_;

  // Statistics: relaxed atomics, incremented from concurrent walks.
  std::atomic<std::uint64_t> probes_injected_{0};
  std::atomic<std::uint64_t> echo_replies_{0};
  std::atomic<std::uint64_t> ttl_exceeded_{0};
  std::atomic<std::uint64_t> unreachable_{0};
  std::atomic<std::uint64_t> tcp_resets_{0};
  std::atomic<std::uint64_t> silent_{0};
  std::atomic<std::uint64_t> rate_limited_{0};
  std::atomic<std::uint64_t> fault_probe_lost_{0};
  std::atomic<std::uint64_t> fault_reply_lost_{0};
  std::atomic<std::uint64_t> fault_anonymous_{0};
  std::atomic<std::uint64_t> fault_blackholed_{0};
  std::atomic<std::uint64_t> fault_hidden_hops_{0};
  std::atomic<std::uint64_t> fault_churned_picks_{0};

  std::atomic<std::uint64_t> now_us_{0};

  // Installed fault scenario. Written by set_faults before probing starts,
  // read-only on the probe path (the enabled flag is a plain bool for the
  // same reason the topology reference is).
  FaultSpec faults_;
  bool faults_enabled_ = false;

  // Token buckets and round-robin cursors are the only per-node mutable
  // state; both are rare on the probe path (rate-limited routers, per-packet
  // balancers) so one small mutex each is plenty.
  std::mutex limiter_mutex_;
  std::unordered_map<NodeId, RateLimiter> limiters_;
  std::mutex round_robin_mutex_;
  std::unordered_map<NodeId, std::uint32_t> round_robin_;
  StepHook step_hook_;
};

}  // namespace tn::sim
