#include "sim/network.h"

#include <numeric>
#include <optional>

#include "sim/vtime/scheduler.h"

namespace tn::sim {

namespace {

// The reply a delivered probe draws from the owner of its target address.
net::ResponseType direct_reply_type(net::ProbeProtocol protocol) {
  if (protocol == net::ProbeProtocol::kUdp)
    return net::ResponseType::kPortUnreachable;
  if (protocol == net::ProbeProtocol::kTcp) return net::ResponseType::kTcpReset;
  return net::ResponseType::kEchoReply;
}

// Bounded reply reordering: overlapped round trips complete out of order,
// so the clock-visible processing order (slot claims, token-bucket
// admissions) is permuted within the wave. Each probe sorts by its batch
// position plus a jitter below `window`, bounding displacement to window-1
// either way; the permutation is seeded from the spec seed and the wave's
// content, so a fixed wave always replays the same order.
std::vector<std::size_t> reorder_wave(std::uint64_t seed,
                                      std::span<const net::Probe> probes,
                                      int window) {
  std::uint64_t wave_key = util::mix64(seed ^ 0x5EC0DE0FDA7AULL);
  for (const net::Probe& probe : probes)
    wave_key = util::mix64(
        wave_key ^ (static_cast<std::uint64_t>(probe.target.value()) << 24) ^
        (static_cast<std::uint64_t>(probe.flow_id) << 10) ^
        (static_cast<std::uint64_t>(probe.attempt) << 8) ^
        static_cast<std::uint64_t>(probe.ttl));
  util::Rng rng(wave_key);
  std::vector<std::size_t> keys(probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i)
    keys[i] = i + static_cast<std::size_t>(
                      rng.below(static_cast<std::uint64_t>(window)));
  std::vector<std::size_t> order(probes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&keys](std::size_t a, std::size_t b) {
                     return keys[a] < keys[b];
                   });
  return order;
}

}  // namespace

Network::Network(const Topology& topology, NetworkConfig config)
    : topology_(topology),
      routing_(topology),
      config_(config),
      clock_(config.scheduler != nullptr
                 ? static_cast<util::Clock&>(*config.scheduler)
                 : util::WallClock::instance()),
      nodes_(topology.node_count()) {}

net::ProbeReply Network::count(net::ProbeReply reply) {
  switch (reply.type) {
    case net::ResponseType::kNone:
      silent_.fetch_add(1, std::memory_order_relaxed);
      break;
    case net::ResponseType::kEchoReply:
      echo_replies_.fetch_add(1, std::memory_order_relaxed);
      break;
    case net::ResponseType::kTtlExceeded:
      ttl_exceeded_.fetch_add(1, std::memory_order_relaxed);
      break;
    case net::ResponseType::kPortUnreachable:
    case net::ResponseType::kHostUnreachable:
      unreachable_.fetch_add(1, std::memory_order_relaxed);
      break;
    case net::ResponseType::kTcpReset:
      tcp_resets_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  return reply;
}

void Network::set_rate_limiter(NodeId node, RateLimiter limiter) {
  std::uint32_t& slot = nodes_.at(node).limiter;
  if (slot == 0) {
    limiters_.emplace_back();
    slot = static_cast<std::uint32_t>(limiters_.size());
  }
  limiters_[slot - 1] = limiter;
}

void Network::set_faults(FaultSpec spec) {
  faults_ = std::move(spec);
  faults_enabled_ = faults_.enabled();
  if (!faults_enabled_) return;
  // Rate limits become real token buckets on the virtual clock: the default
  // rate installs on every router, overrides replace it per node.
  const FaultPolicy& def = faults_.default_policy;
  if (def.icmp_rate > 0.0) {
    for (NodeId id = 0; id < topology_.node_count(); ++id)
      if (!topology_.node(id).is_host)
        set_rate_limiter(id, RateLimiter(def.icmp_rate, def.icmp_burst));
  }
  for (const auto& [node, policy] : faults_.node_overrides)
    if (policy.icmp_rate > 0.0)
      set_rate_limiter(node, RateLimiter(policy.icmp_rate, policy.icmp_burst));
}

net::ProbeReply Network::respond(NodeId node, ResponsePolicy policy,
                                 net::ResponseType type,
                                 InterfaceId probed_iface,
                                 InterfaceId incoming_iface,
                                 SubnetId origin_subnet,
                                 InterfaceId default_iface,
                                 const ProbeSlot& slot) {
  if (policy == ResponsePolicy::kNil) return count(net::ProbeReply::none());
  if (const std::uint32_t limiter = nodes_[node].limiter; limiter != 0) {
    const std::lock_guard<std::mutex> lock(limiter_mutex_);
    if (!limiters_[limiter - 1].allow(slot.now_us)) {
      rate_limited_.fetch_add(1, std::memory_order_relaxed);
      return count(net::ProbeReply::none());
    }
  }
  const net::Ipv4Addr source = reply_source(
      node, policy, probed_iface, incoming_iface, origin_subnet, default_iface);
  if (source.is_unset()) return count(net::ProbeReply::none());
  // Responder-side reply loss. The draw is only consumed when the policy
  // actually has reply loss, so fault-free nodes leave the keystream
  // untouched and every other draw stays schedule-invariant.
  if (slot.fault_rng != nullptr) {
    const double p = faults_.reply_policy(node).reply_loss;
    if (p > 0.0 && slot.fault_rng->chance(p)) {
      fault_reply_lost_.fetch_add(1, std::memory_order_relaxed);
      return count(net::ProbeReply::none());
    }
  }
  return count(net::ProbeReply{type, source});
}

net::Ipv4Addr Network::reply_source(NodeId node_id, ResponsePolicy policy,
                                    InterfaceId probed_iface,
                                    InterfaceId incoming_iface,
                                    SubnetId origin_subnet,
                                    InterfaceId default_iface) {
  const Node& node = topology_.node(node_id);
  switch (policy) {
    case ResponsePolicy::kNil:
      return {};
    case ResponsePolicy::kProbed:
      if (probed_iface != kInvalidId) return topology_.interface(probed_iface).addr;
      break;
    case ResponsePolicy::kIncoming:
      if (incoming_iface != kInvalidId)
        return topology_.interface(incoming_iface).addr;
      break;
    case ResponsePolicy::kShortestPath: {
      const InterfaceId egress =
          routing_.shortest_path_egress(node_id, origin_subnet);
      if (egress != kInvalidId) return topology_.interface(egress).addr;
      break;
    }
    case ResponsePolicy::kDefault:
      if (default_iface != kInvalidId)
        return topology_.interface(default_iface).addr;
      break;
  }
  // Policy could not designate an interface (e.g. incoming unknown for a
  // locally originated packet): fall back to the node's first interface, the
  // closest analogue of a loopback/default address.
  if (!node.interfaces.empty())
    return topology_.interface(node.interfaces.front()).addr;
  return {};
}

bool Network::forward_fault(const FaultPolicy& policy, const net::Probe& probe,
                            util::Rng& fault_rng) {
  if (policy.blackholes(probe.ttl)) {
    fault_blackholed_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (policy.probe_loss > 0.0 && fault_rng.chance(policy.probe_loss)) {
    fault_probe_lost_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

std::uint32_t Network::pick_next_hop(NodeId node_id, const net::Probe& probe,
                                     SubnetId target_subnet,
                                     std::uint32_t count) {
  if (count == 1) return 0;

  if (topology_.per_packet_load_balancing(node_id))
    return nodes_[node_id].turn.fetch_add(1, std::memory_order_relaxed) %
           count;
  // Per-flow: a stable hash of (this router, flow selector, flow id,
  // protocol). With kPerDestSubnet the selector is the destination prefix, so
  // all addresses of one subnet share an ingress (§3.2(ii)).
  const std::uint64_t selector =
      config_.ecmp_hash == EcmpHashMode::kPerDestSubnet
          ? static_cast<std::uint64_t>(target_subnet)
          : static_cast<std::uint64_t>(probe.target.value());
  std::uint64_t h = util::mix64(
      (static_cast<std::uint64_t>(node_id) << 40) ^ (selector << 8) ^
      (static_cast<std::uint64_t>(probe.flow_id) << 2) ^
      static_cast<std::uint64_t>(probe.protocol));
  // Routing churn (sim/faults.h): probes of a later epoch see re-randomized
  // link-cost tie-breaks at churned routers — the salt re-mixes the pick
  // over the same equal-cost set, so shortest paths (and loop freedom) are
  // preserved while the chosen member may change. Keyed purely off probe
  // content (epoch) and the spec seed: schedule-invariant.
  if (faults_enabled_ && probe.epoch > 0 && faults_.churned(node_id)) {
    h = util::mix64(h ^ (faults_.seed + 0x9E3779B97F4A7C15ULL) ^
                    (static_cast<std::uint64_t>(probe.epoch) << 57));
    fault_churned_picks_.fetch_add(1, std::memory_order_relaxed);
  }
  return static_cast<std::uint32_t>(h % count);
}

std::uint64_t Network::probe_delay_us(const net::Probe& probe,
                                      int hops) const {
  std::uint64_t delay = config_.wall_rtt_us;
  if (config_.link_delay_us > 0)
    delay += 2 * config_.link_delay_us *
             static_cast<std::uint64_t>(hops < 1 ? 1 : hops);
  if (config_.jitter_us > 0) {
    // Content-keyed, like the fault draws: the same probe always jitters by
    // the same amount, whatever else is in flight, so delays replay
    // identically across schedules and across wall vs virtual modes.
    const std::uint64_t roll = util::mix64(
        (static_cast<std::uint64_t>(probe.target.value()) << 20) ^
        (static_cast<std::uint64_t>(probe.flow_id) << 12) ^
        (static_cast<std::uint64_t>(probe.attempt) << 8) ^
        static_cast<std::uint64_t>(probe.ttl) ^ 0x9E3779B97F4A7C15ULL);
    delay += roll % (config_.jitter_us + 1);
  }
  return delay;
}

net::ProbeReply Network::send_probe(NodeId origin, const net::Probe& probe) {
  net::ProbeReply reply;
  send_wave(origin, {&probe, 1}, {&reply, 1});
  return reply;
}

std::vector<net::ProbeReply> Network::send_probe_batch(
    NodeId origin, std::span<const net::Probe> probes) {
  std::vector<net::ProbeReply> replies(probes.size());
  send_wave(origin, probes, replies);
  return replies;
}

void Network::send_wave(NodeId origin, std::span<const net::Probe> probes,
                        std::span<net::ProbeReply> replies) {
  const int window = faults_enabled_ ? faults_.reorder_window : 0;
  const std::vector<std::size_t> order =
      window > 1 && probes.size() > 1
          ? reorder_wave(faults_.seed, probes, window)
          : std::vector<std::size_t>();
  // The wave completes when its slowest reply lands: overlapped in-flight
  // probes pay the *maximum* of their round trips, not the sum.
  std::uint64_t wave_delay = 0;
  for (std::size_t k = 0; k < probes.size(); ++k) {
    const std::size_t i = order.empty() ? k : order[k];
    int hops = 0;
    replies[i] = walk_probe(origin, probes[i], hops);
    wave_delay = std::max(wave_delay, probe_delay_us(probes[i], hops));
  }
  if (wave_delay > 0) clock_.sleep_us(wave_delay);
}

net::ProbeReply Network::walk_probe(NodeId origin, const net::Probe& probe,
                                    int& hops_walked) {
  // Claim this probe's virtual-clock slot and sequence number up front; the
  // walk itself runs lock-free against the immutable topology (concurrent
  // send_probe contract in the header).
  ProbeSlot slot;
  slot.now_us = now_us_.fetch_add(config_.inter_probe_gap_us,
                                  std::memory_order_relaxed) +
                config_.inter_probe_gap_us;
  slot.sequence =
      probes_injected_.fetch_add(1, std::memory_order_relaxed) + 1;

  // The probe's private fault keystream lives on this stack frame; draws are
  // consumed in forwarding order, which is a pure function of (topology,
  // probe), so outcomes do not depend on what other probes are in flight.
  // Default-policy forward faults are charged once, end to end, so the
  // observed loss rate matches the configured one on any path length.
  std::optional<util::Rng> fault_rng;
  if (faults_enabled_) {
    fault_rng.emplace(fault_draw_stream(faults_.seed, probe));
    slot.fault_rng = &*fault_rng;
    if (forward_fault(faults_.default_policy, probe, *fault_rng))
      return count(net::ProbeReply::none());
  }

  const Node& origin_node = topology_.node(origin);
  if (origin_node.interfaces.empty()) return count(net::ProbeReply::none());
  const SubnetId origin_subnet =
      topology_.interface(origin_node.interfaces.front()).subnet;

  const auto target_iface = topology_.find_interface(probe.target);
  const auto target_subnet =
      target_iface
          ? std::optional<SubnetId>(topology_.interface(*target_iface).subnet)
          : topology_.find_subnet_containing(probe.target);
  if (!target_subnet) return count(net::ProbeReply::none());  // no route

  int ttl = probe.ttl;
  int router_depth = 0;
  NodeId current = origin;
  InterfaceId incoming = kInvalidId;
  // The route toward the target, resolved once, when the walk first needs
  // it, and the member of it the packet is at.
  std::optional<RoutingTable::Route> route;
  std::uint16_t member = 0;

  for (int step = 0; step < kMaxHops; ++step) {
    if (step_hook_) step_hook_(current, probe);

    // Node-override forward faults are charged where the packet actually
    // travels: entering an overridden node may black-hole or drop it.
    if (faults_enabled_ && current != origin) {
      const FaultPolicy* over = faults_.override_for(current);
      if (over != nullptr && forward_fault(*over, probe, *fault_rng))
        return count(net::ProbeReply::none());
    }

    const Node& node = topology_.node(current);
    const ResponseConfig& config = node.config_for(probe.protocol);

    // Delivery: the packet is destined to one of this node's addresses. A
    // dark interface never answers; a flaky one drops the reply on a
    // deterministic per-probe roll keyed off the injection sequence number:
    // same run -> same outcome; different probe schedule -> different drop
    // pattern.
    if (target_iface && topology_.interface(*target_iface).node == current) {
      const Interface& target = topology_.interface(*target_iface);
      if (topology_.subnet(target.subnet).firewalled || !target.responsive)
        return count(net::ProbeReply::none());
      if (target.flakiness > 0.0) {
        const std::uint64_t roll = util::mix64(
            (static_cast<std::uint64_t>(*target_iface) << 32) ^ slot.sequence);
        if (static_cast<double>(roll >> 11) * 0x1.0p-53 < target.flakiness)
          return count(net::ProbeReply::none());
      }
      return respond(current, config.direct,
                     direct_reply_type(probe.protocol), *target_iface,
                     incoming, origin_subnet, config.default_interface, slot);
    }

    if (node.is_host && current != origin)
      return count(net::ProbeReply::none());  // hosts do not forward

    // Forwarding: routers decrement TTL; the originator does not. Routers
    // inside a hidden depth range (MPLS no-ttl-propagate, sim/faults.h)
    // forward without decrementing: they can never expire a probe, so they
    // never appear in a trace, and hops past the tunnel answer at shifted
    // TTLs. Depth is the router's 1-based hop distance from the origin — a
    // pure function of (topology, probe). On expiry, anonymous routers
    // forward but never send Time Exceeded — the hop shows up as '*' in
    // every trace regardless of retries.
    if (current != origin) {
      ++router_depth;
      if (faults_enabled_ && faults_.hides_depth(router_depth)) {
        fault_hidden_hops_.fetch_add(1, std::memory_order_relaxed);
      } else if (--ttl <= 0) {
        if (faults_enabled_ && faults_.reply_policy(current).anonymous) {
          fault_anonymous_.fetch_add(1, std::memory_order_relaxed);
          return count(net::ProbeReply::none());
        }
        return respond(current, config.indirect,
                       net::ResponseType::kTtlExceeded, kInvalidId, incoming,
                       origin_subnet, config.default_interface, slot);
      }
    }

    if (!route) {
      route = routing_.route(origin, *target_subnet);
      member = route->origin();
    }
    if (route->delivers(member)) {
      // Final LAN: deliver to the owner across the subnet, or fail "ARP".
      const Subnet& lan = topology_.subnet(*target_subnet);
      if (lan.firewalled) return count(net::ProbeReply::none());
      if (!target_iface) {
        if (lan.arp_fail == ArpFailBehavior::kSilent)
          return count(net::ProbeReply::none());
        return respond(current, config.indirect,
                       net::ResponseType::kHostUnreachable, kInvalidId,
                       incoming, origin_subnet, config.default_interface, slot);
      }
      current = topology_.interface(*target_iface).node;
      incoming = *target_iface;
      ++hops_walked;
      continue;
    }

    const std::uint32_t hops = route->hop_count(member);
    if (hops == 0) return count(net::ProbeReply::none());  // unreachable
    const RoutingTable::Route::Hop hop = route->hop(
        member, pick_next_hop(current, probe, *target_subnet, hops));
    current = hop.node;
    incoming = hop.ingress;
    member = hop.member;
    ++hops_walked;
  }
  return count(net::ProbeReply::none());  // loop guard tripped
}

}  // namespace tn::sim
