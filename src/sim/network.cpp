#include "sim/network.h"

#include <chrono>
#include <numeric>
#include <optional>
#include <thread>

#include "sim/vtime/scheduler.h"

namespace tn::sim {

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
  const std::lock_guard<std::mutex> lock(limiter_mutex_);
  limiters_[node] = limiter;
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

net::ProbeReply Network::finish_reply(NodeId node, net::ProbeReply reply,
                                      const ProbeSlot& slot) {
  // Responder-side reply loss. The draw is only consumed when the policy
  // actually has reply loss, so fault-free nodes leave the keystream
  // untouched and every other draw stays schedule-invariant.
  if (slot.fault_rng != nullptr && !reply.is_none()) {
    const double p = faults_.reply_policy(node).reply_loss;
    if (p > 0.0 && slot.fault_rng->chance(p)) {
      fault_reply_lost_.fetch_add(1, std::memory_order_relaxed);
      return count(net::ProbeReply::none());
    }
  }
  return count(reply);
}

bool Network::admit_response(NodeId node, const ProbeSlot& slot) {
  const std::lock_guard<std::mutex> lock(limiter_mutex_);
  const auto it = limiters_.find(node);
  if (it == limiters_.end()) return true;
  if (it->second.allow(slot.now_us)) return true;
  rate_limited_.fetch_add(1, std::memory_order_relaxed);
  return false;
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

net::ProbeReply Network::respond_direct(NodeId node_id, const net::Probe& probe,
                                        InterfaceId target_iface,
                                        InterfaceId incoming_iface,
                                        SubnetId origin_subnet,
                                        const ProbeSlot& slot) {
  const Interface& target = topology_.interface(target_iface);
  if (!target.responsive) return count(net::ProbeReply::none());
  if (target.flakiness > 0.0) {
    // Deterministic per-probe drop keyed off the injection sequence number:
    // same run -> same outcome; different probe schedule -> different drop
    // pattern.
    const std::uint64_t roll = util::mix64(
        (static_cast<std::uint64_t>(target_iface) << 32) ^ slot.sequence);
    if (static_cast<double>(roll >> 11) * 0x1.0p-53 < target.flakiness)
      return count(net::ProbeReply::none());
  }
  const ResponseConfig& config =
      topology_.node(node_id).config_for(probe.protocol);
  if (config.direct == ResponsePolicy::kNil) return count(net::ProbeReply::none());
  if (!admit_response(node_id, slot)) return count(net::ProbeReply::none());

  const net::Ipv4Addr source =
      reply_source(node_id, config.direct, target_iface, incoming_iface,
                   origin_subnet, config.default_interface);
  if (source.is_unset()) return count(net::ProbeReply::none());

  net::ResponseType type = net::ResponseType::kEchoReply;
  switch (probe.protocol) {
    case net::ProbeProtocol::kIcmp: type = net::ResponseType::kEchoReply; break;
    case net::ProbeProtocol::kUdp: type = net::ResponseType::kPortUnreachable; break;
    case net::ProbeProtocol::kTcp: type = net::ResponseType::kTcpReset; break;
  }
  return finish_reply(node_id, net::ProbeReply{type, source}, slot);
}

net::ProbeReply Network::respond_indirect(NodeId node_id, const net::Probe& probe,
                                          InterfaceId incoming_iface,
                                          SubnetId origin_subnet,
                                          const ProbeSlot& slot) {
  // Anonymous routers forward but never send Time Exceeded — the hop shows
  // up as '*' in every trace regardless of retries.
  if (faults_enabled_ && faults_.reply_policy(node_id).anonymous) {
    fault_anonymous_.fetch_add(1, std::memory_order_relaxed);
    return count(net::ProbeReply::none());
  }
  const ResponseConfig& config =
      topology_.node(node_id).config_for(probe.protocol);
  if (config.indirect == ResponsePolicy::kNil)
    return count(net::ProbeReply::none());
  if (!admit_response(node_id, slot)) return count(net::ProbeReply::none());

  const net::Ipv4Addr source =
      reply_source(node_id, config.indirect, kInvalidId, incoming_iface,
                   origin_subnet, config.default_interface);
  if (source.is_unset()) return count(net::ProbeReply::none());
  return finish_reply(node_id,
                      net::ProbeReply{net::ResponseType::kTtlExceeded, source},
                      slot);
}

net::ProbeReply Network::arp_fail(NodeId node_id, const net::Probe& probe,
                                  InterfaceId incoming_iface,
                                  SubnetId origin_subnet, const Subnet& lan,
                                  const ProbeSlot& slot) {
  if (lan.arp_fail == ArpFailBehavior::kSilent)
    return count(net::ProbeReply::none());
  const ResponseConfig& config =
      topology_.node(node_id).config_for(probe.protocol);
  if (config.indirect == ResponsePolicy::kNil)
    return count(net::ProbeReply::none());
  if (!admit_response(node_id, slot)) return count(net::ProbeReply::none());
  const net::Ipv4Addr source =
      reply_source(node_id, config.indirect, kInvalidId, incoming_iface,
                   origin_subnet, config.default_interface);
  if (source.is_unset()) return count(net::ProbeReply::none());
  return finish_reply(
      node_id, net::ProbeReply{net::ResponseType::kHostUnreachable, source},
      slot);
}

std::uint32_t Network::pick_next_hop(NodeId node_id, const net::Probe& probe,
                                     SubnetId target_subnet,
                                     std::uint32_t count) {
  if (count == 1) return 0;

  if (topology_.per_packet_load_balancing(node_id)) {
    std::uint32_t turn;
    {
      const std::lock_guard<std::mutex> lock(round_robin_mutex_);
      turn = round_robin_[node_id]++;
    }
    return turn % count;
  }
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

void Network::emulate_rtt(std::uint64_t delay_us) {
  if (delay_us == 0) return;
  if (config_.scheduler != nullptr)
    config_.scheduler->sleep_us(delay_us);
  else
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
}

net::ProbeReply Network::send_probe(NodeId origin, const net::Probe& probe) {
  int hops = 0;
  const net::ProbeReply reply = walk_probe(origin, probe, &hops);
  emulate_rtt(probe_delay_us(probe, hops));
  return reply;
}

std::vector<net::ProbeReply> Network::send_probe_batch(
    NodeId origin, std::span<const net::Probe> probes) {
  const int window = faults_enabled_ ? faults_.reorder_window : 0;
  if (window > 1 && probes.size() > 1) {
    // Bounded reply reordering: overlapped round trips complete out of order,
    // so the clock-visible processing order (slot claims, token-bucket
    // admissions) is permuted within the wave. Each probe sorts by its batch
    // position plus a jitter below `window`, bounding displacement to
    // window-1 either way; the permutation is seeded from the spec seed and
    // the wave's content, so a fixed wave always replays the same order.
    // replies[i] still answers probes[i].
    std::uint64_t wave_key = util::mix64(faults_.seed ^ 0x5EC0DE0FDA7AULL);
    for (const net::Probe& probe : probes)
      wave_key = util::mix64(
          wave_key ^ (static_cast<std::uint64_t>(probe.target.value()) << 24) ^
          (static_cast<std::uint64_t>(probe.flow_id) << 10) ^
          (static_cast<std::uint64_t>(probe.attempt) << 8) ^
          static_cast<std::uint64_t>(probe.ttl));
    util::Rng rng(wave_key);
    std::vector<std::size_t> keys(probes.size());
    std::vector<std::size_t> order(probes.size());
    for (std::size_t i = 0; i < probes.size(); ++i) {
      keys[i] = i + static_cast<std::size_t>(
                        rng.below(static_cast<std::uint64_t>(window)));
      order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&keys](std::size_t a, std::size_t b) {
                       return keys[a] < keys[b];
                     });
    // The wave completes when its slowest reply lands: overlapped in-flight
    // probes pay the *maximum* of their round trips, not the sum.
    std::uint64_t wave_delay = 0;
    std::vector<net::ProbeReply> replies(probes.size());
    for (const std::size_t i : order) {
      int hops = 0;
      replies[i] = walk_probe(origin, probes[i], &hops);
      wave_delay = std::max(wave_delay, probe_delay_us(probes[i], hops));
    }
    emulate_rtt(wave_delay);
    return replies;
  }

  std::uint64_t wave_delay = 0;
  std::vector<net::ProbeReply> replies;
  replies.reserve(probes.size());
  for (const net::Probe& probe : probes) {
    int hops = 0;
    replies.push_back(walk_probe(origin, probe, &hops));
    wave_delay = std::max(wave_delay, probe_delay_us(probe, hops));
  }
  emulate_rtt(wave_delay);
  return replies;
}

net::ProbeReply Network::walk_probe(NodeId origin, const net::Probe& probe,
                                    int* hops_walked) {
  int links_crossed = 0;
  if (hops_walked != nullptr) *hops_walked = 0;
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
  std::optional<util::Rng> fault_rng;
  if (faults_enabled_) {
    fault_rng.emplace(fault_draw_stream(faults_.seed, probe));
    slot.fault_rng = &*fault_rng;
    const FaultPolicy& def = faults_.default_policy;
    // Default-policy forward faults are charged once, end to end, so the
    // observed loss rate matches the configured one on any path length.
    if (def.blackholes(probe.ttl)) {
      fault_blackholed_.fetch_add(1, std::memory_order_relaxed);
      return count(net::ProbeReply::none());
    }
    if (def.probe_loss > 0.0 && fault_rng->chance(def.probe_loss)) {
      fault_probe_lost_.fetch_add(1, std::memory_order_relaxed);
      return count(net::ProbeReply::none());
    }
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
      if (const FaultPolicy* over = faults_.override_for(current)) {
        if (over->blackholes(probe.ttl)) {
          fault_blackholed_.fetch_add(1, std::memory_order_relaxed);
          return count(net::ProbeReply::none());
        }
        if (over->probe_loss > 0.0 && fault_rng->chance(over->probe_loss)) {
          fault_probe_lost_.fetch_add(1, std::memory_order_relaxed);
          return count(net::ProbeReply::none());
        }
      }
    }

    // Delivery: the packet is destined to one of this node's addresses.
    if (target_iface && topology_.interface(*target_iface).node == current) {
      if (topology_.subnet(topology_.interface(*target_iface).subnet).firewalled)
        return count(net::ProbeReply::none());
      return respond_direct(current, probe, *target_iface, incoming,
                            origin_subnet, slot);
    }

    const Node& node = topology_.node(current);
    if (node.is_host && current != origin)
      return count(net::ProbeReply::none());  // hosts do not forward

    // Forwarding: routers decrement TTL; the originator does not. Routers
    // inside a hidden depth range (MPLS no-ttl-propagate, sim/faults.h)
    // forward without decrementing: they can never expire a probe, so they
    // never appear in a trace, and hops past the tunnel answer at shifted
    // TTLs. Depth is the router's 1-based hop distance from the origin — a
    // pure function of (topology, probe).
    if (current != origin) {
      ++router_depth;
      if (faults_enabled_ && faults_.hides_depth(router_depth)) {
        fault_hidden_hops_.fetch_add(1, std::memory_order_relaxed);
      } else {
        --ttl;
        if (ttl <= 0)
          return respond_indirect(current, probe, incoming, origin_subnet,
                                  slot);
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
      if (!target_iface)
        return arp_fail(current, probe, incoming, origin_subnet, lan, slot);
      current = topology_.interface(*target_iface).node;
      incoming = *target_iface;
      if (hops_walked != nullptr) *hops_walked = ++links_crossed;
      continue;
    }

    const std::uint32_t hops = route->hop_count(member);
    if (hops == 0) return count(net::ProbeReply::none());  // unreachable
    const RoutingTable::Route::Hop hop = route->hop(
        member, pick_next_hop(current, probe, *target_subnet, hops));
    current = hop.node;
    incoming = hop.ingress;
    member = hop.member;
    if (hops_walked != nullptr) *hops_walked = ++links_crossed;
  }
  return count(net::ProbeReply::none());  // loop guard tripped
}

}  // namespace tn::sim
