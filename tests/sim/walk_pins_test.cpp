// Walk pins: the FNV-1a-64 hash of every reply of a fixed probe sweep, on
// four topologies, captured from the all-router distance rows that per-origin
// routes replaced. Routing.RoutesMatchFullGraphBfs* pin distances and
// next-hop sets node by node; these pin what the forwarding walk makes of
// them, across commits: a next-hop order, a delivery or an ARP decision that
// changes anywhere shows up as a failed pin.
//
// The sweep probes each subnet (every `stride`-th) from every origin: TTL 1
// to the origin's distance + 1 and a direct probe, toward every interface
// address of the subnet and one unassigned address. Flow ids and protocols
// rotate per target, so per-flow ECMP hashing picks differ (per destination
// address on Internet2, per destination subnet elsewhere); every fourth
// router of the reference and random topologies balances per packet, as the
// internet's cores do; half the routers churn, and every other target probes
// in churn epoch 1; every third router of the reference and random
// topologies answers TTL expiry from its shortest-path interface toward the
// origin.
//
// WalkPins.ImpairedReferences repeats the sweep on the two reference
// topologies with every impairment the walk applies installed at once, sent
// probe by probe and in reordered waves, and hashes the NetworkStats counters
// with the replies.
#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "sim/network.h"
#include "sim/random_topology.h"
#include "testutil.h"
#include "topo/isp.h"
#include "topo/reference.h"

namespace tn::sim {
namespace {

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

void fnv1a64(std::uint64_t& hash, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    hash ^= (value >> (8 * i)) & 0xFF;
    hash *= 0x100000001B3ULL;
  }
}

// Per-packet balancing and shortest-path replies on a share of the routers
// of a topology that has neither.
void add_balancers_and_shortest_path_replies(Topology& topo) {
  test::edit(topo, [](TopologyBuilder& b) {
    for (NodeId n = 0; n < b.node_count(); ++n) {
      if (b.node(n).is_host) continue;
      if (n % 4 == 1) b.set_per_packet_load_balancing(n, true);
      if (n % 3 == 2) {
        ResponseConfig config = b.node(n).config_for(net::ProbeProtocol::kIcmp);
        config.indirect = ResponsePolicy::kShortestPath;
        b.set_response_config_all(n, config);
      }
    }
  });
}

// One probe of the sweep and the node it leaves from.
struct SweepProbe {
  NodeId origin;
  net::Probe probe;
};

// The probes of the sweep, in sending order.
std::vector<SweepProbe> sweep_probes(const Topology& topo,
                                     const std::vector<NodeId>& origins,
                                     SubnetId stride) {
  const RoutingTable table(topo);
  std::vector<SweepProbe> probes;
  std::uint64_t index = 0;
  for (const NodeId origin : origins) {
    for (SubnetId s = 0; s < topo.subnet_count(); s += stride) {
      const net::Prefix& prefix = topo.subnet(s).prefix;
      std::vector<net::Ipv4Addr> targets;
      for (const InterfaceId iface : topo.subnet(s).interfaces)
        targets.push_back(topo.interface(iface).addr);
      for (std::uint64_t i = 0; i < prefix.size(); ++i) {
        if (!topo.find_interface(prefix.at(i))) {
          targets.push_back(prefix.at(i));
          break;
        }
      }
      const int distance = table.distance(origin, s);
      for (const net::Ipv4Addr target : targets) {
        net::Probe probe;
        probe.target = target;
        probe.flow_id = static_cast<std::uint16_t>(1 + index % 5);
        probe.protocol = static_cast<net::ProbeProtocol>(index % 3);
        probe.epoch = static_cast<std::uint8_t>(index % 2);
        ++index;
        for (int ttl = 1; ttl <= distance + 1 || ttl == 1; ++ttl) {
          probe.ttl = static_cast<std::uint8_t>(ttl);
          probes.push_back({origin, probe});
        }
        probe.ttl = net::kDirectProbeTtl;
        probes.push_back({origin, probe});
      }
    }
  }
  EXPECT_GT(index, 100u);
  return probes;
}

void hash_reply(std::uint64_t& hash, const net::ProbeReply& reply) {
  fnv1a64(hash, static_cast<std::uint64_t>(reply.type), 1);
  fnv1a64(hash, reply.responder.value(), 4);
}

std::uint64_t sweep_hash(const Topology& topo, const std::vector<NodeId>& origins,
                         SubnetId stride,
                         EcmpHashMode ecmp = EcmpHashMode::kPerDestSubnet) {
  NetworkConfig config;
  config.ecmp_hash = ecmp;
  Network net(topo, config);
  FaultSpec churn;
  churn.seed = 11;
  churn.churn_epoch_us = 1;
  churn.churn_fraction = 0.5;
  net.set_faults(churn);

  std::uint64_t hash = kFnvBasis;
  for (const SweepProbe& sent : sweep_probes(topo, origins, stride))
    hash_reply(hash, net.send_probe(sent.origin, sent.probe));
  return hash;
}

// Every third multi-access LAN answers an unassigned address with ICMP Host
// Unreachable instead of silence.
void add_host_unreachable_lans(Topology& topo) {
  test::edit(topo, [](TopologyBuilder& b) {
    int lans = 0;
    for (SubnetId s = 0; s < b.subnet_count(); ++s)
      if (b.subnet(s).prefix.length() < 30 && lans++ % 3 == 0)
        b.subnet_mut(s).arp_fail = ArpFailBehavior::kHostUnreachable;
  });
}

// Installs every impairment the walk models: rate limiters on every fifth
// router, as the §4.2 plan installs them, and a fault spec in which each
// mechanism fires — end-to-end and per-router black-holing, probe loss and
// reply loss, anonymous routers, spec rate limits, a hidden depth, churn at
// every router and wave reordering. When the pin was taken, each also fired
// on its own: the counters stayed above zero with either the default policy
// or the overrides removed, and with either kind of rate limiter removed.
void impair(Network& net, const Topology& topo) {
  std::vector<NodeId> routers;
  for (NodeId n = 0; n < topo.node_count(); ++n)
    if (!topo.node(n).is_host) routers.push_back(n);
  FaultSpec spec;
  spec.seed = 29;
  spec.default_policy.probe_loss = 0.05;
  spec.default_policy.reply_loss = 0.05;
  spec.default_policy.blackhole_ttl_lo = 9;
  spec.default_policy.blackhole_ttl_hi = 9;
  spec.reorder_window = 4;
  spec.hide_ttl_lo = 3;
  spec.hide_ttl_hi = 3;
  spec.churn_epoch_us = 1;
  spec.churn_fraction = 1.0;
  for (std::size_t r = 0; r < routers.size(); ++r) {
    if (r % 5 == 3) net.set_rate_limiter(routers[r], RateLimiter(100.0, 5.0));
    FaultPolicy policy;
    switch (r % 9) {
      case 1: policy.blackhole_ttl_lo = 6; policy.blackhole_ttl_hi = 6; break;
      case 2: policy.probe_loss = 0.2; break;
      case 4: policy.reply_loss = 0.3; break;
      case 5: policy.anonymous = true; break;
      case 7: policy.icmp_rate = 200.0; policy.icmp_burst = 2.0; break;
      default: continue;
    }
    spec.node_overrides.emplace(routers[r], policy);
  }
  net.set_faults(std::move(spec));
}

// The sweep from `vantage` through an impaired network, probe by probe
// (`wave` 1) or in waves of `wave` probes: the hash of every reply, then of
// every NetworkStats field.
std::uint64_t impaired_hash(const Topology& topo, NodeId vantage,
                            std::size_t wave) {
  Network net(topo);
  impair(net, topo);
  std::vector<net::Probe> probes;
  for (const SweepProbe& sent : sweep_probes(topo, {vantage}, 1))
    probes.push_back(sent.probe);

  std::uint64_t hash = kFnvBasis;
  std::uint64_t host_unreachable = 0;
  const auto record = [&](const net::ProbeReply& reply) {
    hash_reply(hash, reply);
    host_unreachable += reply.type == net::ResponseType::kHostUnreachable;
  };
  if (wave == 1) {
    for (const net::Probe& probe : probes)
      record(net.send_probe(vantage, probe));
  } else {
    const std::span<const net::Probe> all(probes);
    for (std::size_t i = 0; i < all.size(); i += wave)
      for (const net::ProbeReply& reply : net.send_probe_batch(
               vantage, all.subspan(i, std::min(wave, all.size() - i))))
        record(reply);
  }
  const NetworkStats stats = net.stats();
  for (const std::uint64_t field :
       {stats.probes_injected, stats.echo_replies, stats.ttl_exceeded,
        stats.unreachable, stats.tcp_resets, stats.silent, stats.rate_limited,
        stats.fault_probe_lost, stats.fault_reply_lost, stats.fault_anonymous,
        stats.fault_blackholed, stats.fault_hidden_hops,
        stats.fault_churned_picks})
    fnv1a64(hash, field, 8);
  EXPECT_EQ(stats.probes_injected, probes.size());
  EXPECT_GT(stats.unreachable, 0u);
  EXPECT_GT(host_unreachable, 0u);
  EXPECT_GT(stats.rate_limited, 0u);
  EXPECT_GT(stats.fault_probe_lost, 0u);
  EXPECT_GT(stats.fault_reply_lost, 0u);
  EXPECT_GT(stats.fault_anonymous, 0u);
  EXPECT_GT(stats.fault_blackholed, 0u);
  EXPECT_GT(stats.fault_hidden_hops, 0u);
  EXPECT_GT(stats.fault_churned_picks, 0u);
  return hash;
}

TEST(WalkPins, Internet2Like) {
  topo::ReferenceTopology ref = topo::internet2_like(42);
  add_balancers_and_shortest_path_replies(ref.topo);
  EXPECT_EQ(
      sweep_hash(ref.topo, {ref.vantage}, 1, EcmpHashMode::kPerDestAddr),
      0x1675c8aa1fa8a8f7ULL);
}

TEST(WalkPins, GeantLike) {
  topo::ReferenceTopology ref = topo::geant_like(43);
  add_balancers_and_shortest_path_replies(ref.topo);
  EXPECT_EQ(sweep_hash(ref.topo, {ref.vantage}, 1), 0xd625337bd7908e6cULL);
}

// The §4.2 internet has per-packet cores and flaky interfaces of its own;
// flakiness draws on the injection sequence, which a serial sweep fixes.
TEST(WalkPins, SimulatedInternet) {
  const topo::SimulatedInternet internet =
      topo::build_internet(topo::default_isp_profiles(), 7);
  EXPECT_EQ(sweep_hash(internet.topo, internet.vantages, 3), 0x247e92413aa4c345ULL);
}

// From a single-homed host, a router and a multi-homed host, over host-only
// LANs, multi-homed hosts that deliver onto their other LANs, and an island;
// one hash over four seeds.
TEST(WalkPins, RandomMultiHomed) {
  std::uint64_t hash = kFnvBasis;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RandomTopology random = random_topology(seed);
    add_balancers_and_shortest_path_replies(random.topo);
    const Topology& t = random.topo;
    NodeId host = kInvalidId;
    NodeId multi_homed = kInvalidId;
    for (NodeId n = 0; n < t.node_count(); ++n) {
      if (!t.node(n).is_host) continue;
      if (t.node(n).interfaces.size() == 1 && host == kInvalidId) host = n;
      if (t.node(n).interfaces.size() > 1 && multi_homed == kInvalidId)
        multi_homed = n;
    }
    ASSERT_NE(host, kInvalidId);
    ASSERT_NE(multi_homed, kInvalidId);
    fnv1a64(hash, sweep_hash(t, {host, 0, multi_homed}, 1), 8);
  }
  EXPECT_EQ(hash, 0x8bee3361446d2591ULL);
}

// The sweep through every impairment, serially and in reordered waves of 8,
// pinned with the counters: rate-limit admission, reply loss, anonymous
// routers, black-holed TTLs, hidden depths and ARP Host Unreachable, none of
// which the churn-only pins above reach.
TEST(WalkPins, ImpairedReferences) {
  topo::ReferenceTopology internet2 = topo::internet2_like(42);
  add_balancers_and_shortest_path_replies(internet2.topo);
  add_host_unreachable_lans(internet2.topo);
  EXPECT_EQ(impaired_hash(internet2.topo, internet2.vantage, 1),
            0x8c3ad6dfb2858cdbULL);
  EXPECT_EQ(impaired_hash(internet2.topo, internet2.vantage, 8),
            0x9223ea60e955d0b7ULL);

  topo::ReferenceTopology geant = topo::geant_like(43);
  add_balancers_and_shortest_path_replies(geant.topo);
  add_host_unreachable_lans(geant.topo);
  EXPECT_EQ(impaired_hash(geant.topo, geant.vantage, 1),
            0x9a3c7d340d7939fcULL);
  EXPECT_EQ(impaired_hash(geant.topo, geant.vantage, 8),
            0x9fd281b3661f2cc8ULL);
}

}  // namespace
}  // namespace tn::sim
