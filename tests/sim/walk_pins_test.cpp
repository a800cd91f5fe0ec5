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
#include <cstdint>
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
  const RoutingTable table(topo);

  std::uint64_t hash = kFnvBasis;
  std::uint64_t index = 0;
  const auto send = [&](NodeId origin, const net::Probe& probe) {
    const net::ProbeReply reply = net.send_probe(origin, probe);
    fnv1a64(hash, static_cast<std::uint64_t>(reply.type), 1);
    fnv1a64(hash, reply.responder.value(), 4);
  };
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
          send(origin, probe);
        }
        probe.ttl = net::kDirectProbeTtl;
        send(origin, probe);
      }
    }
  }
  EXPECT_GT(index, 100u);
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

}  // namespace
}  // namespace tn::sim
