// Path-fluctuation behaviour (§3.7): equal-cost multipath resolution,
// per-packet load balancing, and mid-walk routing changes.
#include <gtest/gtest.h>

#include <set>

#include "sim/network.h"
#include "testutil.h"

namespace tn::sim {
namespace {

using net::Probe;
using net::ResponseType;
using test::ip;
using test::pfx;

// Diamond topology: V - fork - {a | b} - join - leaf LAN.
// Both branches are length 1, so `fork` has two equal-cost next hops, unless
// `a` is built as a host, which never forwards: branch a is then down.
struct Diamond {
  Topology topo;
  NodeId vantage, fork, a, b, join;
  SubnetId leaf;
  net::Ipv4Addr leaf_addr = ip("10.9.0.1");
  net::Ipv4Addr leaf_addr2 = ip("10.9.0.2");

  explicit Diamond(bool a_forwards = true) {
    TopologyBuilder builder;
    vantage = builder.add_host("V");
    fork = builder.add_router("fork");
    a = a_forwards ? builder.add_router("a") : builder.add_host("a");
    b = builder.add_router("b");
    join = builder.add_router("join");

    const auto lv = builder.add_subnet(pfx("10.0.0.0/31"));
    builder.attach(vantage, lv, ip("10.0.0.0"));
    builder.attach(fork, lv, ip("10.0.0.1"));

    const auto fa = builder.add_subnet(pfx("10.0.1.0/31"));
    builder.attach(fork, fa, ip("10.0.1.0"));
    builder.attach(a, fa, ip("10.0.1.1"));
    const auto fb = builder.add_subnet(pfx("10.0.2.0/31"));
    builder.attach(fork, fb, ip("10.0.2.0"));
    builder.attach(b, fb, ip("10.0.2.1"));

    const auto aj = builder.add_subnet(pfx("10.0.3.0/31"));
    builder.attach(a, aj, ip("10.0.3.0"));
    builder.attach(join, aj, ip("10.0.3.1"));
    const auto bj = builder.add_subnet(pfx("10.0.4.0/31"));
    builder.attach(b, bj, ip("10.0.4.0"));
    builder.attach(join, bj, ip("10.0.4.1"));

    leaf = builder.add_subnet(pfx("10.9.0.0/29"));
    builder.attach(join, leaf, leaf_addr);
    const auto extra = builder.add_router("leaf2");
    builder.attach(extra, leaf, leaf_addr2);
    topo = std::move(builder).build();
  }

  net::ProbeReply hop2(Network& net, net::Ipv4Addr target, std::uint16_t flow) {
    Probe p;
    p.target = target;
    p.ttl = 2;  // expires at a or b
    p.flow_id = flow;
    return net.send_probe(vantage, p);
  }
};

TEST(Fluctuation, PerFlowHashingIsStable) {
  Diamond d;
  Network net(d.topo);
  const auto first = d.hop2(net, d.leaf_addr, 7);
  ASSERT_EQ(first.type, ResponseType::kTtlExceeded);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(d.hop2(net, d.leaf_addr, 7).responder, first.responder);
}

TEST(Fluctuation, PerDestSubnetHashGivesFixedIngressAcrossAddresses) {
  // §3.2(ii) Fixed Ingress Router: probes to *different addresses of the same
  // subnet* must traverse the same branch under the default hash mode.
  Diamond d;
  Network net(d.topo);
  const auto r1 = d.hop2(net, d.leaf_addr, 3);
  const auto r2 = d.hop2(net, d.leaf_addr2, 3);
  ASSERT_EQ(r1.type, ResponseType::kTtlExceeded);
  EXPECT_EQ(r1.responder, r2.responder);
}

TEST(Fluctuation, DifferentFlowsMayDiverge) {
  Diamond d;
  Network net(d.topo);
  std::set<std::uint32_t> seen;
  for (std::uint16_t flow = 0; flow < 64; ++flow)
    seen.insert(d.hop2(net, d.leaf_addr, flow).responder.value());
  // With 64 flows over 2 branches, both must appear.
  EXPECT_EQ(seen.size(), 2u);
}

TEST(Fluctuation, PerDestAddrHashCanSplitSubnetProbes) {
  Diamond d;
  NetworkConfig config;
  config.ecmp_hash = EcmpHashMode::kPerDestAddr;
  Network net(d.topo, config);
  std::set<std::uint32_t> seen;
  // Scan many addresses of the leaf subnet under one flow id; with
  // per-address hashing the branch choice varies.
  for (std::uint32_t i = 1; i <= 6; ++i) {
    Probe p;
    p.target = ip("10.9.0." + std::to_string(i));
    p.ttl = 2;
    p.flow_id = 1;
    seen.insert(net.send_probe(d.vantage, p).responder.value());
  }
  EXPECT_EQ(seen.size(), 2u);
}

TEST(Fluctuation, PerPacketLoadBalancerAlternates) {
  Diamond d;
  test::edit(d.topo, [&](TopologyBuilder& b) {
    b.set_per_packet_load_balancing(d.fork, true);
  });
  Network net(d.topo);
  const auto first = d.hop2(net, d.leaf_addr, 7);
  const auto second = d.hop2(net, d.leaf_addr, 7);
  ASSERT_EQ(first.type, ResponseType::kTtlExceeded);
  ASSERT_EQ(second.type, ResponseType::kTtlExceeded);
  EXPECT_NE(first.responder, second.responder);  // round robin
}

TEST(Fluctuation, FluctuatingPathsConvergeAtIngress) {
  // Even under per-packet balancing, probes to the leaf subnet always enter
  // through `join` — the paper's stable-ingress argument. TTL 3 always
  // expires at join regardless of branch.
  Diamond d;
  test::edit(d.topo, [&](TopologyBuilder& b) {
    b.set_per_packet_load_balancing(d.fork, true);
  });
  Network net(d.topo);
  for (int i = 0; i < 10; ++i) {
    Probe p;
    p.target = d.leaf_addr2;
    p.ttl = 3;
    const auto reply = net.send_probe(d.vantage, p);
    ASSERT_EQ(reply.type, ResponseType::kTtlExceeded);
    // join's incoming interface differs per branch but belongs to join.
    const auto iface = d.topo.find_interface(reply.responder);
    ASSERT_TRUE(iface);
    EXPECT_EQ(d.topo.interface(*iface).node, d.join);
  }
}

TEST(Fluctuation, StepHookObservesWalk) {
  Diamond d;
  Network net(d.topo);
  std::vector<NodeId> visited;
  net.set_step_hook([&](NodeId node, const Probe&) { visited.push_back(node); });
  Probe p;
  p.target = d.leaf_addr;
  p.ttl = 64;
  net.send_probe(d.vantage, p);
  ASSERT_GE(visited.size(), 3u);
  EXPECT_EQ(visited.front(), d.vantage);
  EXPECT_EQ(visited.back(), d.join);
}

TEST(Fluctuation, RouteChangeMidExperimentShiftsHopDistance) {
  // "Link maintenance" on branch a mid-run: the routing update is a new
  // snapshot in which `a` no longer forwards, probed through a network of
  // its own. Routes re-converge through b only.
  Diamond d;
  Network net(d.topo);
  std::set<std::uint32_t> before;
  for (std::uint16_t flow = 0; flow < 32; ++flow)
    before.insert(d.hop2(net, d.leaf_addr, flow).responder.value());
  EXPECT_EQ(before.size(), 2u);

  Diamond maintained(/*a_forwards=*/false);
  Network rerouted(maintained.topo);
  std::set<std::uint32_t> after;
  for (std::uint16_t flow = 0; flow < 32; ++flow)
    after.insert(
        maintained.hop2(rerouted, d.leaf_addr, flow).responder.value());
  EXPECT_EQ(after.size(), 1u);
  EXPECT_EQ(*after.begin(), ip("10.0.2.1").value());  // b's interface
}

}  // namespace
}  // namespace tn::sim
