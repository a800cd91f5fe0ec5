#include "core/multipath.h"

#include <gtest/gtest.h>

#include "core/session.h"
#include "probe/sim_engine.h"
#include "testutil.h"

namespace tn::core {
namespace {

using test::ip;
using test::pfx;

// Diamond: V - fork - {a | b} - join - leaf (same as the fluctuation tests).
struct Diamond {
  sim::Topology topo;
  sim::NodeId vantage, fork, a, b, join;
  net::Ipv4Addr leaf_addr = ip("10.9.0.1");

  Diamond() {
    sim::TopologyBuilder builder;
    vantage = builder.add_host("V");
    fork = builder.add_router("fork");
    a = builder.add_router("a");
    b = builder.add_router("b");
    join = builder.add_router("join");
    auto link = [&](sim::NodeId x, sim::NodeId y, const char* prefix) {
      const auto subnet = builder.add_subnet(pfx(prefix));
      const net::Prefix p = builder.subnet(subnet).prefix;
      builder.attach(x, subnet, p.at(0));
      builder.attach(y, subnet, p.at(1));
    };
    link(vantage, fork, "10.0.0.0/31");
    link(fork, a, "10.0.1.0/31");
    link(fork, b, "10.0.2.0/31");
    link(a, join, "10.0.3.0/31");
    link(b, join, "10.0.4.0/31");
    const auto leaf = builder.add_subnet(pfx("10.9.0.0/29"));
    builder.attach(join, leaf, leaf_addr);
    topo = std::move(builder).build();
  }
};

TEST(Multipath, DiscoversBothBranchesOfADiamond) {
  Diamond d;
  sim::Network net(d.topo);
  probe::SimProbeEngine engine(net, d.vantage);

  // Single-flow traceroute pins one branch...
  Traceroute tracer(engine);
  const TracePath single = tracer.run(d.leaf_addr);
  ASSERT_TRUE(single.destination_reached);

  // ...multipath discovery finds both.
  MultipathDiscovery discovery(engine);
  const MultipathResult multi = discovery.run(d.leaf_addr);
  EXPECT_TRUE(multi.destination_reached);
  EXPECT_EQ(multi.diamond_count(), 1u);
  ASSERT_GE(multi.hops.size(), 2u);
  EXPECT_EQ(multi.hops[1].responders.size(), 2u);  // a and b
  EXPECT_GT(multi.interface_count(), single.responders().size());
}

TEST(Multipath, NoDiamondsOnALinearPath) {
  test::Fig3Topology f;
  sim::Network net(f.topo);
  probe::SimProbeEngine engine(net, f.vantage);
  MultipathDiscovery discovery(engine);
  const MultipathResult result = discovery.run(f.pivot4);
  EXPECT_TRUE(result.destination_reached);
  EXPECT_EQ(result.diamond_count(), 0u);
  for (const MultipathHop& hop : result.hops)
    EXPECT_LE(hop.responders.size(), 1u);
}

TEST(Multipath, SessionExploresBothBranchSubnets) {
  Diamond d;
  sim::Network net(d.topo);
  probe::SimProbeEngine engine(net, d.vantage);
  MultipathTracenetSession session(engine);
  const MultipathSessionResult result = session.run(d.leaf_addr);

  std::set<net::Prefix> prefixes;
  for (const auto& subnet : result.subnets) prefixes.insert(subnet.prefix);
  // Both fork->a and fork->b link subnets collected.
  EXPECT_TRUE(prefixes.contains(pfx("10.0.1.0/31")));
  EXPECT_TRUE(prefixes.contains(pfx("10.0.2.0/31")));

  // A single-flow tracenet session only ever sees one of them.
  sim::Network net2(d.topo);
  probe::SimProbeEngine engine2(net2, d.vantage);
  TracenetSession single(engine2);
  const SessionResult single_result = single.run(d.leaf_addr);
  std::set<net::Prefix> single_prefixes;
  for (const auto& subnet : single_result.subnets)
    single_prefixes.insert(subnet.prefix);
  EXPECT_LT(single_prefixes.size(), prefixes.size());
}

TEST(Multipath, AnonymousGapTerminates) {
  test::Fig3Topology f;
  test::edit(f.topo, [&](sim::TopologyBuilder& builder) {
    builder.subnet_mut(f.s).firewalled = true;
  });
  sim::Network net(f.topo);
  probe::SimProbeEngine engine(net, f.vantage);
  MultipathDiscovery discovery(engine);
  const MultipathResult result = discovery.run(f.pivot3);
  EXPECT_FALSE(result.destination_reached);
  EXPECT_LE(result.hops.size(), 3u + kAnonymousGapLimit);
}

TEST(Multipath, PerPacketBalancerStillConverges) {
  Diamond d;
  test::edit(d.topo, [&](sim::TopologyBuilder& builder) {
    builder.set_per_packet_load_balancing(d.fork, true);
  });
  sim::Network net(d.topo);
  probe::SimProbeEngine engine(net, d.vantage);
  MultipathDiscovery discovery(engine);
  const MultipathResult result = discovery.run(d.leaf_addr);
  EXPECT_TRUE(result.destination_reached);
  EXPECT_GE(result.diamond_count(), 1u);
}

}  // namespace
}  // namespace tn::core
