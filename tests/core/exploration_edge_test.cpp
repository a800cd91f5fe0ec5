// Edge-case behaviours of positioning and exploration: heuristic gating
// rules, anonymous entry points, vantage-adjacent subnets, dark pivots, and
// non-ICMP exploration.
#include <gtest/gtest.h>

#include "core/exploration.h"
#include "core/positioning.h"
#include "core/session.h"
#include "probe/cache.h"
#include "probe/sim_engine.h"
#include "testutil.h"

namespace tn::core {
namespace {

using test::ip;
using test::pfx;

// Tests extend the chain's topology and then probe a frozen copy of what
// was built so far.
struct Chain {
  sim::TopologyBuilder topo;
  sim::NodeId vantage, g, r1, r2;

  Chain() {
    vantage = topo.add_host("V");
    g = topo.add_router("G");
    r1 = topo.add_router("R1");
    r2 = topo.add_router("R2");
    link(vantage, g, "10.0.0.0/30");
    link(g, r1, "10.0.1.0/30");
    link(r1, r2, "10.0.2.0/30");
  }

  void link(sim::NodeId a, sim::NodeId b, const char* prefix) {
    const auto subnet = topo.add_subnet(pfx(prefix));
    const net::Prefix p = topo.subnet(subnet).prefix;
    topo.attach(a, subnet, p.at(1));
    topo.attach(b, subnet, p.at(2));
  }

  sim::Topology freeze() const { return sim::TopologyBuilder(topo).build(); }

  ObservedSubnet explore(
      net::Ipv4Addr v, int d,
      net::ProbeProtocol protocol = net::ProbeProtocol::kIcmp) {
    const sim::Topology frozen = freeze();
    sim::Network net(frozen);
    probe::SimProbeEngine wire(net, vantage);
    probe::CachingProbeEngine cached(wire);
    SubnetPositioner positioner(cached);
    Prober prober(cached);
    prober.protocol = protocol;
    SubnetPositioner proto_positioner(prober);
    const Position pos = proto_positioner.position(ip("10.0.2.2"), v, d);
    SubnetExplorer explorer(prober);
    return explorer.explore(pos);
  }
};

TEST(ExplorationEdge, Mate30ShortcutGatedByMate31Aliveness) {
  // True /29 where the pivot's /31 mate IS alive: the /30 mate must NOT get
  // the H5 shortcut and instead go through the full heuristic chain (it
  // becomes the contra-pivot via H3).
  Chain c;
  const auto lan = c.topo.add_subnet(pfx("192.168.0.0/29"));
  c.topo.attach(c.r2, lan, ip("192.168.0.1"));  // contra = mate30 of pivot
  for (const char* addr : {"192.168.0.2", "192.168.0.3", "192.168.0.4"}) {
    const auto host = c.topo.add_host(addr);
    c.topo.attach(host, lan, ip(addr));
  }
  const auto subnet = c.explore(ip("192.168.0.2"), 4);
  // .3 (mate31, alive) joined via H5; .1 (mate30) was processed as a normal
  // candidate and recognized as contra-pivot.
  ASSERT_TRUE(subnet.contra_pivot);
  EXPECT_EQ(*subnet.contra_pivot, ip("192.168.0.1"));
  EXPECT_EQ(subnet.members.size(), 4u);
  EXPECT_EQ(subnet.prefix, pfx("192.168.0.0/29"));
}

TEST(ExplorationEdge, AnonymousEntryPointsCannotRefute) {
  // The ingress router is indirect-nil: both i (positioning) and the H6
  // probes come back anonymous. H6's documented wildcard: silence passes,
  // and the subnet is still collected exactly.
  Chain c;
  sim::ResponseConfig nil;
  nil.direct = sim::ResponsePolicy::kProbed;
  nil.indirect = sim::ResponsePolicy::kNil;
  c.topo.set_response_config_all(c.r2, nil);

  const auto lan = c.topo.add_subnet(pfx("192.168.0.0/29"));
  c.topo.attach(c.r2, lan, ip("192.168.0.1"));
  for (const char* addr : {"192.168.0.2", "192.168.0.4", "192.168.0.5"}) {
    const auto host = c.topo.add_host(addr);
    c.topo.attach(host, lan, ip(addr));
  }
  const auto subnet = c.explore(ip("192.168.0.2"), 4);
  EXPECT_EQ(subnet.prefix, pfx("192.168.0.0/29"));
  EXPECT_EQ(subnet.members.size(), 4u);
}

TEST(ExplorationEdge, VantageAdjacentSubnetGuardsLowTtls) {
  // Exploring the gateway's own interface at hop 1: jh-1 and jh-2 probes
  // would need TTL 0 and -1; the guards must turn them into silence rather
  // than underflow, and the access /30 is still collected.
  Chain c;
  const sim::Topology topo = c.freeze();
  sim::Network net(topo);
  probe::SimProbeEngine wire(net, c.vantage);
  probe::CachingProbeEngine cached(wire);
  SubnetPositioner positioner(cached);
  const Position pos = positioner.position(std::nullopt, ip("10.0.0.2"), 1);
  SubnetExplorer explorer(cached);
  const ObservedSubnet subnet = explorer.explore(pos);
  EXPECT_EQ(subnet.prefix, pfx("10.0.0.0/30"));
}

TEST(ExplorationEdge, DarkPivotStillGrowsFromNeighbors) {
  // The pivot answers indirect probes (it appeared on the trace) but not
  // direct ones; its LAN neighbors are alive. Exploration proceeds around
  // the dark pivot.
  Chain c;
  const auto lan = c.topo.add_subnet(pfx("192.168.0.0/29"));
  c.topo.attach(c.r2, lan, ip("192.168.0.1"));
  const auto dark_host = c.topo.add_host("dark");
  const auto dark =
      c.topo.attach(dark_host, lan, ip("192.168.0.2"));
  c.topo.interface_mut(dark).responsive = false;
  for (const char* addr : {"192.168.0.3", "192.168.0.4", "192.168.0.5"}) {
    const auto host = c.topo.add_host(addr);
    c.topo.attach(host, lan, ip(addr));
  }
  const auto subnet = c.explore(ip("192.168.0.2"), 4);
  EXPECT_GE(subnet.members.size(), 4u);  // pivot + three live neighbors
  EXPECT_EQ(subnet.prefix, pfx("192.168.0.0/29"));
}

TEST(ExplorationEdge, UdpExplorationUsesPortUnreachableAliveness) {
  Chain c;
  const auto lan = c.topo.add_subnet(pfx("192.168.0.0/29"));
  c.topo.attach(c.r2, lan, ip("192.168.0.1"));
  for (const char* addr : {"192.168.0.2", "192.168.0.4", "192.168.0.5"}) {
    const auto host = c.topo.add_host(addr);
    c.topo.attach(host, lan, ip(addr));
  }
  const auto subnet =
      c.explore(ip("192.168.0.2"), 4, net::ProbeProtocol::kUdp);
  EXPECT_EQ(subnet.prefix, pfx("192.168.0.0/29"));
  EXPECT_EQ(subnet.members.size(), 4u);
}

TEST(ExplorationEdge, UdpNilMembersShrinkTheUdpView) {
  // Members deaf to UDP disappear from a UDP exploration but not an ICMP
  // one — the per-protocol mechanism behind Table 3.
  Chain c;
  const auto lan = c.topo.add_subnet(pfx("192.168.0.0/29"));
  c.topo.attach(c.r2, lan, ip("192.168.0.1"));
  sim::ResponseConfig udp_nil;
  udp_nil.direct = sim::ResponsePolicy::kNil;
  udp_nil.indirect = sim::ResponsePolicy::kIncoming;
  for (const char* addr : {"192.168.0.2", "192.168.0.4", "192.168.0.5"}) {
    const auto host = c.topo.add_host(addr);
    c.topo.attach(host, lan, ip(addr));
    if (std::string_view(addr) != "192.168.0.2")
      c.topo.set_response_config(host, net::ProbeProtocol::kUdp, udp_nil);
  }
  const auto udp_subnet =
      c.explore(ip("192.168.0.2"), 4, net::ProbeProtocol::kUdp);
  const auto icmp_subnet = c.explore(ip("192.168.0.2"), 4);
  EXPECT_LT(udp_subnet.members.size(), icmp_subnet.members.size());
}

TEST(ExplorationEdge, PositioningAtHopOneAssumesOnPath) {
  Chain c;
  const sim::Topology topo = c.freeze();
  sim::Network net(topo);
  probe::SimProbeEngine wire(net, c.vantage);
  SubnetPositioner positioner(wire);
  const Position pos = positioner.position(std::nullopt, ip("10.0.0.2"), 1);
  EXPECT_TRUE(pos.on_trace_path);
  EXPECT_EQ(pos.pivot_distance, 1);
}

TEST(ExplorationEdge, SessionWithZeroRetriesStillRuns) {
  Chain c;
  const sim::Topology topo = c.freeze();
  sim::Network net(topo);
  probe::SimProbeEngine wire(net, c.vantage);
  SessionConfig config;
  config.retry_attempts = 0;  // clamped to 1 attempt internally
  TracenetSession session(wire, config);
  const SessionResult result = session.run(ip("10.0.2.2"));
  EXPECT_TRUE(result.path.destination_reached);
}

}  // namespace
}  // namespace tn::core
