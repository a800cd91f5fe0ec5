// The paper's Figure 2 scenario: an overlay operator picking "disjoint"
// paths from traceroute data concludes wrongly, because routers R2, R4, R5
// and R8 share a multi-access link that single traceroutes cannot see;
// tracenet's subnet output exposes the shared LAN.
#include <gtest/gtest.h>

#include <set>

#include "core/session.h"
#include "probe/sim_engine.h"
#include "testutil.h"

namespace tn {
namespace {

using test::ip;
using test::pfx;

// Figure 2's topology: hosts A, B, C, D; routers R1..R9 (no R7 in the paper's
// traceroute view; we include all). The multi-access LAN S connects R2, R4,
// R5 and R8.
struct Fig2Topology {
  sim::Topology topo;
  sim::NodeId a, b, c, d;
  sim::NodeId r[10];  // 1-indexed
  sim::SubnetId shared;

  Fig2Topology() {
    sim::TopologyBuilder builder;
    const auto p2p = [&](sim::NodeId x, sim::NodeId y,
                         std::string_view prefix) {
      const auto subnet = builder.add_subnet(test::pfx(prefix));
      const net::Prefix p = builder.subnet(subnet).prefix;
      builder.attach(x, subnet, p.at(1));
      builder.attach(y, subnet, p.at(2));
    };
    a = builder.add_host("A");
    b = builder.add_host("B");
    c = builder.add_host("C");
    d = builder.add_host("D");
    for (int i = 1; i <= 9; ++i)
      r[i] = builder.add_router("R" + std::to_string(i));

    // Access links.
    p2p(a, r[1], "10.1.0.0/30");
    p2p(a, r[3], "10.1.1.0/30");
    p2p(b, r[6], "10.1.2.0/30");
    p2p(d, r[9], "10.1.3.0/30");
    p2p(c, r[8], "10.1.4.0/30");

    // Point-to-point backbone (paths P1 upper, P2 lower).
    p2p(r[1], r[2], "10.2.0.0/30");
    p2p(r[3], r[4], "10.2.1.0/30");
    p2p(r[5], r[9], "10.2.2.0/30");
    p2p(r[6], r[3], "10.2.3.0/30");

    // The multi-access LAN shared by R2, R4, R5, R8.
    shared = builder.add_subnet(test::pfx("172.16.0.0/29"));
    builder.attach(r[2], shared, ip("172.16.0.1"));
    builder.attach(r[4], shared, ip("172.16.0.2"));
    builder.attach(r[5], shared, ip("172.16.0.3"));
    builder.attach(r[8], shared, ip("172.16.0.4"));
    topo = std::move(builder).build();
  }
};

TEST(Fig2Overlay, TracerouteSuggestsDisjointPathsWrongly) {
  Fig2Topology f;
  sim::Network net(f.topo);

  // P1: trace from A toward D; P3: from B toward C.
  probe::SimProbeEngine engine_a(net, f.a);
  probe::SimProbeEngine engine_b(net, f.b);
  core::Traceroute trace_a(engine_a);
  core::Traceroute trace_b(engine_b);
  const auto p1 = trace_a.run(ip("10.1.3.1"));  // D
  const auto p3 = trace_b.run(ip("10.1.4.1"));  // C
  ASSERT_TRUE(p1.destination_reached);
  ASSERT_TRUE(p3.destination_reached);

  // Traceroute's IP lists share no address: the paths *look* disjoint.
  std::set<net::Ipv4Addr> p1_addrs, shared_addrs;
  for (const auto addr : p1.responders()) p1_addrs.insert(addr);
  int overlap = 0;
  for (const auto addr : p3.responders()) overlap += p1_addrs.contains(addr);
  EXPECT_EQ(overlap, 0) << "traceroute already sees the overlap; scenario broken";
}

TEST(Fig2Overlay, TracenetRevealsTheSharedLan) {
  Fig2Topology f;
  sim::Network net(f.topo);

  probe::SimProbeEngine engine_a(net, f.a);
  probe::SimProbeEngine engine_b(net, f.b);
  core::TracenetSession session_a(engine_a);
  core::TracenetSession session_b(engine_b);
  const auto p1 = session_a.run(ip("10.1.3.1"));  // A -> D
  const auto p3 = session_b.run(ip("10.1.4.1"));  // B -> C

  // From B the LAN has a single ingress (R4), so the full /29 is sketched.
  const core::ObservedSubnet* shared_from_b = nullptr;
  for (const auto& subnet : p3.subnets)
    if (subnet.prefix == pfx("172.16.0.0/29")) shared_from_b = &subnet;
  ASSERT_NE(shared_from_b, nullptr);

  // From A the LAN is entered through two equal-distance routers (R2 and
  // R4); H3's single-contra-pivot rule shrinks the sketch, but a piece of
  // the LAN is still collected.
  const core::ObservedSubnet* shared_from_a = nullptr;
  for (const auto& subnet : p1.subnets)
    if (pfx("172.16.0.0/29").contains(subnet.prefix)) shared_from_a = &subnet;
  ASSERT_NE(shared_from_a, nullptr);

  // The combined subnet data exposes the non-disjointness: one observed
  // subnet contains both P1's and P3's hop addresses on the shared LAN.
  const net::Ipv4Addr p1_hop = ip("172.16.0.3");  // R5, revealed on A -> D
  const net::Ipv4Addr p3_hop = ip("172.16.0.4");  // R8, revealed on B -> C
  EXPECT_TRUE(shared_from_b->prefix.contains(p1_hop));
  EXPECT_TRUE(shared_from_b->prefix.contains(p3_hop));
  const auto& members = shared_from_b->members;
  EXPECT_NE(std::find(members.begin(), members.end(), p1_hop), members.end());
  EXPECT_NE(std::find(members.begin(), members.end(), p3_hop), members.end());
}

}  // namespace
}  // namespace tn
