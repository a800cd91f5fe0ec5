// Subnet exploration (Algorithm 1) and heuristics H2-H9, each exercised by a
// purpose-built topology.  The common scaffold is a three-router chain from
// the vantage (G at hop 1, R1 at hop 2, R2 = ingress at hop 3) with the
// subnet under exploration hanging off R2, so pivots sit at hop 4 (jh = 4).
#include "core/exploration.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/positioning.h"
#include "probe/cache.h"
#include "probe/sim_engine.h"
#include "testutil.h"
#include "util/log.h"

namespace tn::core {
namespace {

using test::ip;
using test::pfx;

// Tests extend the scenario's topology and then explore; each exploration
// runs on a frozen copy of what was built so far.
struct LanScenario {
  sim::TopologyBuilder topo;
  sim::NodeId vantage, g, r1, r2;  // chain; r2 is the ingress router
  std::vector<sim::NodeId> members;
  sim::SubnetId lan = sim::kInvalidId;

  LanScenario() {
    vantage = topo.add_host("V");
    g = topo.add_router("G");
    r1 = topo.add_router("R1");
    r2 = topo.add_router("R2");
    const auto lv = topo.add_subnet(pfx("10.0.0.0/30"));
    topo.attach(vantage, lv, ip("10.0.0.1"));
    topo.attach(g, lv, ip("10.0.0.2"));
    const auto l1 = topo.add_subnet(pfx("10.0.1.0/31"));
    topo.attach(g, l1, ip("10.0.1.0"));
    topo.attach(r1, l1, ip("10.0.1.1"));
    const auto l2 = topo.add_subnet(pfx("10.0.2.0/31"));
    topo.attach(r1, l2, ip("10.0.2.0"));
    topo.attach(r2, l2, ip("10.0.2.1"));
  }

  // Creates the LAN under exploration on R2 (its address = `contra_addr`,
  // empty to omit) plus one stub member router per address in `member_addrs`.
  void make_lan(std::string_view prefix, std::string_view contra_addr,
                std::initializer_list<std::string_view> member_addrs) {
    lan = topo.add_subnet(pfx(prefix));
    if (!contra_addr.empty()) topo.attach(r2, lan, ip(contra_addr));
    for (const auto addr : member_addrs) {
      const auto node = topo.add_router("M" + std::string(addr));
      topo.attach(node, lan, ip(addr));
      members.push_back(node);
    }
  }

  // Runs positioning + exploration as the session would for a trace that
  // revealed `v` at hop `d`, with R2's chain interface as previous hop.
  ObservedSubnet explore(net::Ipv4Addr v, int d, ExplorerConfig config = {}) {
    const sim::Topology frozen = sim::TopologyBuilder(topo).build();
    sim::Network net(frozen);
    probe::SimProbeEngine wire(net, vantage);
    probe::CachingProbeEngine cached(wire);
    SubnetPositioner positioner(cached);
    const Position pos = positioner.position(ip("10.0.2.1"), v, d);
    SubnetExplorer explorer(cached, config);
    return explorer.explore(pos);
  }
};

std::vector<std::string> addr_strings(const ObservedSubnet& subnet) {
  std::vector<std::string> out;
  for (const auto a : subnet.members) out.push_back(a.to_string());
  return out;
}

TEST(Exploration, ExactSlash31PointToPoint) {
  LanScenario s;
  s.make_lan("192.168.0.0/31", "192.168.0.0", {"192.168.0.1"});
  const auto subnet = s.explore(ip("192.168.0.1"), 4);
  EXPECT_EQ(subnet.prefix, pfx("192.168.0.0/31"));
  EXPECT_EQ(addr_strings(subnet),
            (std::vector<std::string>{"192.168.0.0", "192.168.0.1"}));
  EXPECT_EQ(subnet.stop, StopReason::kUnderUtilized);
}

// The explorer's debug line streams its stop reason, so a disabled line
// formats nothing; enabled, it prints what it printed when it built the
// reason's string first.
TEST(Exploration, DebugLineNamesTheStopReason) {
  for (const StopReason reason :
       {StopReason::kShrink, StopReason::kUnderUtilized,
        StopReason::kPrefixFloor}) {
    std::ostringstream os;
    os << reason;
    EXPECT_EQ(os.str(), to_string(reason));
  }

  LanScenario s;
  s.make_lan("192.168.0.0/29", "192.168.0.1",
             {"192.168.0.2", "192.168.0.3", "192.168.0.4"});
  const util::LogLevel saved = util::log_level();
  util::set_log_level(util::LogLevel::kDebug);
  testing::internal::CaptureStderr();
  const auto subnet = s.explore(ip("192.168.0.2"), 4);
  const std::string logged = testing::internal::GetCapturedStderr();
  util::set_log_level(saved);
  EXPECT_NE(logged.find("[DEBUG] explore: pivot 192.168.0.2 -> "
                        "192.168.0.0/29 {192.168.0.1*, 192.168.0.2^, "
                        "192.168.0.3, 192.168.0.4} (under-utilized)\n"),
            std::string::npos)
      << logged;
  EXPECT_EQ(subnet.stop, StopReason::kUnderUtilized);
}

TEST(Exploration, ExactSlash30PointToPoint) {
  LanScenario s;
  s.make_lan("192.168.0.0/30", "192.168.0.1", {"192.168.0.2"});
  const auto subnet = s.explore(ip("192.168.0.2"), 4);
  EXPECT_EQ(subnet.prefix, pfx("192.168.0.0/30"));
  EXPECT_EQ(addr_strings(subnet),
            (std::vector<std::string>{"192.168.0.1", "192.168.0.2"}));
}

TEST(Exploration, ExactSlash29MultiAccess) {
  LanScenario s;
  s.make_lan("192.168.0.0/29", "192.168.0.1",
             {"192.168.0.2", "192.168.0.3", "192.168.0.4", "192.168.0.5",
              "192.168.0.6"});
  const auto subnet = s.explore(ip("192.168.0.4"), 4);
  EXPECT_EQ(subnet.prefix, pfx("192.168.0.0/29"));
  EXPECT_EQ(subnet.members.size(), 6u);
  ASSERT_TRUE(subnet.contra_pivot);
  EXPECT_EQ(*subnet.contra_pivot, ip("192.168.0.1"));
  EXPECT_EQ(subnet.stop, StopReason::kUnderUtilized);  // /28 level half-empty
}

TEST(Exploration, ContraPivotIsIngressRouterInterface) {
  LanScenario s;
  s.make_lan("192.168.0.0/29", "192.168.0.1",
             {"192.168.0.2", "192.168.0.3", "192.168.0.4"});
  const auto subnet = s.explore(ip("192.168.0.2"), 4);
  ASSERT_TRUE(subnet.contra_pivot);
  EXPECT_EQ(*subnet.contra_pivot, ip("192.168.0.1"));
  EXPECT_EQ(subnet.pivot, ip("192.168.0.2"));
  EXPECT_EQ(subnet.prefix, pfx("192.168.0.0/29"));
}

TEST(Exploration, SparseUtilizationUnderestimates) {
  // §3.8 / §4: a /28 with only a /30-worth of clustered live addresses is
  // collected as the observable /30.
  LanScenario s;
  s.make_lan("192.168.0.0/28", "192.168.0.1", {"192.168.0.2"});
  const auto subnet = s.explore(ip("192.168.0.2"), 4);
  EXPECT_EQ(subnet.prefix, pfx("192.168.0.0/30"));
  EXPECT_EQ(subnet.stop, StopReason::kUnderUtilized);
}

TEST(Exploration, H9EdgeWhenCoveringBroadcastIsMember) {
  // Pathological member set {.1, .2, .3} of a sparse /29: the minimal
  // covering /30 claims .3 (a legitimate /29 member) as its broadcast, so H9
  // splits and keeps the pivot half — the documented cost of H9's
  // conservatism on under-utilized subnets.
  LanScenario s;
  s.make_lan("192.168.0.0/29", "192.168.0.1", {"192.168.0.2", "192.168.0.3"});
  const auto subnet = s.explore(ip("192.168.0.2"), 4);
  EXPECT_EQ(subnet.prefix, pfx("192.168.0.2/31"));
  EXPECT_EQ(addr_strings(subnet),
            (std::vector<std::string>{"192.168.0.2", "192.168.0.3"}));
}

TEST(Exploration, PartiallyUnresponsiveSubnetUnderestimated) {
  // Live interfaces exist across the /28 but the far half is firewalled-dark:
  // growth stops at the utilization rule.
  LanScenario s;
  s.make_lan("192.168.0.0/28", "192.168.0.1",
             {"192.168.0.2", "192.168.0.3", "192.168.0.9", "192.168.0.10",
              "192.168.0.11"});
  for (const auto addr : {"192.168.0.9", "192.168.0.10", "192.168.0.11"})
    s.topo.interface_mut(*s.topo.find_interface(ip(addr))).responsive = false;
  const auto subnet = s.explore(ip("192.168.0.2"), 4);
  EXPECT_LT(subnet.members.size(), 6u);
  EXPECT_GT(subnet.prefix.length(), 28);
}

TEST(Exploration, H2CatchesFartherInterface) {
  // A /31 subnet one hop past a member router falls inside the growth range:
  // its far-side address answers TTL-exceeded at jh and must trigger H2.
  LanScenario s;
  s.make_lan("192.168.0.0/30", "192.168.0.1", {"192.168.0.2"});
  const auto south = s.topo.add_subnet(pfx("192.168.0.4/31"));
  const auto r9 = s.topo.add_router("R9");
  s.topo.attach(r9, south, ip("192.168.0.4"));   // dist 5, examined first
  s.topo.attach(s.members[0], south, ip("192.168.0.5"));
  const auto subnet = s.explore(ip("192.168.0.2"), 4);
  EXPECT_EQ(subnet.prefix, pfx("192.168.0.0/30"));
  EXPECT_EQ(subnet.stop, StopReason::kShrink);
  EXPECT_EQ(subnet.stopped_by, Heuristic::kH2UpperBoundSubnet);
}

TEST(Exploration, H3CatchesSecondContraPivot) {
  // A second ingress-router-like interface at jh-1 inside the growth range:
  // R8 hangs off R1 (hop 3, same as R2) and owns 192.168.0.5.
  LanScenario s;
  s.make_lan("192.168.0.0/30", "192.168.0.1", {"192.168.0.2"});
  const auto r8 = s.topo.add_router("R8");
  const auto link = s.topo.add_subnet(pfx("10.0.3.0/31"));
  s.topo.attach(s.r1, link, ip("10.0.3.0"));
  s.topo.attach(r8, link, ip("10.0.3.1"));
  const auto other = s.topo.add_subnet(pfx("192.168.0.4/30"));
  const auto r10 = s.topo.add_router("R10");
  s.topo.attach(r8, other, ip("192.168.0.5"));
  s.topo.attach(r10, other, ip("192.168.0.6"));

  const auto subnet = s.explore(ip("192.168.0.2"), 4);
  EXPECT_EQ(subnet.prefix, pfx("192.168.0.0/30"));
  EXPECT_EQ(subnet.stopped_by, Heuristic::kH3SingleContraPivot);
}

TEST(Exploration, H4CatchesInterfaceTwoHopsCloser) {
  // The true contra-pivot is dark, and an R1 interface (hop 2 = jh-2) lies
  // inside the growth range: it looks like a contra-pivot at jh-1 but also
  // answers at jh-2, which H4 refuses.
  LanScenario s;
  s.make_lan("192.168.0.8/30", "192.168.0.9", {"192.168.0.10"});
  s.topo.interface_mut(*s.topo.find_interface(ip("192.168.0.9"))).responsive =
      false;
  // The impostor must fall inside the /29 growth range around the pivot.
  const auto side = s.topo.add_subnet(pfx("192.168.0.12/30"));
  const auto r11 = s.topo.add_router("R11");
  s.topo.attach(s.r1, side, ip("192.168.0.13"));
  s.topo.attach(r11, side, ip("192.168.0.14"));

  const auto subnet = s.explore(ip("192.168.0.10"), 4);
  EXPECT_EQ(subnet.stopped_by, Heuristic::kH4LowerBoundSubnet);
  // Shrunk back before the /29 level that contained the impostor.
  EXPECT_GE(subnet.prefix.length(), 30);
}

TEST(Exploration, H6CatchesDifferentEntryPoint) {
  // A subnet at the same hop distance but entered through a different router
  // (R8 off R1). Its own ingress-side interface is dark so H3 cannot fire
  // first; the member behind it answers <l, jh-1> from R8, not from R2.
  LanScenario s;
  s.make_lan("192.168.0.0/30", "192.168.0.1", {"192.168.0.2"});
  const auto r8 = s.topo.add_router("R8");
  const auto link = s.topo.add_subnet(pfx("10.0.3.0/31"));
  s.topo.attach(s.r1, link, ip("10.0.3.0"));
  s.topo.attach(r8, link, ip("10.0.3.1"));
  const auto other = s.topo.add_subnet(pfx("192.168.0.4/30"));
  const auto r10 = s.topo.add_router("R10");
  const auto dark = s.topo.attach(r8, other, ip("192.168.0.5"));
  s.topo.attach(r10, other, ip("192.168.0.6"));
  s.topo.interface_mut(dark).responsive = false;

  const auto subnet = s.explore(ip("192.168.0.2"), 4);
  EXPECT_EQ(subnet.prefix, pfx("192.168.0.0/30"));
  EXPECT_EQ(subnet.stopped_by, Heuristic::kH6FixedEntryPoints);
}

TEST(Exploration, H6DisabledAdmitsForeignSubnet) {
  // Ablation: with H6 off the foreign member slips through (H7/H8 cannot see
  // it either: its mate is dark).
  LanScenario s;
  s.make_lan("192.168.0.0/30", "192.168.0.1", {"192.168.0.2"});
  const auto r8 = s.topo.add_router("R8");
  const auto link = s.topo.add_subnet(pfx("10.0.3.0/31"));
  s.topo.attach(s.r1, link, ip("10.0.3.0"));
  s.topo.attach(r8, link, ip("10.0.3.1"));
  const auto other = s.topo.add_subnet(pfx("192.168.0.4/30"));
  const auto r10 = s.topo.add_router("R10");
  const auto dark = s.topo.attach(r8, other, ip("192.168.0.5"));
  s.topo.attach(r10, other, ip("192.168.0.6"));
  s.topo.interface_mut(dark).responsive = false;

  ExplorerConfig config;
  config.h6_enabled = false;
  const auto subnet = s.explore(ip("192.168.0.2"), 4, config);
  // 192.168.0.6 was wrongly admitted -> overestimation.
  EXPECT_LT(subnet.prefix.length(), 30);
}

TEST(Exploration, H7CatchesFarFringe) {
  // A member router's interface on a subnet the ingress router has no direct
  // access to, numerically adjacent to the LAN: probing its mate expires one
  // hop early.
  LanScenario s;
  s.make_lan("192.168.0.0/30", "192.168.0.1", {"192.168.0.2"});
  const auto south = s.topo.add_subnet(pfx("192.168.0.4/31"));
  const auto r9 = s.topo.add_router("R9");
  s.topo.attach(s.members[0], south, ip("192.168.0.4"));  // far fringe (hop 4)
  s.topo.attach(r9, south, ip("192.168.0.5"));
  const auto subnet = s.explore(ip("192.168.0.2"), 4);
  EXPECT_EQ(subnet.prefix, pfx("192.168.0.0/30"));
  EXPECT_EQ(subnet.stopped_by, Heuristic::kH7UpperBoundRouter);
}

TEST(Exploration, H8CatchesCloseFringe) {
  // An interface on another LAN the ingress router *is* directly on, whose
  // mate-31 is the ingress router's own interface: alive at jh-1 -> H8.
  LanScenario s;
  s.make_lan("192.168.0.0/30", "192.168.0.1", {"192.168.0.2"});
  const auto close = s.topo.add_subnet(pfx("192.168.0.4/31"));
  const auto r7 = s.topo.add_router("R7");
  s.topo.attach(r7, close, ip("192.168.0.4"));   // close fringe (hop 4)
  s.topo.attach(s.r2, close, ip("192.168.0.5"));  // ingress-hosted mate
  const auto subnet = s.explore(ip("192.168.0.2"), 4);
  EXPECT_EQ(subnet.prefix, pfx("192.168.0.0/30"));
  EXPECT_EQ(subnet.stopped_by, Heuristic::kH8LowerBoundRouter);
}

TEST(Exploration, H9DropsBoundaryMembers) {
  // Only .8 and .10 of a true /28 respond; the observed covering /30 would
  // contain .8 as its network address, so H9 splits and keeps the pivot
  // half, leaving an unsubnetized /32.
  LanScenario s;
  s.make_lan("192.168.0.0/28", "", {"192.168.0.8", "192.168.0.10"});
  const auto subnet = s.explore(ip("192.168.0.10"), 4);
  EXPECT_EQ(subnet.prefix.length(), 32);
  EXPECT_TRUE(subnet.is_unsubnetized());
}

TEST(Exploration, OffPathSubnetExploredFromMatePivot) {
  // Figure 4 Sn: R3 (a member of the on-path LAN) reports its south-LAN
  // interface; positioning moves the pivot to the mate and exploration
  // sketches the south LAN.
  LanScenario s;
  s.make_lan("192.168.0.0/30", "192.168.0.1", {"192.168.0.2"});
  const auto south = s.topo.add_subnet(pfx("172.16.0.0/31"));
  const auto r9 = s.topo.add_router("R9");
  const auto south_if = s.topo.attach(s.members[0], south, ip("172.16.0.0"));
  s.topo.attach(r9, south, ip("172.16.0.1"));
  sim::ResponseConfig config;
  config.direct = sim::ResponsePolicy::kProbed;
  config.indirect = sim::ResponsePolicy::kDefault;
  config.default_interface = south_if;
  s.topo.set_response_config_all(s.members[0], config);

  // The trace at hop 4 reveals 172.16.0.0 (the default interface).
  const auto subnet = s.explore(ip("172.16.0.0"), 4);
  EXPECT_EQ(subnet.prefix, pfx("172.16.0.0/31"));
  EXPECT_EQ(subnet.pivot, ip("172.16.0.1"));
  EXPECT_EQ(subnet.pivot_distance, 5);
}

TEST(Exploration, UnsubnetizedWhenNeighborhoodDark) {
  // A pivot whose entire neighborhood is silent yields a /32.
  LanScenario s;
  s.make_lan("192.168.0.0/28", "", {"192.168.0.5"});
  const auto subnet = s.explore(ip("192.168.0.5"), 4);
  EXPECT_TRUE(subnet.is_unsubnetized());
  EXPECT_EQ(subnet.prefix.length(), 32);
  EXPECT_EQ(subnet.members.front(), ip("192.168.0.5"));
}

TEST(Exploration, PrefixFloorBoundsGrowth) {
  // With an artificially high floor the explorer must stop at it.
  LanScenario s;
  s.make_lan("192.168.0.0/29", "192.168.0.1",
             {"192.168.0.2", "192.168.0.3", "192.168.0.4", "192.168.0.5",
              "192.168.0.6"});
  ExplorerConfig config;
  config.min_prefix_length = 30;
  const auto subnet = s.explore(ip("192.168.0.4"), 4, config);
  EXPECT_EQ(subnet.stop, StopReason::kPrefixFloor);
  EXPECT_GE(subnet.prefix.length(), 30);
}

TEST(Exploration, ProbeBudgetModestForPointToPoint) {
  // §3.6: discovering an on-path point-to-point subnet costs a handful of
  // probes (the paper's model says 4 for exploration proper).
  LanScenario s;
  s.make_lan("192.168.0.0/31", "192.168.0.0", {"192.168.0.1"});
  const auto subnet = s.explore(ip("192.168.0.1"), 4);
  EXPECT_EQ(subnet.prefix, pfx("192.168.0.0/31"));
  // Exploration-only logical probes (positioning excluded by probes_used).
  EXPECT_LE(subnet.probes_used, 12u);
}

TEST(Exploration, ReportsOnTracePathFlag) {
  LanScenario s;
  s.make_lan("192.168.0.0/30", "192.168.0.1", {"192.168.0.2"});
  const auto subnet = s.explore(ip("192.168.0.2"), 4);
  EXPECT_TRUE(subnet.on_trace_path);
}

}  // namespace
}  // namespace tn::core
