#include "core/positioning.h"

#include <gtest/gtest.h>

#include "probe/sim_engine.h"
#include "testutil.h"

namespace tn::core {
namespace {

using test::ip;
using test::pfx;

class PositioningTest : public ::testing::Test {
 protected:
  test::Fig3Topology f;
};

TEST_F(PositioningTest, DirectDistanceExact) {
  sim::Network net(f.topo);
  probe::SimProbeEngine engine(net, f.vantage);
  SubnetPositioner positioner(engine);
  EXPECT_EQ(positioner.direct_distance(f.pivot4, 4), 4);
  EXPECT_EQ(positioner.direct_distance(f.contra, 3), 3);
}

TEST_F(PositioningTest, DirectDistanceSearchesBothWays) {
  sim::Network net(f.topo);
  probe::SimProbeEngine engine(net, f.vantage);
  SubnetPositioner positioner(engine);
  // Hint too low: forward search.
  EXPECT_EQ(positioner.direct_distance(f.pivot4, 2), 4);
  // Hint too high: backward search.
  EXPECT_EQ(positioner.direct_distance(f.contra, 5), 3);
}

TEST_F(PositioningTest, DirectDistanceSilentAddress) {
  sim::Network net(f.topo);
  probe::SimProbeEngine engine(net, f.vantage);
  SubnetPositioner positioner(engine);
  EXPECT_FALSE(positioner.direct_distance(ip("192.168.1.9"), 4));
}

TEST_F(PositioningTest, OnPathPivotIsTheTraceInterface) {
  sim::Network net(f.topo);
  probe::SimProbeEngine engine(net, f.vantage);
  SubnetPositioner positioner(engine);
  // Trace toward pivot4 yields u = R2's 10.0.2.1 at hop 3, v = pivot4 at 4.
  const Position pos = positioner.position(ip("10.0.2.1"), f.pivot4, 4);
  EXPECT_TRUE(pos.on_trace_path);
  EXPECT_EQ(pos.pivot, f.pivot4);
  EXPECT_EQ(pos.pivot_distance, 4);
  ASSERT_TRUE(pos.ingress);
  EXPECT_EQ(*pos.ingress, ip("10.0.2.1"));
  EXPECT_EQ(pos.trace_entry, ip("10.0.2.1"));
}

TEST_F(PositioningTest, DistanceMismatchMeansOffPath) {
  sim::Network net(f.topo);
  probe::SimProbeEngine engine(net, f.vantage);
  SubnetPositioner positioner(engine);
  // The contra address really sits at hop 3; telling the positioner it was
  // obtained at hop 4 (a fluctuated trace) must flag off-path.
  const Position pos = positioner.position(ip("10.0.2.1"), f.contra, 4);
  EXPECT_FALSE(pos.on_trace_path);
}

TEST_F(PositioningTest, EntryMismatchMeansOffPathProbabilistically) {
  sim::Network net(f.topo);
  probe::SimProbeEngine engine(net, f.vantage);
  SubnetPositioner positioner(engine);
  // Claim the previous hop was some other router: the <v, vh-1> probe will
  // answer from R2, not the claimed address.
  const Position pos = positioner.position(ip("10.0.3.2"), f.pivot4, 4);
  EXPECT_FALSE(pos.on_trace_path);
}

TEST_F(PositioningTest, AnonymousPreviousHopAssumesOnPath) {
  sim::Network net(f.topo);
  probe::SimProbeEngine engine(net, f.vantage);
  SubnetPositioner positioner(engine);
  const Position pos = positioner.position(std::nullopt, f.pivot4, 4);
  EXPECT_TRUE(pos.on_trace_path);
}

TEST_F(PositioningTest, PivotMovesToMateWhenRouterReportsNearSideInterface) {
  // The paper's Figure 4 "Sn" scenario: the hop-d router reports an
  // interface on a subnet hanging *below* it (here via the default-interface
  // policy); the true pivot is that interface's mate, one hop deeper.
  test::edit(f.topo, [&](sim::TopologyBuilder& b) {
    const auto south = b.add_subnet(pfx("10.0.5.0/31"));
    const auto r9 = b.add_router("R9");
    const auto south_if = b.attach(f.r3, south, ip("10.0.5.0"));
    b.attach(r9, south, ip("10.0.5.1"));

    sim::ResponseConfig config;
    config.direct = sim::ResponsePolicy::kProbed;
    config.indirect = sim::ResponsePolicy::kDefault;
    config.default_interface = south_if;
    b.set_response_config_all(f.r3, config);
  });

  sim::Network net(f.topo);
  probe::SimProbeEngine engine(net, f.vantage);
  SubnetPositioner positioner(engine);
  // A trace through R3 at hop 4 would reveal v = 10.0.5.0.
  const Position pos = positioner.position(ip("10.0.2.1"), ip("10.0.5.0"), 4);
  EXPECT_EQ(pos.pivot, ip("10.0.5.1"));  // the mate-31, on R9
  EXPECT_EQ(pos.pivot_distance, 5);
  ASSERT_TRUE(pos.ingress);
  EXPECT_EQ(*pos.ingress, ip("10.0.5.0"));  // R3's incoming interface
}

TEST_F(PositioningTest, PivotFallsBackToMate30) {
  // Same scenario but on a /30 LAN numbered so that v's /31 mate is the
  // unassigned boundary and the /30 mate is the live far side.
  test::edit(f.topo, [&](sim::TopologyBuilder& b) {
    const auto south = b.add_subnet(pfx("10.0.6.0/30"));
    const auto r9 = b.add_router("R9b");
    const auto south_if = b.attach(f.r3, south, ip("10.0.6.1"));
    b.attach(r9, south, ip("10.0.6.2"));

    sim::ResponseConfig config;
    config.direct = sim::ResponsePolicy::kProbed;
    config.indirect = sim::ResponsePolicy::kDefault;
    config.default_interface = south_if;
    b.set_response_config_all(f.r3, config);
  });

  sim::Network net(f.topo);
  probe::SimProbeEngine engine(net, f.vantage);
  SubnetPositioner positioner(engine);
  const Position pos = positioner.position(ip("10.0.2.1"), ip("10.0.6.1"), 4);
  EXPECT_EQ(pos.pivot, ip("10.0.6.2"));  // mate-30 (mate-31 is 10.0.6.0)
  EXPECT_EQ(pos.pivot_distance, 5);
}

TEST_F(PositioningTest, AnonymousIngressLeavesFieldEmpty) {
  sim::ResponseConfig nil;
  nil.direct = sim::ResponsePolicy::kProbed;
  nil.indirect = sim::ResponsePolicy::kNil;
  test::edit(f.topo, [&](sim::TopologyBuilder& b) {
    b.set_response_config_all(f.r2, nil);
  });
  sim::Network net(f.topo);
  probe::SimProbeEngine engine(net, f.vantage);
  SubnetPositioner positioner(engine);
  const Position pos = positioner.position(std::nullopt, f.pivot4, 4);
  EXPECT_EQ(pos.pivot, f.pivot4);
  EXPECT_FALSE(pos.ingress);
}

}  // namespace
}  // namespace tn::core
