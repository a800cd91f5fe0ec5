#include "core/traceroute.h"

#include <gtest/gtest.h>

#include "probe/sim_engine.h"
#include "testutil.h"

namespace tn::core {
namespace {

using net::ProbeProtocol;
using net::ResponseType;
using test::ip;

// Each test builds its Network after any edit to the topology.
class TracerouteTest : public ::testing::Test {
 protected:
  test::Fig3Topology f;
};

TEST_F(TracerouteTest, CollectsFullPath) {
  sim::Network net(f.topo);
  probe::SimProbeEngine engine(net, f.vantage);
  Traceroute tracer(engine);
  const TracePath path = tracer.run(f.pivot4);
  ASSERT_EQ(path.hops.size(), 4u);
  EXPECT_TRUE(path.destination_reached);
  const auto addrs = path.responders();
  ASSERT_EQ(addrs.size(), 4u);
  EXPECT_EQ(addrs[0], ip("10.0.0.2"));
  EXPECT_EQ(addrs[1], ip("10.0.1.1"));
  EXPECT_EQ(addrs[2], ip("10.0.2.1"));
  EXPECT_EQ(addrs[3], f.pivot4);
}

TEST_F(TracerouteTest, AnonymousHopShownAsGap) {
  sim::ResponseConfig nil;
  nil.direct = sim::ResponsePolicy::kNil;
  nil.indirect = sim::ResponsePolicy::kNil;
  test::edit(f.topo, [&](sim::TopologyBuilder& b) {
    b.set_response_config_all(f.r1, nil);
  });
  sim::Network net(f.topo);
  probe::SimProbeEngine engine(net, f.vantage);
  Traceroute tracer(engine);
  const TracePath path = tracer.run(f.pivot4);
  ASSERT_EQ(path.hops.size(), 4u);
  EXPECT_TRUE(path.hops[1].anonymous());
  EXPECT_FALSE(path.hops[2].anonymous());
  EXPECT_TRUE(path.destination_reached);
}

TEST_F(TracerouteTest, AbandonsAfterAnonymousGapLimit) {
  sim::Network net(f.topo);
  probe::SimProbeEngine engine(net, f.vantage);
  Traceroute tracer(engine);
  // Unassigned address inside S: the trace walks to R2 then goes dark.
  const TracePath path = tracer.run(ip("192.168.1.9"));
  EXPECT_FALSE(path.destination_reached);
  // 3 real hops + kAnonymousGapLimit anonymous ones
  EXPECT_EQ(path.hops.size(), 3u + kAnonymousGapLimit);
}

TEST_F(TracerouteTest, MaxTtlBoundsThePath) {
  sim::Network net(f.topo);
  probe::SimProbeEngine engine(net, f.vantage);
  TracerouteConfig config;
  config.max_ttl = 2;
  Traceroute tracer(engine, config);
  const TracePath path = tracer.run(f.pivot4);
  EXPECT_FALSE(path.destination_reached);
  EXPECT_EQ(path.hops.size(), 2u);
}

TEST_F(TracerouteTest, DestinationReachedViaOtherInterface) {
  // R4 replies to direct probes with its shortest-path interface: the trace
  // terminates even though the responder address differs from the target.
  sim::ResponseConfig config;
  config.direct = sim::ResponsePolicy::kShortestPath;
  config.indirect = sim::ResponsePolicy::kIncoming;
  test::edit(f.topo, [&](sim::TopologyBuilder& b) {
    b.set_response_config_all(f.r4, config);
  });
  sim::Network net(f.topo);
  probe::SimProbeEngine engine(net, f.vantage);
  Traceroute tracer(engine);
  const TracePath path = tracer.run(f.far_fringe);  // R4's far-LAN address
  EXPECT_TRUE(path.destination_reached);
  ASSERT_FALSE(path.hops.empty());
  EXPECT_EQ(path.hops.back().reply.responder, f.pivot4);  // toward vantage
}

TEST_F(TracerouteTest, UdpTraceUsesPortUnreachableTermination) {
  sim::Network net(f.topo);
  probe::SimProbeEngine engine(net, f.vantage);
  Prober prober(engine);
  prober.protocol = ProbeProtocol::kUdp;
  Traceroute tracer(prober);
  const TracePath path = tracer.run(f.pivot4);
  EXPECT_TRUE(path.destination_reached);
  EXPECT_EQ(path.hops.back().reply.type, ResponseType::kPortUnreachable);
}

TEST_F(TracerouteTest, RespondersSkipAnonymous) {
  TracePath path;
  path.hops.push_back(TraceHop{1, net::ProbeReply{ResponseType::kTtlExceeded,
                                                  ip("10.0.0.2")}});
  path.hops.push_back(TraceHop{2, net::ProbeReply::none()});
  path.hops.push_back(TraceHop{3, net::ProbeReply{ResponseType::kTtlExceeded,
                                                  ip("10.0.2.1")}});
  EXPECT_EQ(path.responders().size(), 2u);
}

TEST_F(TracerouteTest, ToStringRendersStars) {
  sim::ResponseConfig nil;
  nil.direct = sim::ResponsePolicy::kNil;
  nil.indirect = sim::ResponsePolicy::kNil;
  test::edit(f.topo, [&](sim::TopologyBuilder& b) {
    b.set_response_config_all(f.r1, nil);
  });
  sim::Network net(f.topo);
  probe::SimProbeEngine engine(net, f.vantage);
  Traceroute tracer(engine);
  const auto text = tracer.run(f.pivot4).to_string();
  EXPECT_NE(text.find("*"), std::string::npos);
  EXPECT_NE(text.find("10.0.0.2"), std::string::npos);
}

}  // namespace
}  // namespace tn::core
