#include "sim/network.h"

#include <gtest/gtest.h>

#include "testutil.h"

namespace tn::sim {
namespace {

using net::Probe;
using net::ProbeProtocol;
using net::ResponseType;
using test::ip;
using test::pfx;

Probe direct(net::Ipv4Addr target) {
  Probe p;
  p.target = target;
  p.ttl = net::kDirectProbeTtl;
  return p;
}

Probe indirect(net::Ipv4Addr target, std::uint8_t ttl) {
  Probe p;
  p.target = target;
  p.ttl = ttl;
  return p;
}

class NetworkTest : public ::testing::Test {
 protected:
  test::Fig3Topology f;
};

TEST_F(NetworkTest, DirectProbeToAliveAddressEchoes) {
  Network net(f.topo);
  const auto reply = net.send_probe(f.vantage, direct(f.pivot4));
  EXPECT_EQ(reply.type, ResponseType::kEchoReply);
  EXPECT_EQ(reply.responder, f.pivot4);  // probed-interface policy
}

TEST_F(NetworkTest, DirectProbeToUnassignedAddressSilent) {
  Network net(f.topo);
  const auto reply = net.send_probe(f.vantage, direct(ip("192.168.1.9")));
  EXPECT_TRUE(reply.is_none());
}

TEST_F(NetworkTest, DirectProbeToUnroutableAddressSilent) {
  Network net(f.topo);
  EXPECT_TRUE(net.send_probe(f.vantage, direct(ip("203.0.113.7"))).is_none());
}

TEST_F(NetworkTest, TracerouteStyleTtlLadder) {
  Network net(f.topo);
  // TTL 1..3 expire at G, R1, R2; TTL 4 reaches the pivot (delivery).
  const auto h1 = net.send_probe(f.vantage, indirect(f.pivot4, 1));
  const auto h2 = net.send_probe(f.vantage, indirect(f.pivot4, 2));
  const auto h3 = net.send_probe(f.vantage, indirect(f.pivot4, 3));
  const auto h4 = net.send_probe(f.vantage, indirect(f.pivot4, 4));
  EXPECT_EQ(h1.type, ResponseType::kTtlExceeded);
  EXPECT_EQ(h1.responder, ip("10.0.0.2"));  // G's incoming interface
  EXPECT_EQ(h2.type, ResponseType::kTtlExceeded);
  EXPECT_EQ(h2.responder, ip("10.0.1.1"));  // R1's incoming interface
  EXPECT_EQ(h3.type, ResponseType::kTtlExceeded);
  EXPECT_EQ(h3.responder, ip("10.0.2.1"));  // R2's incoming interface
  EXPECT_EQ(h4.type, ResponseType::kEchoReply);
  EXPECT_EQ(h4.responder, f.pivot4);
}

TEST_F(NetworkTest, DeliveryWinsOverExpiryAtSameRouter) {
  Network net(f.topo);
  // TTL 3 destined to R2's own address: delivered, not expired.
  const auto reply = net.send_probe(f.vantage, indirect(f.contra, 3));
  EXPECT_EQ(reply.type, ResponseType::kEchoReply);
  EXPECT_EQ(reply.responder, f.contra);
  // TTL 2 destined to R2: expires at R1.
  const auto expired = net.send_probe(f.vantage, indirect(f.contra, 2));
  EXPECT_EQ(expired.type, ResponseType::kTtlExceeded);
  EXPECT_EQ(expired.responder, ip("10.0.1.1"));
}

TEST_F(NetworkTest, ContraPivotOneHopCloserThanPivot) {
  Network net(f.topo);
  // §3.2(iii) unit subnet diameter: contra-pivot (R2.w) answers direct
  // probes at TTL 3, pivot interfaces at TTL 4.
  EXPECT_EQ(net.send_probe(f.vantage, indirect(f.contra, 3)).type,
            ResponseType::kEchoReply);
  EXPECT_EQ(net.send_probe(f.vantage, indirect(f.pivot3, 3)).type,
            ResponseType::kTtlExceeded);
  EXPECT_EQ(net.send_probe(f.vantage, indirect(f.pivot3, 4)).type,
            ResponseType::kEchoReply);
}

TEST_F(NetworkTest, TtlExpiryOnLanForwarding) {
  Network net(f.topo);
  // Probe to pivot with TTL 3 must expire at R2 even though R2 is attached
  // to the target LAN (it still has to forward onto it).
  const auto reply = net.send_probe(f.vantage, indirect(f.pivot3, 3));
  EXPECT_EQ(reply.type, ResponseType::kTtlExceeded);
  EXPECT_EQ(reply.responder, ip("10.0.2.1"));
}

TEST_F(NetworkTest, NilRouterIsAnonymous) {
  ResponseConfig nil;
  nil.direct = ResponsePolicy::kNil;
  nil.indirect = ResponsePolicy::kNil;
  test::edit(f.topo, [&](TopologyBuilder& b) {
    b.set_response_config_all(f.r1, nil);
  });
  Network net(f.topo);
  // Hop 2 goes dark, later hops unaffected.
  EXPECT_TRUE(net.send_probe(f.vantage, indirect(f.pivot4, 2)).is_none());
  EXPECT_EQ(net.send_probe(f.vantage, indirect(f.pivot4, 3)).type,
            ResponseType::kTtlExceeded);
}

TEST_F(NetworkTest, ShortestPathPolicyReportsReturnInterface) {
  ResponseConfig config;
  config.direct = ResponsePolicy::kProbed;
  config.indirect = ResponsePolicy::kShortestPath;
  test::edit(f.topo, [&](TopologyBuilder& b) {
    b.set_response_config(f.r2, ProbeProtocol::kIcmp, config);
  });
  Network net(f.topo);
  const auto reply = net.send_probe(f.vantage, indirect(f.pivot4, 3));
  EXPECT_EQ(reply.type, ResponseType::kTtlExceeded);
  EXPECT_EQ(reply.responder, ip("10.0.2.1"));  // toward the vantage
}

TEST_F(NetworkTest, DefaultPolicyReportsFixedAddress) {
  const auto default_iface = *f.topo.interface_on(f.r2, f.close_lan);
  ResponseConfig config;
  config.direct = ResponsePolicy::kProbed;
  config.indirect = ResponsePolicy::kDefault;
  config.default_interface = default_iface;
  test::edit(f.topo, [&](TopologyBuilder& b) {
    b.set_response_config(f.r2, ProbeProtocol::kIcmp, config);
  });
  Network net(f.topo);
  const auto reply = net.send_probe(f.vantage, indirect(f.pivot4, 3));
  EXPECT_EQ(reply.responder, ip("10.0.3.1"));
}

TEST_F(NetworkTest, UnresponsiveInterfaceStaysSilentButForwards) {
  const auto iface = *f.topo.find_interface(f.pivot4);
  test::edit(f.topo, [&](TopologyBuilder& b) {
    b.interface_mut(iface).responsive = false;
  });
  Network net(f.topo);
  // Direct probe to the dark interface: silence.
  EXPECT_TRUE(net.send_probe(f.vantage, direct(f.pivot4)).is_none());
  // R4 still forwards toward the far LAN and reports TTL expiry.
  EXPECT_EQ(net.send_probe(f.vantage, indirect(ip("10.0.4.2"), 4)).type,
            ResponseType::kTtlExceeded);
}

TEST_F(NetworkTest, FirewalledSubnetIsDark) {
  test::edit(f.topo,
             [&](TopologyBuilder& b) { b.subnet_mut(f.s).firewalled = true; });
  Network net(f.topo);
  // Everything inside the prefix is dark, including the ingress router's own
  // interface on it.
  EXPECT_TRUE(net.send_probe(f.vantage, direct(f.pivot3)).is_none());
  EXPECT_TRUE(net.send_probe(f.vantage, direct(f.contra)).is_none());
  // Hops before the subnet still respond.
  EXPECT_EQ(net.send_probe(f.vantage, indirect(f.pivot3, 2)).type,
            ResponseType::kTtlExceeded);
  // R2 reached via its other (non-firewalled) interface still responds.
  EXPECT_EQ(net.send_probe(f.vantage, direct(ip("10.0.2.1"))).type,
            ResponseType::kEchoReply);
}

TEST_F(NetworkTest, ArpFailureCanEmitHostUnreachable) {
  test::edit(f.topo, [&](TopologyBuilder& b) {
    b.subnet_mut(f.s).arp_fail = ArpFailBehavior::kHostUnreachable;
  });
  Network net(f.topo);
  const auto reply = net.send_probe(f.vantage, direct(ip("192.168.1.9")));
  EXPECT_EQ(reply.type, ResponseType::kHostUnreachable);
  EXPECT_EQ(reply.responder, ip("10.0.2.1"));  // R2, incoming-interface policy
}

TEST_F(NetworkTest, UdpAndTcpDirectReplies) {
  Network net(f.topo);
  Probe udp = direct(f.pivot3);
  udp.protocol = ProbeProtocol::kUdp;
  EXPECT_EQ(net.send_probe(f.vantage, udp).type, ResponseType::kPortUnreachable);
  Probe tcp = direct(f.pivot3);
  tcp.protocol = ProbeProtocol::kTcp;
  EXPECT_EQ(net.send_probe(f.vantage, tcp).type, ResponseType::kTcpReset);
}

TEST_F(NetworkTest, ProtocolSpecificNilConfig) {
  ResponseConfig nil;
  nil.direct = ResponsePolicy::kNil;
  nil.indirect = ResponsePolicy::kNil;
  test::edit(f.topo, [&](TopologyBuilder& b) {
    b.set_response_config(f.r3, ProbeProtocol::kUdp, nil);
  });
  Network net(f.topo);
  Probe udp = direct(f.pivot3);
  udp.protocol = ProbeProtocol::kUdp;
  EXPECT_TRUE(net.send_probe(f.vantage, udp).is_none());
  EXPECT_EQ(net.send_probe(f.vantage, direct(f.pivot3)).type,
            ResponseType::kEchoReply);
}

TEST_F(NetworkTest, HostsDoNotForward) {
  // Attach a second host on the vantage LAN is impossible (/30 full); build
  // a probe that would need to transit the vantage host instead: from R5,
  // nothing routes through hosts, so probing the vantage address works but
  // probing "past" it cannot occur. Here we check a host target replies.
  Network net(f.topo);
  const auto reply = net.send_probe(f.r5, direct(ip("10.0.0.1")));
  EXPECT_EQ(reply.type, ResponseType::kEchoReply);
  EXPECT_EQ(reply.responder, ip("10.0.0.1"));
}

TEST_F(NetworkTest, RateLimiterSuppressesExcessReplies) {
  NetworkConfig config;
  config.inter_probe_gap_us = 1000;  // 1 ms per probe
  Network net(f.topo, config);
  // 100 responses/s sustained, burst 2: at 1000 probes/s most are dropped.
  net.set_rate_limiter(f.r3, RateLimiter(100.0, 2.0));
  int answered = 0;
  for (int i = 0; i < 50; ++i)
    answered += !net.send_probe(f.vantage, direct(f.pivot3)).is_none();
  EXPECT_GT(answered, 2);   // refill admits roughly one in ten
  EXPECT_LT(answered, 15);
  EXPECT_GT(net.stats().rate_limited, 0u);
}

TEST_F(NetworkTest, StatsAreCounted) {
  Network net(f.topo);
  net.send_probe(f.vantage, direct(f.pivot3));            // echo
  net.send_probe(f.vantage, indirect(f.pivot3, 1));       // ttl exceeded
  net.send_probe(f.vantage, direct(ip("192.168.1.9")));   // silent
  const auto& stats = net.stats();
  EXPECT_EQ(stats.probes_injected, 3u);
  EXPECT_EQ(stats.echo_replies, 1u);
  EXPECT_EQ(stats.ttl_exceeded, 1u);
  EXPECT_EQ(stats.silent, 1u);
}

TEST_F(NetworkTest, ZeroTtlNeverLeavesFirstRouter) {
  Network net(f.topo);
  const auto reply = net.send_probe(f.vantage, indirect(f.pivot3, 0));
  // TTL 0 expires at the first forwarding router.
  EXPECT_EQ(reply.type, ResponseType::kTtlExceeded);
  EXPECT_EQ(reply.responder, ip("10.0.0.2"));
}

}  // namespace
}  // namespace tn::sim
