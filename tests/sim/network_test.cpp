#include "sim/network.h"

#include <map>
#include <string>
#include <thread>
#include <vector>

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

// T threads each send the same N probe pairs at once, half of them one probe
// at a time and half in waves of two. The first probe of a pair expires
// behind a per-packet balancer with k equal-cost next hops; the second is
// delivered to a rate-limited router, reached through a single next hop so
// it takes no balancer turn. Turns and tokens must both be conserved: the
// balancer hands out exactly one turn per probe, and every probe that
// reaches the limited router is either answered or counted as rate limited.
TEST(NetworkConcurrency, BalancerTurnsAndLimiterTokensAreConserved) {
  constexpr int kThreads = 4;
  constexpr int kPairs = 300;
  constexpr int kNextHops = 3;

  TopologyBuilder b;
  const NodeId vantage = b.add_host("V");
  const NodeId balancer = b.add_router("R0");
  const NodeId last = b.add_router("L");
  const NodeId limited = b.add_router("M");
  const SubnetId lan_v = b.add_subnet(pfx("10.0.0.0/30"));
  b.attach(vantage, lan_v, ip("10.0.0.1"));
  b.attach(balancer, lan_v, ip("10.0.0.2"));
  b.set_per_packet_load_balancing(balancer, true);
  std::vector<net::Ipv4Addr> next_hops;
  for (int i = 0; i < kNextHops; ++i) {
    const NodeId hop = b.add_router("B" + std::to_string(i));
    const std::string in = "10.1." + std::to_string(i) + ".";
    const std::string out = "10.2." + std::to_string(i) + ".";
    const SubnetId first = b.add_subnet(pfx(in + "0/30"));
    b.attach(balancer, first, ip(in + "1"));
    b.attach(hop, first, ip(in + "2"));
    const SubnetId second = b.add_subnet(pfx(out + "0/30"));
    b.attach(hop, second, ip(out + "1"));
    b.attach(last, second, ip(out + "2"));
    next_hops.push_back(ip(in + "2"));
  }
  b.attach(last, b.add_subnet(pfx("10.3.0.0/24")), ip("10.3.0.1"));
  const SubnetId to_limited = b.add_subnet(pfx("10.4.0.0/30"));
  b.attach(balancer, to_limited, ip("10.4.0.1"));
  b.attach(limited, to_limited, ip("10.4.0.2"));
  b.attach(limited, b.add_subnet(pfx("10.5.0.0/30")), ip("10.5.0.1"));
  const Topology topo = std::move(b).build();

  Network net(topo);
  net.set_rate_limiter(limited, RateLimiter(100.0, 4.0));
  const Probe pair[2] = {indirect(ip("10.3.0.1"), 2),
                         indirect(ip("10.5.0.1"), 2)};

  std::vector<std::map<std::uint32_t, int>> answered(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int n = 0; n < kPairs; ++n) {
        std::vector<net::ProbeReply> replies;
        if (t % 2 == 0) {
          replies = {net.send_probe(vantage, pair[0]),
                     net.send_probe(vantage, pair[1])};
        } else {
          replies = net.send_probe_batch(vantage, pair);
        }
        for (const net::ProbeReply& reply : replies)
          if (!reply.is_none()) ++answered[t][reply.responder.value()];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::map<std::uint32_t, int> total;
  for (const auto& per_thread : answered)
    for (const auto& [responder, count] : per_thread)
      total[responder] += count;
  for (const net::Ipv4Addr hop : next_hops)
    EXPECT_EQ(total[hop.value()], kThreads * kPairs / kNextHops)
        << hop.to_string();

  const NetworkStats stats = net.stats();
  const int limited_replies = total[ip("10.5.0.1").value()];
  EXPECT_GT(limited_replies, 0);
  EXPECT_GT(stats.rate_limited, 0u);
  EXPECT_EQ(stats.rate_limited + static_cast<std::uint64_t>(limited_replies),
            static_cast<std::uint64_t>(kThreads * kPairs));
  EXPECT_EQ(stats.probes_injected,
            static_cast<std::uint64_t>(2 * kThreads * kPairs));
  EXPECT_EQ(stats.echo_replies + stats.ttl_exceeded + stats.unreachable +
                stats.tcp_resets + stats.silent,
            stats.probes_injected);
}

}  // namespace
}  // namespace tn::sim
