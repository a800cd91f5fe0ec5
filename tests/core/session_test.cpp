#include "core/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/multipath.h"
#include "probe/sim_engine.h"
#include "testutil.h"
#include "topo/reference.h"
#include "util/log.h"

namespace tn::core {
namespace {

using test::ip;
using test::pfx;

class SessionTest : public ::testing::Test {
 protected:
  test::Fig3Topology f;
};

// Keeps every probe that reaches the wire and the size of the largest wave.
class RecordingEngine final : public probe::ProbeEngine {
 public:
  explicit RecordingEngine(probe::ProbeEngine& inner) noexcept
      : inner_(inner) {}

  std::vector<net::Probe> probes;
  std::size_t largest_wave = 0;

 private:
  net::ProbeReply do_probe(const net::Probe& request) override {
    probes.push_back(request);
    largest_wave = std::max<std::size_t>(largest_wave, 1);
    return inner_.probe(request);
  }

  std::vector<net::ProbeReply> do_probe_batch(
      std::span<const net::Probe> requests) override {
    probes.insert(probes.end(), requests.begin(), requests.end());
    largest_wave = std::max(largest_wave, requests.size());
    return inner_.probe_batch(requests);
  }

  probe::ProbeEngine& inner_;
};

// Recorded probes whose protocol or epoch differ from the given ones, or,
// when `flow_id` is set, whose flow differs.
std::size_t strays(const RecordingEngine& wire, net::ProbeProtocol protocol,
                   std::uint8_t epoch,
                   std::optional<std::uint16_t> flow_id = std::nullopt) {
  return static_cast<std::size_t>(std::count_if(
      wire.probes.begin(), wire.probes.end(), [&](const net::Probe& probe) {
        return probe.protocol != protocol || probe.epoch != epoch ||
               (flow_id && probe.flow_id != *flow_id);
      }));
}

TEST_F(SessionTest, CollectsSubnetAtEveryHop) {
  sim::Network net(f.topo);
  probe::SimProbeEngine wire(net, f.vantage);
  TracenetSession session(wire);
  const SessionResult result = session.run(f.pivot4);

  EXPECT_TRUE(result.path.destination_reached);
  ASSERT_EQ(result.path.hops.size(), 4u);
  // One subnet per hop: vantage LAN, G-R1 link, R1-R2 link, S.
  ASSERT_EQ(result.subnets.size(), 4u);
  EXPECT_EQ(result.subnets[1].prefix, pfx("10.0.1.0/31"));
  EXPECT_EQ(result.subnets[2].prefix, pfx("10.0.2.0/31"));
  // S = 192.168.1.0/28 utilized at 4/16 -> observable /29.
  EXPECT_EQ(result.subnets[3].prefix, pfx("192.168.1.0/29"));
  EXPECT_EQ(result.subnets[3].members.size(), 4u);
  ASSERT_TRUE(result.subnets[3].contra_pivot);
  EXPECT_EQ(*result.subnets[3].contra_pivot, f.contra);
}

TEST_F(SessionTest, DiscoversAddressesTracerouteMisses) {
  sim::Network net(f.topo);
  probe::SimProbeEngine wire(net, f.vantage);
  TracenetSession session(wire);
  const SessionResult result = session.run(f.pivot4);

  // The headline claim (Figure 1): tracenet reveals subnet members that a
  // single traceroute cannot.
  std::set<net::Ipv4Addr> collected;
  for (const auto& subnet : result.subnets)
    collected.insert(subnet.members.begin(), subnet.members.end());
  const auto trace_addrs = result.path.responders();
  EXPECT_GT(collected.size(), trace_addrs.size());
  EXPECT_TRUE(collected.contains(f.pivot3));   // never on the trace
  EXPECT_TRUE(collected.contains(f.pivot6));
  EXPECT_TRUE(collected.contains(f.contra));
}

TEST_F(SessionTest, SkipsHopsCoveredByEarlierSubnet) {
  sim::Network net(f.topo);
  probe::SimProbeEngine wire(net, f.vantage);
  TracenetSession session(wire);
  // Trace to R4's far-LAN address: the path crosses S at hop 4 (pivot4) and
  // ends at 10.0.4.1 (hop 4's router, same subnet exploration at hop 5?).
  const SessionResult to_far = session.run(ip("10.0.4.2"));
  // No subnet may appear twice.
  std::set<std::string> prefixes;
  for (const auto& subnet : to_far.subnets)
    EXPECT_TRUE(prefixes.insert(subnet.prefix.to_string()).second)
        << subnet.prefix.to_string();
}

TEST_F(SessionTest, AnonymousHopYieldsNoSubnet) {
  sim::ResponseConfig nil;
  nil.direct = sim::ResponsePolicy::kNil;
  nil.indirect = sim::ResponsePolicy::kNil;
  test::edit(f.topo, [&](sim::TopologyBuilder& b) {
    b.set_response_config_all(f.r1, nil);
  });
  sim::Network net(f.topo);
  probe::SimProbeEngine wire(net, f.vantage);
  TracenetSession session(wire);
  const SessionResult result = session.run(f.pivot4);
  EXPECT_TRUE(result.path.destination_reached);
  // Hop 2 is anonymous: its subnet (10.0.1.0/31) cannot be explored; the
  // others still are. The R1-R2 link may still surface via hop 3.
  for (const auto& subnet : result.subnets)
    EXPECT_NE(subnet.prefix, pfx("10.0.1.0/31"));
}

TEST_F(SessionTest, FirewalledSubnetIsMissedEntirely) {
  test::edit(f.topo, [&](sim::TopologyBuilder& b) {
    b.subnet_mut(f.s).firewalled = true;
  });
  sim::Network net(f.topo);
  probe::SimProbeEngine wire(net, f.vantage);
  TracenetSession session(wire);
  const SessionResult result = session.run(f.pivot4);
  EXPECT_FALSE(result.path.destination_reached);
  for (const auto& subnet : result.subnets)
    EXPECT_FALSE(subnet.prefix.contains(f.pivot4));
}

TEST_F(SessionTest, WireProbeAccounting) {
  sim::Network net(f.topo);
  probe::SimProbeEngine wire(net, f.vantage);
  TracenetSession session(wire);
  const SessionResult result = session.run(f.pivot4);
  EXPECT_EQ(result.wire_probes, wire.probes_issued());
  EXPECT_EQ(result.wire_probes, net.stats().probes_injected);
  EXPECT_GT(result.wire_probes, result.path.hops.size());
}

TEST_F(SessionTest, CacheReducesWireProbes) {
  sim::Network net_cached(f.topo);
  sim::Network net_plain(f.topo);
  probe::SimProbeEngine wire_cached(net_cached, f.vantage);
  probe::SimProbeEngine wire_plain(net_plain, f.vantage);

  SessionConfig with_cache;
  with_cache.use_probe_cache = true;
  SessionConfig without_cache;
  without_cache.use_probe_cache = false;

  const auto r1 = TracenetSession(wire_cached, with_cache).run(f.pivot4);
  const auto r2 = TracenetSession(wire_plain, without_cache).run(f.pivot4);
  // Same subnets either way...
  ASSERT_EQ(r1.subnets.size(), r2.subnets.size());
  for (std::size_t i = 0; i < r1.subnets.size(); ++i)
    EXPECT_EQ(r1.subnets[i].prefix, r2.subnets[i].prefix);
  // ...but strictly fewer packets on the wire with the cache.
  EXPECT_LT(r1.wire_probes, r2.wire_probes);
}

TEST_F(SessionTest, UdpSessionWorksWhenRoutersAnswerUdp) {
  sim::Network net(f.topo);
  probe::SimProbeEngine wire(net, f.vantage);
  SessionConfig config;
  config.protocol = net::ProbeProtocol::kUdp;
  TracenetSession session(wire, config);
  const SessionResult result = session.run(f.pivot4);
  EXPECT_TRUE(result.path.destination_reached);
  EXPECT_FALSE(result.subnets.empty());
}

TEST_F(SessionTest, UdpNilRoutersShrinkTheHarvest) {
  // Routers that ignore UDP (the Table 3 situation): same trace, fewer
  // subnets than ICMP.
  sim::ResponseConfig udp_nil;
  udp_nil.direct = sim::ResponsePolicy::kNil;
  udp_nil.indirect = sim::ResponsePolicy::kNil;
  test::edit(f.topo, [&](sim::TopologyBuilder& b) {
    for (const auto node : {f.r2, f.r3, f.r6})
      b.set_response_config(node, net::ProbeProtocol::kUdp, udp_nil);
  });

  sim::Network net(f.topo);
  probe::SimProbeEngine wire(net, f.vantage);
  SessionConfig udp;
  udp.protocol = net::ProbeProtocol::kUdp;
  const auto udp_result = TracenetSession(wire, udp).run(f.pivot4);

  sim::Network net2(f.topo);
  probe::SimProbeEngine wire2(net2, f.vantage);
  const auto icmp_result = TracenetSession(wire2).run(f.pivot4);

  auto member_count = [](const SessionResult& r) {
    std::size_t n = 0;
    for (const auto& subnet : r.subnets) n += subnet.members.size();
    return n;
  };
  EXPECT_LT(member_count(udp_result), member_count(icmp_result));
}

TEST_F(SessionTest, SessionResultRendering) {
  sim::Network net(f.topo);
  probe::SimProbeEngine wire(net, f.vantage);
  TracenetSession session(wire);
  const auto text = session.run(f.pivot4).to_string();
  EXPECT_NE(text.find("tracenet to"), std::string::npos);
  EXPECT_NE(text.find("192.168.1"), std::string::npos);
  EXPECT_NE(text.find("^"), std::string::npos);  // pivot marker
}

// Log lines stream subnets instead of to_string() results, so an enabled
// line must stay byte-identical: operator<< prints exactly to_string(),
// pivot and contra-pivot marks included.
TEST_F(SessionTest, ObservedSubnetStreamsExactlyToString) {
  sim::Network net(f.topo);
  probe::SimProbeEngine wire(net, f.vantage);
  TracenetSession session(wire);
  const SessionResult result = session.run(f.pivot4);
  ASSERT_FALSE(result.subnets.empty());
  bool contra_marked = false;
  for (const ObservedSubnet& subnet : result.subnets) {
    std::ostringstream os;
    os << "pivot " << subnet.pivot << " -> " << subnet << " (";
    EXPECT_EQ(os.str(), "pivot " + subnet.pivot.to_string() + " -> " +
                            subnet.to_string() + " (");
    contra_marked |= subnet.to_string().find('*') != std::string::npos;
  }
  EXPECT_TRUE(contra_marked);
}

TEST_F(SessionTest, EveryProbeCarriesTheSessionIdentity) {
  // The golden pins all probe ICMP, flow 0 and epoch 0: the defaults, so a
  // send path that dropped a field would still send the expected value. Here
  // every field differs from its default, on the serial path, on the
  // fixed-window TTL waves and prescans, and on the adaptive ones.
  const topo::ReferenceTopology ref = topo::internet2_like(42);
  const std::vector<net::Ipv4Addr> targets(ref.targets.begin(),
                                           ref.targets.begin() + 6);
  constexpr auto kUdp = net::ProbeProtocol::kUdp;
  struct Policy {
    const char* name;
    int window;
    bool adaptive;
  };
  for (const Policy policy : {Policy{"window 1", 1, false},
                              Policy{"window 16", 16, false},
                              Policy{"adaptive", 1, true}}) {
    SCOPED_TRACE(policy.name);
    sim::Network net(ref.topo);
    probe::SimProbeEngine sim_wire(net, ref.vantage);
    RecordingEngine wire(sim_wire);
    util::ManualClock clock;  // adaptive pacing must not sleep wall time
    SessionConfig config;
    config.protocol = kUdp;
    config.flow_id = 7;
    config.probe_window = policy.window;
    config.adaptive.enabled = policy.adaptive;
    config.clock = &clock;
    TracenetSession session(wire, config);
    session.set_epoch(1);
    for (const net::Ipv4Addr target : targets) session.run(target);
    ASSERT_FALSE(wire.probes.empty());
    EXPECT_EQ(strays(wire, kUdp, 1, 7), 0u);
    if (policy.window > 1 || policy.adaptive) {
      EXPECT_GT(wire.largest_wave, 1u);
    }

    wire.probes.clear();
    session.set_epoch(0);
    session.run(targets.back());
    ASSERT_FALSE(wire.probes.empty());
    EXPECT_EQ(strays(wire, kUdp, 0, 7), 0u);
  }

  // The multipath session varies the flow by design; protocol and epoch
  // still hold for discovery, positioning and exploration alike.
  sim::Network net(ref.topo);
  probe::SimProbeEngine sim_wire(net, ref.vantage);
  RecordingEngine wire(sim_wire);
  MultipathConfig config;
  config.protocol = kUdp;
  MultipathTracenetSession session(wire, config);
  session.set_epoch(1);
  for (const net::Ipv4Addr target : targets) session.run(target);
  ASSERT_FALSE(wire.probes.empty());
  EXPECT_EQ(strays(wire, kUdp, 1), 0u);
  wire.probes.clear();
  session.set_epoch(0);
  session.run(targets.back());
  ASSERT_FALSE(wire.probes.empty());
  EXPECT_EQ(strays(wire, kUdp, 0), 0u);
}

TEST_F(SessionTest, EnabledLogLinesPrintAddressesAsToString) {
  sim::Network net(f.topo);
  probe::SimProbeEngine wire(net, f.vantage);
  TracenetSession session(wire);
  const util::LogLevel saved = util::log_level();
  util::set_log_level(util::LogLevel::kDebug);
  testing::internal::CaptureStderr();
  const SessionResult result = session.run(f.pivot4);
  const std::string log = testing::internal::GetCapturedStderr();
  util::set_log_level(saved);
  EXPECT_NE(log.find("[INFO ] session: collected " +
                     std::to_string(result.subnets.size()) +
                     " subnets toward 192.168.1.3 with " +
                     std::to_string(result.wire_probes) + " wire probes\n"),
            std::string::npos)
      << log;
  const ObservedSubnet& s = result.subnets.back();
  EXPECT_NE(log.find("[DEBUG] explore: pivot " + s.pivot.to_string() +
                     " -> " + s.to_string() + " ("),
            std::string::npos)
      << log;
}

}  // namespace
}  // namespace tn::core
