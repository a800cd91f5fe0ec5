// Chaos properties: random small topologies under random fault scenarios.
// Whatever the loss pattern, a tracenet session must terminate, stay inside
// its probe budget when one is set, keep every observed subnet anchored on
// its pivot, and replay byte-identically for a fixed (topology, spec, seed).
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/session.h"
#include "probe/sim_engine.h"
#include "sim/faults.h"
#include "sim/network.h"
#include "util/rng.h"

namespace tn::core {
namespace {

net::Ipv4Addr ip(const char* text) { return *net::Ipv4Addr::parse(text); }

struct ChaosParams {
  std::uint64_t seed;
};

// A randomized world: chain of routers off the vantage, each with a chance
// of hanging a partially utilized LAN, plus a random fault scenario drawn
// from the same seed.
struct ChaosWorld {
  sim::Topology topo;
  sim::NodeId vantage = sim::kInvalidId;
  std::vector<net::Ipv4Addr> targets;
  sim::FaultSpec spec;

  explicit ChaosWorld(std::uint64_t seed) {
    util::Rng rng(seed);
    sim::TopologyBuilder builder;
    vantage = builder.add_host("V");
    sim::NodeId previous = vantage;
    std::vector<sim::NodeId> routers;
    const int depth = static_cast<int>(2 + rng.below(4));  // 2..5 routers
    for (int i = 0; i < depth; ++i) {
      const sim::NodeId router = builder.add_router("R" + std::to_string(i));
      const auto link = builder.add_subnet(net::Prefix::covering(
          net::Ipv4Addr(ip("10.0.0.0").value() +
                        static_cast<std::uint32_t>(i) * 4),
          30));
      builder.attach(previous, link, builder.subnet(link).prefix.at(1));
      builder.attach(router, link, builder.subnet(link).prefix.at(2));
      routers.push_back(router);
      previous = router;
    }
    for (std::size_t i = 0; i < routers.size(); ++i) {
      if (rng.chance(0.4) && i + 1 != routers.size()) continue;
      const int length = static_cast<int>(27 + rng.below(4));  // /27../30
      const net::Prefix lan_prefix = net::Prefix::covering(
          net::Ipv4Addr(ip("192.168.0.0").value() +
                        static_cast<std::uint32_t>(i) * 256),
          length);
      const auto lan = builder.add_subnet(lan_prefix);
      builder.attach(routers[i], lan, lan_prefix.at(1));
      bool target_chosen = false;
      for (std::uint64_t o = 2; o <= lan_prefix.capacity(); ++o) {
        if (!rng.chance(0.7)) continue;
        const auto host = builder.add_host("h" + lan_prefix.at(o).to_string());
        builder.attach(host, lan, lan_prefix.at(o));
        if (!target_chosen) {
          targets.push_back(lan_prefix.at(o));
          target_chosen = true;
        }
      }
      if (!target_chosen) targets.push_back(lan_prefix.at(1));
    }
    topo = std::move(builder).build();

    // Random fault scenario from the same stream.
    spec.seed = rng.next();
    spec.default_policy.probe_loss = 0.1 + 0.3 * rng.uniform();
    if (rng.chance(0.5)) spec.default_policy.reply_loss = 0.2 * rng.uniform();
    if (rng.chance(0.3))
      spec.node_overrides[routers[rng.below(routers.size())]].anonymous = true;
    if (rng.chance(0.3)) {
      auto& policy = spec.node_overrides[routers[rng.below(routers.size())]];
      policy.icmp_rate = 50.0 + 200.0 * rng.uniform();
    }
    if (rng.chance(0.2)) spec.reorder_window = 1 + static_cast<int>(rng.below(8));
  }
};

class ChaosProperty : public ::testing::TestWithParam<ChaosParams> {};

TEST_P(ChaosProperty, SessionTerminatesAndSubnetsContainTheirPivot) {
  ChaosWorld world(GetParam().seed);
  sim::Network net(world.topo);
  net.set_faults(world.spec);
  probe::SimProbeEngine wire(net, world.vantage);

  SessionConfig config;
  config.trace.max_ttl = 16;
  TracenetSession session(wire, config);

  for (const net::Ipv4Addr target : world.targets) {
    const SessionResult result = session.run(target);
    for (const ObservedSubnet& subnet : result.subnets) {
      EXPECT_FALSE(subnet.members.empty());
      EXPECT_TRUE(std::find(subnet.members.begin(), subnet.members.end(),
                            subnet.pivot) != subnet.members.end())
          << subnet.to_string();
      if (subnet.prefix.length() < 32) {
        EXPECT_TRUE(subnet.prefix.contains(subnet.pivot))
            << subnet.to_string();
      }
      if (subnet.contra_pivot) {
        EXPECT_TRUE(std::find(subnet.members.begin(), subnet.members.end(),
                              *subnet.contra_pivot) != subnet.members.end())
            << subnet.to_string();
      }
    }
  }
}

TEST_P(ChaosProperty, LossyRunReplaysByteIdentically) {
  const auto run = [&] {
    ChaosWorld world(GetParam().seed);
    sim::Network net(world.topo);
    net.set_faults(world.spec);
    probe::SimProbeEngine wire(net, world.vantage);
    SessionConfig config;
    config.trace.max_ttl = 16;
    TracenetSession session(wire, config);
    std::string transcript;
    for (const net::Ipv4Addr target : world.targets)
      transcript += session.run(target).to_string() + "\n";
    return transcript;
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChaosProperty,
    ::testing::Values(ChaosParams{101}, ChaosParams{102}, ChaosParams{103},
                      ChaosParams{104}, ChaosParams{105}, ChaosParams{106},
                      ChaosParams{107}, ChaosParams{108}, ChaosParams{109},
                      ChaosParams{110}, ChaosParams{111}, ChaosParams{112}),
    [](const ::testing::TestParamInfo<ChaosParams>& info) {
      return "s" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace tn::core
