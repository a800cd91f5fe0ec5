#include "topo/serialize.h"

#include <gtest/gtest.h>

#include <sstream>

#include "sim/network.h"
#include "testutil.h"
#include "topo/isp.h"
#include "topo/reference.h"

namespace tn::topo {
namespace {

TEST(Serialize, RoundTripsFig3Topology) {
  test::Fig3Topology f;
  sim::ResponseConfig config;
  config.direct = sim::ResponsePolicy::kProbed;
  config.indirect = sim::ResponsePolicy::kShortestPath;
  test::edit(f.topo, [&](sim::TopologyBuilder& b) {
    b.subnet_mut(f.s).firewalled = true;
    b.interface_mut(*b.find_interface(f.pivot3)).responsive = false;
    b.set_response_config(f.r2, net::ProbeProtocol::kIcmp, config);
  });

  std::stringstream buffer;
  write_topology(buffer, f.topo);
  const LoadedTopology loaded = read_topology(buffer);

  EXPECT_EQ(loaded.topo.node_count(), f.topo.node_count());
  EXPECT_EQ(loaded.topo.subnet_count(), f.topo.subnet_count());
  EXPECT_EQ(loaded.topo.interface_count(), f.topo.interface_count());

  const auto s = loaded.topo.find_subnet_exact(test::pfx("192.168.1.0/28"));
  ASSERT_TRUE(s);
  EXPECT_TRUE(loaded.topo.subnet(*s).firewalled);
  const auto iface = loaded.topo.find_interface(f.pivot3);
  ASSERT_TRUE(iface);
  EXPECT_FALSE(loaded.topo.interface(*iface).responsive);
}

TEST(Serialize, RoundTripsResponseConfigs) {
  test::Fig3Topology f;
  const auto default_iface = *f.topo.interface_on(f.r2, f.close_lan);
  sim::ResponseConfig config;
  config.direct = sim::ResponsePolicy::kDefault;
  config.indirect = sim::ResponsePolicy::kDefault;
  config.default_interface = default_iface;
  test::edit(f.topo, [&](sim::TopologyBuilder& b) {
    b.set_response_config(f.r2, net::ProbeProtocol::kUdp, config);
  });

  std::stringstream buffer;
  write_topology(buffer, f.topo);
  const LoadedTopology loaded = read_topology(buffer);

  // Find the loaded r2 by its close-LAN address and check the UDP config.
  const auto iface = loaded.topo.find_interface(test::ip("10.0.3.1"));
  ASSERT_TRUE(iface);
  const sim::Node& r2 = loaded.topo.node(loaded.topo.interface(*iface).node);
  EXPECT_EQ(r2.config_for(net::ProbeProtocol::kUdp).direct,
            sim::ResponsePolicy::kDefault);
  EXPECT_EQ(r2.config_for(net::ProbeProtocol::kUdp).default_interface, *iface);
}

TEST(Serialize, RoundTripsRegistry) {
  const ReferenceTopology ref = internet2_like(99);
  std::stringstream buffer;
  write_topology(buffer, ref.topo, &ref.registry);
  const LoadedTopology loaded = read_topology(buffer);

  ASSERT_EQ(loaded.registry.size(), ref.registry.size());
  for (std::size_t i = 0; i < ref.registry.size(); ++i) {
    const auto& original = ref.registry.all()[i];
    const auto& reloaded = loaded.registry.all()[i];
    EXPECT_EQ(original.prefix, reloaded.prefix);
    EXPECT_EQ(original.profile, reloaded.profile);
    EXPECT_EQ(original.assigned, reloaded.assigned);
    EXPECT_EQ(original.responsive, reloaded.responsive);
    EXPECT_EQ(original.suggested_target, reloaded.suggested_target);
  }
}

// Every attribute the simulator reads survives a write and a reload, so an
// archived network replies exactly like the one that was generated. The
// §4.2 internet has flaky interfaces and per-packet load balancers, which
// the Internet2-like reference lacks.
TEST(Serialize, RoundTripsEveryAttributeOfTheSimulatedInternet) {
  const SimulatedInternet internet =
      build_internet(default_isp_profiles(), 7);
  const sim::Topology& original = internet.topo;
  std::stringstream buffer;
  write_topology(buffer, original);
  const sim::Topology reloaded = read_topology(buffer).topo;

  ASSERT_EQ(reloaded.node_count(), original.node_count());
  ASSERT_EQ(reloaded.subnet_count(), original.subnet_count());
  ASSERT_EQ(reloaded.interface_count(), original.interface_count());
  std::size_t balancers = 0;
  for (sim::NodeId id = 0; id < original.node_count(); ++id) {
    const sim::Node& a = original.node(id);
    const sim::Node& b = reloaded.node(id);
    ASSERT_EQ(b.name, a.name);
    EXPECT_EQ(b.is_host, a.is_host) << a.name;
    EXPECT_EQ(b.interfaces, a.interfaces) << a.name;
    for (std::size_t p = 0; p < a.response.size(); ++p) {
      EXPECT_EQ(b.response[p].direct, a.response[p].direct) << a.name;
      EXPECT_EQ(b.response[p].indirect, a.response[p].indirect) << a.name;
      EXPECT_EQ(b.response[p].default_interface,
                a.response[p].default_interface)
          << a.name;
    }
    EXPECT_EQ(reloaded.per_packet_load_balancing(id),
              original.per_packet_load_balancing(id))
        << a.name;
    balancers += original.per_packet_load_balancing(id);
  }
  for (sim::SubnetId id = 0; id < original.subnet_count(); ++id) {
    const sim::Subnet& a = original.subnet(id);
    const sim::Subnet& b = reloaded.subnet(id);
    ASSERT_EQ(b.prefix, a.prefix);
    EXPECT_EQ(b.interfaces, a.interfaces) << a.prefix.to_string();
    EXPECT_EQ(b.firewalled, a.firewalled) << a.prefix.to_string();
    EXPECT_EQ(b.arp_fail, a.arp_fail) << a.prefix.to_string();
  }
  std::size_t flaky = 0;
  for (sim::InterfaceId id = 0; id < original.interface_count(); ++id) {
    const sim::Interface& a = original.interface(id);
    const sim::Interface& b = reloaded.interface(id);
    ASSERT_EQ(b.addr, a.addr);
    EXPECT_EQ(b.node, a.node) << a.addr.to_string();
    EXPECT_EQ(b.subnet, a.subnet) << a.addr.to_string();
    EXPECT_EQ(b.responsive, a.responsive) << a.addr.to_string();
    EXPECT_EQ(b.flakiness, a.flakiness) << a.addr.to_string();  // exact
    flaky += a.flakiness > 0.0;
  }
  EXPECT_GT(balancers, 0u);
  EXPECT_GT(flaky, 0u);

  // The same probes through fresh networks on both get the same replies:
  // flakiness and round robin both draw on the probe sequence.
  sim::Network before(original);
  sim::Network after(reloaded);
  std::size_t probes = 0;
  std::size_t differ = 0;
  for (const sim::NodeId vantage : internet.vantages) {
    for (const net::Ipv4Addr target : internet.all_targets()) {
      for (const std::uint8_t ttl : {3, 5, 7, 64}) {  // 64: a direct probe
        net::Probe probe;
        probe.target = target;
        probe.ttl = ttl;
        ++probes;
        differ += before.send_probe(vantage, probe).to_string() !=
                  after.send_probe(vantage, probe).to_string();
      }
    }
  }
  EXPECT_EQ(differ, 0u) << "of " << probes << " probes";
}

TEST(Serialize, RejectsMalformedInput) {
  auto expect_throw = [](const std::string& text) {
    std::stringstream buffer(text);
    EXPECT_THROW(read_topology(buffer), std::runtime_error) << text;
  };
  expect_throw("bogus record\n");
  expect_throw("node x router r1\n");
  expect_throw("subnet 0 10.0.0.0/99\n");
  expect_throw("iface 0 0 10.0.0.1\n");  // unknown node/subnet
  expect_throw("node 0 router a\nsubnet 0 10.0.0.0/30\niface 0 0 10.0.1.1\n");
  expect_throw("truth 10.0.0.0/30 nonsense target=10.0.0.1 assigned= responsive=\n");
  const std::string lan = "node 0 router a\nsubnet 0 10.0.0.0/30\n";
  expect_throw("node 0 router a balanced\n");
  expect_throw(lan + "iface 0 0 10.0.0.1 flaky=1.5\n");
  expect_throw(lan + "iface 0 0 10.0.0.1 flaky=-0.1\n");
  expect_throw(lan + "iface 0 0 10.0.0.1 flaky=0.1x\n");
  expect_throw(lan + "iface 0 0 10.0.0.1 shaky\n");
  expect_throw("node 0 hots v\n");  // a misspelt kind is not a router
  expect_throw("node 1 router r1\nnode 1 router r2\n");
  expect_throw("subnet 0 10.0.0.0/30\nsubnet 0 10.0.1.0/30\n");
  // A bad truth address list names its line like every other error.
  std::stringstream bad_list(
      lan + "truth 10.0.0.0/30 clean target=10.0.0.1 assigned=10.0.0.x "
            "responsive=\n");
  try {
    read_topology(bad_list);
    ADD_FAILURE() << "bad truth address list accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(),
                 "topology file line 3: bad address list entry: 10.0.0.x");
  }
}

TEST(Serialize, IgnoresCommentsAndBlankLines) {
  std::stringstream buffer(
      "# a comment\n"
      "\n"
      "node 0 router a\n"
      "   # indented comment\n"
      "subnet 0 10.0.0.0/30\n"
      "iface 0 0 10.0.0.1\n");
  const LoadedTopology loaded = read_topology(buffer);
  EXPECT_EQ(loaded.topo.node_count(), 1u);
  EXPECT_EQ(loaded.topo.interface_count(), 1u);
}

}  // namespace
}  // namespace tn::topo
