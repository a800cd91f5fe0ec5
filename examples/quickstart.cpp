// Quickstart: build a small simulated network, run one tracenet session,
// and inspect what it collected.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// The tour: a TopologyBuilder assembles routers/hosts/subnets and freezes
// them into an immutable Topology; a Network forwards probes over it with
// real TTL semantics; a ProbeEngine is tracenet's only view of the world;
// TracenetSession runs trace collection + subnet positioning + subnet
// exploration toward a destination.
#include <cstdio>

#include "core/session.h"
#include "probe/sim_engine.h"
#include "sim/network.h"

using namespace tn;

namespace {

net::Ipv4Addr ip(const char* text) { return *net::Ipv4Addr::parse(text); }
net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }

}  // namespace

int main() {
  // 1. A topology: vantage host -> gateway -> core -> a /28 office LAN.
  sim::TopologyBuilder builder;
  const auto vantage = builder.add_host("vantage");
  const auto gateway = builder.add_router("gateway");
  const auto core = builder.add_router("core");
  const auto lan_router = builder.add_router("office-gw");

  const auto access = builder.add_subnet(pfx("10.0.0.0/30"));
  builder.attach(vantage, access, ip("10.0.0.1"));
  builder.attach(gateway, access, ip("10.0.0.2"));

  const auto uplink = builder.add_subnet(pfx("10.0.1.0/31"));
  builder.attach(gateway, uplink, ip("10.0.1.0"));
  builder.attach(core, uplink, ip("10.0.1.1"));

  const auto office_uplink = builder.add_subnet(pfx("10.0.2.0/30"));
  builder.attach(core, office_uplink, ip("10.0.2.1"));
  builder.attach(lan_router, office_uplink, ip("10.0.2.2"));

  const auto office = builder.add_subnet(pfx("192.0.2.0/28"));
  builder.attach(lan_router, office, ip("192.0.2.1"));
  for (int host = 0; host < 9; ++host) {
    const auto node = builder.add_host("pc" + std::to_string(host));
    builder.attach(node, office,
                   ip(("192.0.2." + std::to_string(2 + host)).c_str()));
  }

  // 2. Freeze the topology, then a network over it (forwarding + ICMP
  //    semantics) and a probe engine bound to the vantage host.
  const sim::Topology topo = std::move(builder).build();
  sim::Network network(topo);
  probe::SimProbeEngine engine(network, vantage);

  // 3. Run tracenet toward one office machine.
  core::TracenetSession session(engine);
  const core::SessionResult result = session.run(ip("192.0.2.7"));

  // 4. The path, and the subnets sketched along it.
  std::printf("%s\n", result.path.to_string().c_str());
  std::printf("collected subnets (^ pivot, * contra-pivot):\n");
  for (const core::ObservedSubnet& subnet : result.subnets)
    std::printf("  hop %d: %s  [%zu members, stop: %s]\n",
                subnet.pivot_distance, subnet.to_string().c_str(),
                subnet.members.size(),
                std::string(core::to_string(subnet.stop)).c_str());

  // Contrast with what a plain traceroute saw.
  std::printf("\ntraceroute saw %zu addresses; tracenet collected ",
              result.path.responders().size());
  std::size_t total = 0;
  for (const auto& subnet : result.subnets) total += subnet.members.size();
  std::printf("%zu across %zu subnets, using %llu probes.\n", total,
              result.subnets.size(),
              static_cast<unsigned long long>(result.wire_probes));
  return 0;
}
