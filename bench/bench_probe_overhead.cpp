// Regenerates the §3.6 probing-overhead analysis: measured probe counts per
// explored subnet against the paper's model (lower bound ~4 probes for an
// on-path point-to-point link; upper bound 7|S|+7 for an off-path
// multi-access LAN), plus the ablations DESIGN.md calls out: the probe cache
// (merged-heuristics optimization) and the §3.8 retry policy.
#include <cstdio>

#include "core/exploration.h"
#include "core/positioning.h"
#include "core/session.h"
#include "probe/cache.h"
#include "probe/sim_engine.h"
#include "sim/network.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace tn;

net::Ipv4Addr ip(const char* text) { return *net::Ipv4Addr::parse(text); }
net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }

// Vantage -> G -> R1 -> R2(ingress) -> LAN with `members` host interfaces.
struct Scenario {
  sim::Topology topo;
  sim::NodeId vantage, ingress;
  net::Ipv4Addr target;
  net::Prefix lan_prefix;

  explicit Scenario(int member_count, int lan_prefix_length = 28) {
    sim::TopologyBuilder builder;
    vantage = builder.add_host("V");
    const auto g = builder.add_router("G");
    const auto r1 = builder.add_router("R1");
    ingress = builder.add_router("R2");
    auto link = [&](sim::NodeId a, sim::NodeId b, const char* prefix) {
      const auto subnet = builder.add_subnet(pfx(prefix));
      const net::Prefix p = builder.subnet(subnet).prefix;
      builder.attach(a, subnet, p.at(1));
      builder.attach(b, subnet, p.at(2));
    };
    link(vantage, g, "10.0.0.0/30");
    link(g, r1, "10.0.1.0/30");
    link(r1, ingress, "10.0.2.0/30");

    lan_prefix = pfx(lan_prefix_length == 28 ? "192.168.0.0/28"
                     : lan_prefix_length == 31 ? "192.168.0.0/31"
                                               : "192.168.0.0/29");
    const auto lan = builder.add_subnet(lan_prefix);
    if (lan_prefix_length == 31) {
      builder.attach(ingress, lan, lan_prefix.at(0));
      const auto member = builder.add_host("m");
      builder.attach(member, lan, lan_prefix.at(1));
      target = lan_prefix.at(1);
    } else {
      builder.attach(ingress, lan, lan_prefix.at(1));  // contra-pivot
      for (int m = 0; m < member_count; ++m) {
        const auto member = builder.add_host("m" + std::to_string(m));
        builder.attach(member, lan,
                    lan_prefix.at(static_cast<std::uint64_t>(2 + m)));
      }
      target = lan_prefix.at(2);
    }
    topo = std::move(builder).build();
  }
};

struct Measurement {
  std::uint64_t wire = 0;      // probes on the wire (after cache)
  std::uint64_t logical = 0;   // probes requested by the algorithm
  net::Prefix observed;
};

Measurement explore_once(Scenario& scenario, bool use_cache) {
  sim::Network net(scenario.topo);
  probe::SimProbeEngine wire(net, scenario.vantage);
  probe::CachingProbeEngine cached(wire);
  probe::ProbeEngine& top = use_cache
                                ? static_cast<probe::ProbeEngine&>(cached)
                                : static_cast<probe::ProbeEngine&>(wire);

  core::SubnetPositioner positioner(top);
  // As in a session: u = ingress's incoming interface, v = target at hop 4.
  const core::Position pos = positioner.position(ip("10.0.2.2"), scenario.target, 4);
  const std::uint64_t wire_before = wire.probes_issued();
  const std::uint64_t logical_before = top.probes_issued();
  core::SubnetExplorer explorer(top);
  const core::ObservedSubnet subnet = explorer.explore(pos);

  Measurement out;
  out.wire = wire.probes_issued() - wire_before;
  out.logical = top.probes_issued() - logical_before;
  out.observed = subnet.prefix;
  return out;
}

}  // namespace

int main() {
  std::printf("== Section 3.6: probing overhead per explored subnet ==\n\n");

  util::Table table({"subnet", "|S|", "wire probes", "logical probes",
                     "model 7|S|+7", "observed"});
  {
    Scenario p2p(1, 31);
    const Measurement m = explore_once(p2p, true);
    table.add_row({"/31 point-to-point (lower bound)", "2",
                   std::to_string(m.wire), std::to_string(m.logical), "-",
                   m.observed.to_string()});
  }
  for (int members : {2, 4, 6, 8, 10, 13}) {
    Scenario lan(members);
    const Measurement m = explore_once(lan, true);
    const int size = members + 1;  // + contra-pivot
    table.add_row({"/28 multi-access LAN", std::to_string(size),
                   std::to_string(m.wire), std::to_string(m.logical),
                   std::to_string(7 * size + 7), m.observed.to_string()});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\npaper model: lower bound 4 probes for an on-path point-to-point\n"
      "subnet; upper bound 7|S|+7 for an off-path multi-access LAN. Measured\n"
      "wire probes must stay at a handful for /31 links and below the model\n"
      "bound for LANs (the cache realizes the paper's merged-heuristics\n"
      "optimization).\n");

  std::printf("\n== Ablation: probe cache (merged heuristics, §3.5) ==\n\n");
  util::Table ablation({"subnet", "wire w/ cache", "wire w/o cache", "saved"});
  for (int members : {4, 10, 13}) {
    Scenario with(members);
    Scenario without(members);
    const Measurement cached = explore_once(with, true);
    const Measurement plain = explore_once(without, false);
    ablation.add_row(
        {"/28 LAN |S|=" + std::to_string(members + 1),
         std::to_string(cached.wire), std::to_string(plain.wire),
         util::percent(plain.wire - cached.wire, plain.wire)});
  }
  std::printf("%s", ablation.render().c_str());

  std::printf("\n== Ablation: §3.8 retry policy under 20%% loss ==\n\n");
  util::Table retry_table({"retries", "observed prefix", "members"});
  for (int attempts : {1, 2, 3}) {
    Scenario lan(10);
    sim::TopologyBuilder flaky(std::move(lan.topo));
    for (sim::InterfaceId i = 0; i < flaky.interface_count(); ++i) {
      sim::Interface& iface = flaky.interface_mut(i);
      if (lan.lan_prefix.contains(iface.addr)) iface.flakiness = 0.2;
    }
    lan.topo = std::move(flaky).build();
    sim::Network net(lan.topo);
    probe::SimProbeEngine wire(net, lan.vantage);
    core::SessionConfig config;
    config.retry_attempts = attempts;
    core::TracenetSession session(wire, config);
    const core::SessionResult result = session.run(lan.target);
    const core::ObservedSubnet* observed = nullptr;
    for (const auto& subnet : result.subnets)
      if (lan.lan_prefix.contains(subnet.pivot)) observed = &subnet;
    retry_table.add_row(
        {std::to_string(attempts - 1),
         observed ? observed->prefix.to_string() : "(none)",
         observed ? std::to_string(observed->members.size()) : "0"});
  }
  std::printf("%s", retry_table.render().c_str());
  std::printf(
      "\nexpected: more retries recover more members under loss, converging\n"
      "to the true /28; with none, the half-utilization rule stops early.\n");
  return 0;
}
