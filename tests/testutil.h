// Shared test topologies.
//
// Fig3Topology reproduces the scenario of the paper's Figure 3: a vantage
// host three router-hops away from a multi-access subnet S, with the three
// fringe-interface categories of Figure 5 present so heuristics H3/H7/H8 can
// be exercised: an ingress fringe (other interfaces of the ingress router), a
// close fringe (interface of R7 on a LAN the ingress router is directly on),
// and a far fringe (interface of R4 on a LAN the ingress router is not on).
//
// test::edit derives a variant of any frozen topology.
//
// test::reference_campaign is the serial campaign loop the campaign runtime
// is checked against, and test::serial_runtime the runtime configuration
// that must reproduce it.
#pragma once

#include <string>
#include <vector>

#include "core/session.h"
#include "eval/campaign.h"
#include "net/ipv4.h"
#include "net/prefix.h"
#include "probe/sim_engine.h"
#include "runtime/campaign.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "sim/vtime/scheduler.h"

namespace tn::test {

inline net::Ipv4Addr ip(std::string_view text) {
  auto parsed = net::Ipv4Addr::parse(text);
  if (!parsed) throw std::invalid_argument("bad test ip: " + std::string(text));
  return *parsed;
}

inline net::Prefix pfx(std::string_view text) {
  auto parsed = net::Prefix::parse(text);
  if (!parsed) throw std::invalid_argument("bad test prefix: " + std::string(text));
  return *parsed;
}

// Replaces `topo` with a variant of itself: reopens the snapshot by move,
// applies `change` to the builder and freezes the result. A Network or
// RoutingTable built on the old snapshot must not be used afterwards.
template <typename Change>
void edit(sim::Topology& topo, Change change) {
  sim::TopologyBuilder builder(std::move(topo));
  change(builder);
  topo = std::move(builder).build();
}

// The serial campaign loop: one TracenetSession over the bare simulator,
// sleeping on the network's scheduler if it has one, each target stamped
// with its churn epoch and skipped when a merged subnet covers it.
inline eval::VantageObservations reference_campaign(
    sim::Network& network, sim::NodeId vantage, const std::string& name,
    const std::vector<net::Ipv4Addr>& targets,
    const eval::CampaignConfig& config = {}) {
  probe::SimProbeEngine wire(network, vantage);
  core::SessionConfig session_config = config.session;
  if (session_config.clock == nullptr)
    session_config.clock = network.scheduler();
  core::TracenetSession session(wire, session_config);
  eval::CampaignAccumulator acc(name, targets.size());
  for (std::size_t index = 0; index < targets.size(); ++index) {
    session.set_epoch(network.faults().epoch_of(index));
    if (acc.covered(targets[index])) {
      acc.note_covered();
      continue;
    }
    acc.add(session.run(targets[index]));
  }
  eval::VantageObservations out = acc.finalize();
  out.wire_probes = wire.probes_issued();
  return out;
}

// The serial campaign as the paper benches and the examples run it: one
// worker, without the campaign-wide reply cache.
inline runtime::RuntimeConfig serial_runtime(
    eval::CampaignConfig campaign = {}) {
  runtime::RuntimeConfig config;
  config.campaign = std::move(campaign);
  config.share_probe_cache = false;
  return config;
}

// Hop distances from vantage V: G=1, R1=2, R2=3 (ingress of S), members of S
// (R3, R4, R6) = 4, R5 = 5, R7 = 4 (via the close-fringe LAN).
struct Fig3Topology {
  sim::Topology topo;
  sim::NodeId vantage, gateway, r1, r2, r3, r4, r6, r5, r7;
  sim::SubnetId lan_v, s, close_lan, far_lan;

  // Addresses on subnet S = 192.168.1.0/28.
  net::Ipv4Addr contra = ip("192.168.1.1");   // R2.w, hop 3
  net::Ipv4Addr pivot3 = ip("192.168.1.2");   // R3, hop 4
  net::Ipv4Addr pivot4 = ip("192.168.1.3");   // R4, hop 4
  net::Ipv4Addr pivot6 = ip("192.168.1.4");   // R6, hop 4
  net::Ipv4Addr close_fringe = ip("10.0.3.2");  // R7 on R2's other LAN, hop 4
  net::Ipv4Addr far_fringe = ip("10.0.4.1");    // R4 on a LAN off S, hop 4

  Fig3Topology() {
    sim::TopologyBuilder builder;
    vantage = builder.add_host("V");
    gateway = builder.add_router("G");
    r1 = builder.add_router("R1");
    r2 = builder.add_router("R2");
    r3 = builder.add_router("R3");
    r4 = builder.add_router("R4");
    r6 = builder.add_router("R6");
    r5 = builder.add_router("R5");
    r7 = builder.add_router("R7");

    lan_v = builder.add_subnet(pfx("10.0.0.0/30"));
    builder.attach(vantage, lan_v, ip("10.0.0.1"));
    builder.attach(gateway, lan_v, ip("10.0.0.2"));

    const auto g_r1 = builder.add_subnet(pfx("10.0.1.0/31"));
    builder.attach(gateway, g_r1, ip("10.0.1.0"));
    builder.attach(r1, g_r1, ip("10.0.1.1"));

    const auto r1_r2 = builder.add_subnet(pfx("10.0.2.0/31"));
    builder.attach(r1, r1_r2, ip("10.0.2.0"));
    builder.attach(r2, r1_r2, ip("10.0.2.1"));

    s = builder.add_subnet(pfx("192.168.1.0/28"));
    builder.attach(r2, s, contra);
    builder.attach(r3, s, pivot3);
    builder.attach(r4, s, pivot4);
    builder.attach(r6, s, pivot6);

    close_lan = builder.add_subnet(pfx("10.0.3.0/30"));
    builder.attach(r2, close_lan, ip("10.0.3.1"));
    builder.attach(r7, close_lan, close_fringe);

    far_lan = builder.add_subnet(pfx("10.0.4.0/30"));
    builder.attach(r4, far_lan, far_fringe);
    builder.attach(r5, far_lan, ip("10.0.4.2"));
    topo = std::move(builder).build();
  }
};

}  // namespace tn::test
