// Random hierarchical ISP topologies and the multi-vantage "internet" fabric
// for the paper's §4.2 cross-validation experiments.
//
// Each ISP is generated from a profile describing its size (subnets per
// prefix length), address block, and operational character: the fraction of
// firewalled prefixes, partially dark LANs, rate-limiting routers, and the
// per-protocol responsiveness that drives Table 3's ICMP >> UDP >> TCP
// ordering.  Default profiles for SprintLink, NTT America, Level3 and
// AboveNET mirror the paper's qualitative findings: SprintLink is the
// largest and least responsive; NTT has the fewest subnets but hosts the
// /20-/22 giants that make it the most subnetized-IP-rich (Figures 7-9).
//
// build_internet() assembles a transit core, attaches three vantage hosts at
// distinct transit routers, and plugs every ISP in through several border
// routers so each vantage enters each ISP at a different point — the setup
// behind Figure 6's overlap analysis.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/topology.h"
#include "topo/ground_truth.h"

namespace tn::sim {
class Network;
}  // namespace tn::sim

namespace tn::topo {

struct IspProfile {
  std::string name;
  net::Prefix block;            // the ISP's address aggregate
  int core_routers = 8;
  int border_count = 3;         // distinct transit attachment points
  // Subnet counts by prefix length (30/31 become point-to-point chains, the
  // rest multi-access LANs).
  std::map<int, int> subnet_counts;

  double firewalled_fraction = 0.05;    // of all registered subnets
  double partial_dark_fraction = 0.10;  // of multi-access LANs
  double lan_utilization = 0.65;        // alive share of LAN capacity

  // Per-router probe behaviour.
  double rate_limited_router_fraction = 0.0;
  double rate_limit_pps = 100.0;
  double udp_responsive_fraction = 0.3;   // routers answering UDP at all
  double tcp_responsive_fraction = 0.005; // routers answering TCP at all

  // Multi-homed LANs (two ingress routers) — exploration results for these
  // depend on the entry point, one driver of cross-vantage disagreement.
  double multi_homed_lan_fraction = 0.15;

  // Fraction of point-to-point subnets wired between two *existing* routers
  // (mesh chords) rather than growing a new chain. Chord subnets are often
  // off the shortest path from a given vantage, so whether and how they are
  // collected depends on the entry border — the paper's "different border
  // routers appearing in the paths and various paths being taken toward the
  // destinations" (§4.2, Figure 6's ~20% per-vantage uniqueness).
  double mesh_link_fraction = 0.5;

  // Fraction of core routers doing per-packet load balancing (§3.7 path
  // fluctuations).
  double per_packet_lb_fraction = 0.3;

  // Per-probe direct-reply drop probability applied to every interface of
  // the ISP (transient loss / host-side ICMP rate limiting). The dominant
  // source of cross-vantage observation variance (Figure 6).
  double response_flakiness = 0.2;

  // Trace destinations chosen per subnet (large LANs get more).
  int targets_per_lan = 1;

  // Fraction of point-to-point subnets whose far address joins the target
  // set. The rest are only ever seen in transit — from a given vantage a
  // chord or chain link is collected only when some shortest path crosses
  // it, which depends on the entry border (Figure 6's divergence).
  double p2p_target_fraction = 0.28;
};

// The paper's four ISPs, sized at roughly one-sixth of the counts reported
// in Table 3 / Figures 7-9 so a full three-vantage campaign stays fast.
std::vector<IspProfile> default_isp_profiles();

struct SimulatedInternet {
  sim::Topology topo;
  std::vector<sim::NodeId> vantages;      // three, at distinct transit points
  std::vector<std::string> vantage_names; // "Rice", "UMass", "UOregon"

  struct Isp {
    std::string name;
    SubnetRegistry registry;
    std::vector<net::Ipv4Addr> targets;
    std::vector<sim::NodeId> borders;
  };
  std::vector<Isp> isps;

  // Routers that should be rate limited, with their sustained replies/sec.
  // Limiters live in the Network (per experiment run), so the plan is
  // carried here and installed by the campaign driver.
  std::vector<std::pair<sim::NodeId, double>> rate_limit_plan;

  // Returns the union of all ISP target sets (the campaign's target list).
  std::vector<net::Ipv4Addr> all_targets() const;
};

SimulatedInternet build_internet(const std::vector<IspProfile>& profiles,
                                 std::uint64_t seed = 7);

// The burst of every planned rate limiter. perfbench/src/workloads.cpp
// repeats the 5.0: the benchmark's sources change only with the benchmark.
inline constexpr double kRateLimitBurst = 5.0;

// Installs a rate-limit plan on `net` before probing starts: a RateLimiter
// per planned router, at its replies/second, bursting to kRateLimitBurst.
void install_rate_limit_plan(
    sim::Network& net, const std::vector<std::pair<sim::NodeId, double>>& plan);

}  // namespace tn::topo
