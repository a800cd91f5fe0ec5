// Multipath discovery — the §3.8 future-work item realized.
//
// The paper's trace collection keeps one flow identifier per session (the
// Paris-traceroute discipline our Traceroute already follows), which pins
// *one* path through per-flow load balancers. This module goes further, in
// the spirit of the Multipath Detection Algorithm: it varies the flow id at
// every TTL to enumerate the ECMP diamonds between vantage and destination,
// and MultipathTracenetSession then positions + explores a subnet around
// *every* interface discovered at every hop — not just the single-flow
// path's — yielding strictly more complete subnet harvests on load-balanced
// networks.
#pragma once

#include <set>
#include <vector>

#include "core/exploration.h"
#include "core/positioning.h"
#include "core/prober.h"
#include "core/traceroute.h"
#include "core/types.h"
#include "probe/engine.h"

namespace tn::core {

// Flow identifiers tried per hop. 16 flows detect a 2-way split with
// probability 1 - 2^-15; load balancers wider than ~6 ways need more.
inline constexpr int kFlowsPerHop = 16;

struct MultipathConfig {
  net::ProbeProtocol protocol = net::ProbeProtocol::kIcmp;
  int max_ttl = 32;
};

struct MultipathHop {
  int ttl = 0;
  // Distinct responders seen across the flow sweep, in discovery order.
  std::vector<net::Ipv4Addr> responders;
  bool destination_among_them = false;
};

struct MultipathResult {
  net::Ipv4Addr destination;
  std::vector<MultipathHop> hops;
  bool destination_reached = false;

  // Hops where more than one interface answered (ECMP diamonds).
  std::size_t diamond_count() const;
  // Total distinct interfaces across all hops.
  std::size_t interface_count() const;
};

class MultipathDiscovery {
 public:
  // Every probe carries `prober`'s protocol and routing epoch; the flow id
  // is the one thing discovery varies.
  MultipathDiscovery(Prober prober, int max_ttl = 32) noexcept
      : prober_(prober), max_ttl_(max_ttl) {}

  // Sweeps the flows at every TTL until the destination answers on every
  // flow, kAnonymousGapLimit hops in a row stay silent, or max_ttl.
  MultipathResult run(net::Ipv4Addr destination);

 private:
  Prober prober_;
  int max_ttl_;
};

// One session = multipath enumeration + subnet exploration around every
// discovered interface.
struct MultipathSessionResult {
  MultipathResult paths;
  std::vector<ObservedSubnet> subnets;  // deduplicated by prefix
  std::uint64_t wire_probes = 0;
};

class MultipathTracenetSession {
 public:
  MultipathTracenetSession(probe::ProbeEngine& wire_engine,
                           MultipathConfig config = {});

  MultipathSessionResult run(net::Ipv4Addr destination);

  // Routing epoch stamped on every probe of subsequent runs (routing churn,
  // sim/faults.h), as TracenetSession::set_epoch.
  void set_epoch(std::uint8_t epoch) noexcept { epoch_ = epoch; }

 private:
  probe::ProbeEngine& wire_engine_;
  MultipathConfig config_;
  std::uint8_t epoch_ = 0;
};

}  // namespace tn::core
