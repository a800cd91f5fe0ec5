// Campaign observations: what one vantage point's tracenet campaign
// collected, the observations the paper's figures are computed from, and the
// accumulator that merges session results into them.
// runtime::CampaignRuntime (runtime/campaign.h) drives every campaign.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/session.h"
#include "net/prefix_index.h"

namespace tn::eval {

// A campaign skips every target already inside a previously observed subnet
// (the cost-effectiveness §3.6 argues for, and Doubletree's stop set; it also
// keeps /20-sized LANs from being re-explored per member target).
struct CampaignConfig {
  core::SessionConfig session;
};

// Everything one vantage point learned.
struct VantageObservations {
  std::string vantage;
  std::vector<core::ObservedSubnet> subnets;  // deduplicated by prefix
  std::set<net::Ipv4Addr> unsubnetized;       // pivots stuck at /32 (Fig. 7)
  std::set<net::Ipv4Addr> subnetized_addrs;   // union of subnet members
  std::uint64_t wire_probes = 0;
  std::size_t targets_total = 0;
  std::size_t targets_traced = 0;      // sessions actually run
  std::size_t targets_responding = 0;  // destination reached
  std::size_t targets_covered = 0;     // skipped: already inside a subnet

  // The set of observed prefixes (non-/32), for cross-validation.
  std::set<net::Prefix> prefixes() const;
};

// The campaign aggregation algorithm: feed session results in target order,
// ask covered() before each, finalize once. runtime::CampaignRuntime merges
// every campaign through it, whatever its worker count, which is what makes
// its deterministic mode byte-identical across --jobs (see docs/RUNTIME.md).
class CampaignAccumulator {
 public:
  CampaignAccumulator(std::string vantage_name, std::size_t targets_total);

  // True when `target` lies inside a subnet merged so far; the serial skip
  // rule. Callers that skip must call note_covered() to keep the counts.
  bool covered(net::Ipv4Addr target) const;
  void note_covered() { ++out_.targets_covered; }

  // Merges one session result (counts the target as traced).
  void add(const core::SessionResult& result);

  // Builds the final observations. The accumulator is spent afterwards.
  // wire_probes is left 0 — the caller owns the wire engine and fills it in.
  VantageObservations finalize();

 private:
  VantageObservations out_;
  std::map<net::Prefix, core::ObservedSubnet> by_prefix_;
  net::NestedPrefixIndex covered_;  // by_prefix_'s keys; values unused
};

}  // namespace tn::eval
