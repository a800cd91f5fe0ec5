// Result model of a tracenet run.
//
// Where traceroute produces a list of IP addresses, tracenet produces a list
// of *observed subnets* (§3): each annotated with its observed prefix, its
// member addresses, the pivot / contra-pivot / ingress designations of §3.4,
// and why growth stopped.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/ipv4.h"
#include "net/packet.h"
#include "net/prefix.h"

namespace tn::core {

// Why subnet exploration stopped growing (H1 / Algorithm 1 stop conditions).
enum class StopReason : std::uint8_t {
  kShrink,         // a heuristic failed -> shrunk to last valid state (H1)
  kUnderUtilized,  // |S| <= half the level's size (Alg. 1 lines 19-21)
  kPrefixFloor,    // reached the configured minimum prefix length
};

// The stop reason's name, e.g. "under-utilized": a static literal.
std::string_view to_string(StopReason reason) noexcept;

// Streams to_string(reason), so a log line that is switched off formats
// nothing.
std::ostream& operator<<(std::ostream& os, StopReason reason);

// Which heuristic fired a stop-and-shrink, for diagnostics and the ablation
// benches. kNone when growth stopped for another reason.
enum class Heuristic : std::uint8_t {
  kNone,
  kH2UpperBoundSubnet,
  kH3SingleContraPivot,
  kH4LowerBoundSubnet,
  kH6FixedEntryPoints,
  kH7UpperBoundRouter,
  kH8LowerBoundRouter,
};

std::string to_string(Heuristic heuristic);

// Compact code for journals and CSVs: "none", "H2", "H3", ...
std::string_view heuristic_code(Heuristic heuristic) noexcept;

// One subnet sketched by tracenet.
struct ObservedSubnet {
  // The observed prefix: the minimal prefix covering every member that
  // survived shrinking and H9 boundary reduction. A lone pivot yields /32 —
  // the paper's "IP addresses for which tracenet failed to grow a subnet".
  net::Prefix prefix;

  // Every collected interface address, pivot and contra-pivot included,
  // in ascending order.
  std::vector<net::Ipv4Addr> members;

  net::Ipv4Addr pivot;
  std::optional<net::Ipv4Addr> contra_pivot;
  // Entry interfaces used by H6: `ingress` from subnet positioning, `trace
  // entry` (u) from trace collection. Either may be absent (anonymous).
  std::optional<net::Ipv4Addr> ingress;
  std::optional<net::Ipv4Addr> trace_entry;

  int pivot_distance = 0;  // hop distance of the pivot from the vantage
  bool on_trace_path = true;

  StopReason stop = StopReason::kPrefixFloor;
  Heuristic stopped_by = Heuristic::kNone;
  std::uint64_t probes_used = 0;  // wire probes attributable to this subnet

  bool is_unsubnetized() const noexcept { return members.size() <= 1; }

  bool contains(net::Ipv4Addr addr) const noexcept {
    return prefix.length() < 32 && prefix.contains(addr);
  }

  // "192.168.1.0/29 {192.168.1.1*, 192.168.1.2^, ...}" (* contra, ^ pivot)
  std::string to_string() const;
};

// Streams to_string(), so a log line that is switched off builds no string.
std::ostream& operator<<(std::ostream& os, const ObservedSubnet& subnet);

// One hop of the trace-collection phase.
struct TraceHop {
  int ttl = 0;
  net::ProbeReply reply;  // reply.is_none() => anonymous hop ("*")

  bool anonymous() const noexcept { return reply.is_none(); }
};

// A traceroute-style path: the output of trace collection, and the complete
// output of the `Traceroute` baseline.
struct TracePath {
  net::Ipv4Addr destination;
  std::vector<TraceHop> hops;  // hops[i] is TTL i+1
  bool destination_reached = false;

  // Distinct responder addresses, in hop order.
  std::vector<net::Ipv4Addr> responders() const;

  std::string to_string() const;
};

// Full result of one tracenet session toward one destination.
struct SessionResult {
  TracePath path;
  std::vector<ObservedSubnet> subnets;  // in hop order, deduplicated
  std::uint64_t wire_probes = 0;        // total probes put on the wire

  // Speculation ledger for windowed/adaptive probing (docs/PROBING.md):
  // probes submitted ahead of demand by exploration prescans, and how many
  // of them the serial walk later consumed from the cache. spent - saved is
  // the session's speculative waste. Like wire_probes these vary with the
  // window policy, so they stay out of to_string()/journals — the pinned
  // outputs are window-invariant.
  std::uint64_t speculative_spent = 0;
  std::uint64_t speculative_saved = 0;
  // Adaptive-controller decision changes this run (0 without --window auto).
  std::uint64_t pace_adjustments = 0;
  std::uint64_t window_resizes = 0;

  std::string to_string() const;
};

}  // namespace tn::core
