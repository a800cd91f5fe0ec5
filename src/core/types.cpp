#include "core/types.h"

#include <sstream>

namespace tn::core {

std::string_view to_string(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kShrink: return "shrink";
    case StopReason::kUnderUtilized: return "under-utilized";
    case StopReason::kPrefixFloor: return "prefix-floor";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, StopReason reason) {
  return os << to_string(reason);
}

std::string to_string(Heuristic heuristic) {
  switch (heuristic) {
    case Heuristic::kNone: return "none";
    case Heuristic::kH2UpperBoundSubnet: return "H2 upper-bound subnet contiguity";
    case Heuristic::kH3SingleContraPivot: return "H3 single contra-pivot";
    case Heuristic::kH4LowerBoundSubnet: return "H4 lower-bound subnet contiguity";
    case Heuristic::kH6FixedEntryPoints: return "H6 fixed entry points";
    case Heuristic::kH7UpperBoundRouter: return "H7 upper-bound router contiguity";
    case Heuristic::kH8LowerBoundRouter: return "H8 lower-bound router contiguity";
  }
  return "?";
}

std::string_view heuristic_code(Heuristic heuristic) noexcept {
  switch (heuristic) {
    case Heuristic::kNone: return "none";
    case Heuristic::kH2UpperBoundSubnet: return "H2";
    case Heuristic::kH3SingleContraPivot: return "H3";
    case Heuristic::kH4LowerBoundSubnet: return "H4";
    case Heuristic::kH6FixedEntryPoints: return "H6";
    case Heuristic::kH7UpperBoundRouter: return "H7";
    case Heuristic::kH8LowerBoundRouter: return "H8";
  }
  return "?";
}

std::string ObservedSubnet::to_string() const {
  std::ostringstream os;
  os << prefix.to_string() << " {";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i) os << ", ";
    os << members[i].to_string();
    if (members[i] == pivot) os << "^";
    if (contra_pivot && members[i] == *contra_pivot) os << "*";
  }
  os << "}";
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const ObservedSubnet& subnet) {
  return os << subnet.to_string();
}

std::vector<net::Ipv4Addr> TracePath::responders() const {
  std::vector<net::Ipv4Addr> out;
  for (const TraceHop& hop : hops)
    if (!hop.anonymous()) out.push_back(hop.reply.responder);
  return out;
}

std::string TracePath::to_string() const {
  std::ostringstream os;
  os << "trace to " << destination.to_string()
     << (destination_reached ? "" : " (incomplete)") << "\n";
  for (const TraceHop& hop : hops) {
    os << "  " << hop.ttl << "  "
       << (hop.anonymous() ? "*" : hop.reply.responder.to_string()) << "\n";
  }
  return os.str();
}

std::string SessionResult::to_string() const {
  std::ostringstream os;
  os << "tracenet to " << path.destination.to_string()
     << (path.destination_reached ? "" : " (incomplete)") << ", "
     << wire_probes << " probes\n";
  for (const ObservedSubnet& subnet : subnets)
    os << "  hop " << subnet.pivot_distance << "  " << subnet.to_string()
       << (subnet.on_trace_path ? "" : "  [off-path]") << "\n";
  return os.str();
}

}  // namespace tn::core
