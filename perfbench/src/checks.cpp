#include "checks.h"

#include <set>

namespace perfbench {

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::vector<std::string> check_observations(
    const tn::eval::VantageObservations& observations) {
  std::vector<std::string> problems;
  const std::string where = observations.vantage + ": ";
  std::set<tn::net::Prefix> seen;
  for (const tn::core::ObservedSubnet& subnet : observations.subnets) {
    const std::string name = subnet.prefix.to_string();
    if (!subnet.prefix.contains(subnet.pivot))
      problems.push_back(where + name + " does not contain its pivot " +
                         subnet.pivot.to_string());
    for (const tn::net::Ipv4Addr member : subnet.members)
      if (!subnet.prefix.contains(member))
        problems.push_back(where + name + " does not contain its member " +
                           member.to_string());
    if (!seen.insert(subnet.prefix).second)
      problems.push_back(where + name + " is listed twice");
  }
  if (observations.targets_traced + observations.targets_covered !=
      observations.targets_total)
    problems.push_back(where + std::to_string(observations.targets_traced) +
                       " traced + " +
                       std::to_string(observations.targets_covered) +
                       " covered != " +
                       std::to_string(observations.targets_total) + " targets");
  return problems;
}

}  // namespace perfbench
