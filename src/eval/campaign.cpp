#include "eval/campaign.h"

namespace tn::eval {

std::set<net::Prefix> VantageObservations::prefixes() const {
  std::set<net::Prefix> out;
  for (const core::ObservedSubnet& subnet : subnets) out.insert(subnet.prefix);
  return out;
}

CampaignAccumulator::CampaignAccumulator(std::string vantage_name,
                                         std::size_t targets_total) {
  out_.vantage = std::move(vantage_name);
  out_.targets_total = targets_total;
}

bool CampaignAccumulator::covered(net::Ipv4Addr addr) const {
  return covered_.covers(addr);
}

void CampaignAccumulator::add(const core::SessionResult& result) {
  ++out_.targets_traced;
  if (result.path.destination_reached) ++out_.targets_responding;

  // Deduplicate observations by prefix, keeping the richest member set (the
  // paper reports each subnet once however many paths crossed it).
  for (const core::ObservedSubnet& subnet : result.subnets) {
    if (subnet.prefix.length() == 32) {
      out_.unsubnetized.insert(subnet.pivot);
      continue;
    }
    const auto [it, inserted] = by_prefix_.emplace(subnet.prefix, subnet);
    if (inserted)
      covered_.insert(subnet.prefix, 0);
    else if (subnet.members.size() > it->second.members.size())
      it->second = subnet;
  }
}

VantageObservations CampaignAccumulator::finalize() {
  for (const auto& [prefix, subnet] : by_prefix_) {
    out_.subnetized_addrs.insert(subnet.members.begin(), subnet.members.end());
    out_.subnets.push_back(subnet);
  }
  // An address inside some grown subnet is not "un-subnetized" even if one
  // session failed to grow around it.
  for (auto it = out_.unsubnetized.begin(); it != out_.unsubnetized.end();) {
    it = out_.subnetized_addrs.contains(*it) ? out_.unsubnetized.erase(it)
                                             : std::next(it);
  }
  return std::move(out_);
}

}  // namespace tn::eval
