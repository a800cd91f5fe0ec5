#include "eval/campaign.h"

#include "probe/sim_engine.h"
#include "sim/vtime/scheduler.h"
#include "util/log.h"

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

VantageObservations run_campaign(sim::Network& network, sim::NodeId vantage,
                                 const std::string& vantage_name,
                                 const std::vector<net::Ipv4Addr>& targets,
                                 const CampaignConfig& config) {
  probe::SimProbeEngine wire(network, vantage);
  // Session-side sleeps (retry backoff, adaptive pacing) must elapse on the
  // virtual clock when the network runs under one, exactly like the RTT
  // waits — a real sleep would stall the simulated timeline.
  core::SessionConfig session_config = config.session;
  if (session_config.clock == nullptr && network.scheduler() != nullptr)
    session_config.clock = network.scheduler();
  core::TracenetSession session(wire, session_config);
  CampaignAccumulator acc(vantage_name, targets.size());

  const sim::FaultSpec& faults = network.faults();
  for (std::size_t index = 0; index < targets.size(); ++index) {
    const net::Ipv4Addr target = targets[index];
    // Routing-churn epoch: a pure function of the target's schedule
    // position, so every schedule (serial, windowed, parallel) stamps the
    // same epoch on the same target (sim/faults.h).
    session.set_epoch(faults.epoch_of(index));
    if (config.skip_covered_targets && acc.covered(target)) {
      acc.note_covered();
      continue;
    }
    acc.add(session.run(target));
  }

  VantageObservations out = acc.finalize();
  out.wire_probes = wire.probes_issued();
  util::log(util::LogLevel::kInfo, "campaign", vantage_name, ": ",
            out.subnets.size(), " subnets, ", out.unsubnetized.size(),
            " un-subnetized, ", out.wire_probes, " probes over ",
            out.targets_traced, "/", out.targets_total, " targets");
  return out;
}

}  // namespace tn::eval
