#include "core/multipath.h"

#include <map>

#include "net/prefix_index.h"
#include "probe/cache.h"
#include "probe/retry.h"
#include "util/log.h"

namespace tn::core {

std::size_t MultipathResult::diamond_count() const {
  std::size_t count = 0;
  for (const MultipathHop& hop : hops) count += hop.responders.size() > 1;
  return count;
}

std::size_t MultipathResult::interface_count() const {
  std::set<net::Ipv4Addr> distinct;
  for (const MultipathHop& hop : hops)
    distinct.insert(hop.responders.begin(), hop.responders.end());
  return distinct.size();
}

MultipathResult MultipathDiscovery::run(net::Ipv4Addr destination) {
  MultipathResult result;
  result.destination = destination;

  int anonymous_run = 0;
  for (int ttl = 1; ttl <= max_ttl_; ++ttl) {
    MultipathHop hop;
    hop.ttl = ttl;
    std::set<net::Ipv4Addr> seen;
    bool all_flows_delivered = true;
    net::Probe probe = prober_.make(destination, ttl);
    for (int flow = 0; flow < kFlowsPerHop; ++flow) {
      probe.flow_id = static_cast<std::uint16_t>(flow + 1);
      const net::ProbeReply reply = prober_.engine.probe(probe);
      if (reply.is_none()) {
        all_flows_delivered = false;
        continue;
      }
      const bool delivered =
          prober_.alive(reply) || reply.responder == destination;
      if (delivered) hop.destination_among_them = true;
      else all_flows_delivered = false;
      if (seen.insert(reply.responder).second)
        hop.responders.push_back(reply.responder);
    }
    result.hops.push_back(hop);

    if (hop.destination_among_them && all_flows_delivered) {
      result.destination_reached = true;
      break;
    }
    if (hop.destination_among_them) {
      // Unequal-length diamond: some flows still in transit. Keep walking
      // one more hop for them, but the destination counts as reached.
      result.destination_reached = true;
    }
    if (hop.responders.empty()) {
      if (++anonymous_run >= kAnonymousGapLimit) break;
    } else {
      anonymous_run = 0;
    }
    if (result.destination_reached && hop.responders.size() <= 1) break;
  }
  return result;
}

MultipathTracenetSession::MultipathTracenetSession(
    probe::ProbeEngine& wire_engine, MultipathConfig config)
    : wire_engine_(wire_engine), config_(config) {}

MultipathSessionResult MultipathTracenetSession::run(
    net::Ipv4Addr destination) {
  const std::uint64_t wire_before = wire_engine_.probes_issued();

  probe::RetryingProbeEngine retry(wire_engine_, 2);
  probe::CachingProbeEngine cached(retry);

  // One flow for positioning and exploration, as in a single-path session;
  // only discovery varies it.
  Prober prober(cached);
  prober.protocol = config_.protocol;
  prober.epoch = epoch_;

  MultipathSessionResult result;
  MultipathDiscovery discovery(prober, config_.max_ttl);
  result.paths = discovery.run(destination);

  SubnetPositioner positioner(prober);
  SubnetExplorer explorer(prober);

  std::map<net::Prefix, ObservedSubnet> by_prefix;
  net::NestedPrefixIndex covered;  // by_prefix's non-/32 keys
  std::optional<net::Ipv4Addr> previous;  // single-responder previous hop
  for (const MultipathHop& hop : result.paths.hops) {
    for (const net::Ipv4Addr v : hop.responders) {
      if (covered.covers(v)) continue;
      const Position position = positioner.position(previous, v, hop.ttl);
      ObservedSubnet subnet = explorer.explore(position);
      if (subnet.prefix.length() < 32) covered.insert(subnet.prefix, 0);
      const auto [it, inserted] = by_prefix.emplace(subnet.prefix, subnet);
      if (!inserted && subnet.members.size() > it->second.members.size())
        it->second = std::move(subnet);
    }
    // H6's u is only meaningful when the hop had a single responder.
    previous = hop.responders.size() == 1
                   ? std::optional<net::Ipv4Addr>(hop.responders.front())
                   : std::nullopt;
  }

  result.subnets.reserve(by_prefix.size());
  for (auto& [prefix, subnet] : by_prefix)
    result.subnets.push_back(std::move(subnet));
  result.wire_probes = wire_engine_.probes_issued() - wire_before;

  util::log(util::LogLevel::kInfo, "multipath", "collected ",
            result.subnets.size(), " subnets over ",
            result.paths.diamond_count(), " diamonds toward ", destination);
  return result;
}

}  // namespace tn::core
