// Multi-vantage ISP mapping: the §4.2 workflow as an application. Builds the
// simulated four-ISP internet, runs a tracenet campaign from each of the
// three vantage points, cross-validates the observations, and archives the
// ground-truth topology to a text file for later inspection.
#include <cstdio>
#include <fstream>

#include "eval/campaign.h"
#include "eval/crossval.h"
#include "runtime/campaign.h"
#include "topo/isp.h"
#include "topo/serialize.h"
#include "util/strings.h"
#include "util/table.h"

using namespace tn;

int main() {
  std::printf("building the simulated internet (4 ISPs, 3 vantage points)...\n");
  const topo::SimulatedInternet internet =
      topo::build_internet(topo::default_isp_profiles(), /*seed=*/7);
  std::printf("  %zu nodes, %zu subnets, %zu interfaces, %zu targets\n\n",
              internet.topo.node_count(), internet.topo.subnet_count(),
              internet.topo.interface_count(), internet.all_targets().size());

  sim::Network net(internet.topo);
  topo::install_rate_limit_plan(net, internet.rate_limit_plan);

  // One worker per campaign, with the campaign-wide reply cache off: that
  // cache answers a retry with the silence it cached for the first try, and
  // this ISP network drops replies (ROADMAP item 1).
  runtime::RuntimeConfig config;
  config.share_probe_cache = false;
  std::vector<eval::VantageObservations> observations;
  const auto targets = internet.all_targets();
  for (std::size_t v = 0; v < internet.vantages.size(); ++v) {
    config.campaign.session.flow_id = static_cast<std::uint16_t>(v + 1);
    observations.push_back(runtime::run_campaign(net, internet.vantages[v],
                                                 internet.vantage_names[v],
                                                 targets, config));
    const auto& obs = observations.back();
    std::printf("%-8s traced %zu/%zu targets, %zu subnets, %zu un-subnetized "
                "IPs, %llu probes\n",
                obs.vantage.c_str(), obs.targets_traced, obs.targets_total,
                obs.subnets.size(), obs.unsubnetized.size(),
                static_cast<unsigned long long>(obs.wire_probes));
  }

  std::printf("\ncross-validation (exact prefix agreement):\n");
  const eval::CrossValidation cv = eval::cross_validate(observations);
  util::Table table({"vantage", "subnets", "seen by all 3", "seen by >= 2"});
  for (const auto& pv : cv.per_vantage)
    table.add_row({pv.vantage, std::to_string(pv.observed),
                   util::percent(pv.seen_by_all, pv.observed),
                   util::percent(pv.seen_by_another, pv.observed)});
  std::printf("%s", table.render().c_str());

  // Archive the ground truth for offline analysis / regeneration.
  const char* path = "isp_topology.txt";
  std::ofstream file(path);
  topo::write_topology(file, internet.topo, &internet.isps[0].registry);
  std::printf("\nwrote the topology (+%s's registry) to ./%s\n",
              internet.isps[0].name.c_str(), path);
  return 0;
}
