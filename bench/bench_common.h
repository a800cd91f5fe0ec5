// Shared plumbing for the experiment benches: campaign runners and table
// formatting used by every bench_* binary.  Each binary regenerates one
// table or figure of the paper and prints the paper's reported values next
// to the measured ones.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "eval/campaign.h"
#include "eval/classification.h"
#include "eval/report.h"
#include "probe/retry.h"
#include "probe/sim_engine.h"
#include "runtime/campaign.h"
#include "sim/network.h"
#include "topo/isp.h"
#include "topo/reference.h"
#include "util/table.h"

namespace tn::bench {

inline constexpr std::uint64_t kInternet2Seed = 42;
inline constexpr std::uint64_t kGeantSeed = 43;
inline constexpr std::uint64_t kInternetSeed = 7;

// Wall vs simulated wire-time split (docs/SIMULATION.md). Under the
// virtual-time scheduler a campaign's RTT waits elapse on the simulated
// clock, so a bench reports two durations: what the process actually spent
// (wall) and how much wire time the run covered (sim wire). In wall-sleep
// mode the two coincide — every emulated microsecond burns a real one —
// which is exactly what speedup_vs_wire() measures the escape from.
struct WireTiming {
  double wall_ms = 0.0;      // process wall-clock spent on the run
  double sim_wire_ms = 0.0;  // simulated (or slept) wire time covered

  double speedup_vs_wire() const {
    return wall_ms > 0.0 ? sim_wire_ms / wall_ms : 0.0;
  }
};

// The paper benches run each campaign serially: the campaign runtime at one
// worker with the campaign-wide reply cache off, because that cache answers
// a retry with the silence it cached for the first try (ROADMAP item 1).
inline runtime::RuntimeConfig serial_campaign(
    eval::CampaignConfig campaign = {}) {
  runtime::RuntimeConfig config;
  config.campaign = std::move(campaign);
  config.share_probe_cache = false;
  return config;
}

struct ReferenceRun {
  topo::ReferenceTopology ref;
  eval::VantageObservations observations;
  eval::Classification classification;
};

// Runs the full single-vantage campaign over a reference topology and
// classifies the result against ground truth (the §4.1 methodology).
inline ReferenceRun run_reference(topo::ReferenceTopology ref) {
  ReferenceRun run{std::move(ref), {}, {}};
  sim::Network net(run.ref.topo);
  run.observations = runtime::run_campaign(net, run.ref.vantage, "utdallas",
                                           run.ref.targets, serial_campaign());
  probe::SimProbeEngine audit_wire(net, run.ref.vantage);
  probe::RetryingProbeEngine audit(audit_wire, 2);
  run.classification =
      eval::classify(run.ref.registry, run.observations.subnets, audit);
  return run;
}

struct InternetRun {
  topo::SimulatedInternet internet;
  std::vector<eval::VantageObservations> vantages;
};

// Runs the three-vantage, four-ISP campaign of §4.2.
inline InternetRun run_internet(
    net::ProbeProtocol protocol = net::ProbeProtocol::kIcmp,
    int vantage_count = 3) {
  InternetRun run{topo::build_internet(topo::default_isp_profiles(),
                                       kInternetSeed),
                  {}};
  sim::Network net(run.internet.topo);
  topo::install_rate_limit_plan(net, run.internet.rate_limit_plan);

  const auto targets = run.internet.all_targets();
  for (int v = 0; v < vantage_count; ++v) {
    eval::CampaignConfig config;
    config.session.protocol = protocol;
    config.session.flow_id = static_cast<std::uint16_t>(v + 1);
    run.vantages.push_back(runtime::run_campaign(
        net, run.internet.vantages[static_cast<std::size_t>(v)],
        run.internet.vantage_names[static_cast<std::size_t>(v)], targets,
        serial_campaign(config)));
  }
  return run;
}

// Prints one original-vs-collected distribution table (Tables 1 and 2).
inline void print_distribution_table(const char* title,
                                     const eval::Classification& cls,
                                     int min_prefix, int max_prefix) {
  std::printf("== %s ==\n%s", title,
              eval::render_distribution(cls, min_prefix, max_prefix).c_str());
}

// Which ISP block contains this prefix, or -1.
inline int isp_of(const topo::SimulatedInternet& /*internet*/,
                  const net::Prefix& prefix) {
  const auto profiles = topo::default_isp_profiles();
  for (std::size_t i = 0; i < profiles.size(); ++i)
    if (profiles[i].block.contains(prefix)) return static_cast<int>(i);
  return -1;
}

}  // namespace tn::bench
