// The adaptive probing policy's end-to-end determinism contract
// (docs/PROBING.md, "Adaptive policy"): `--window auto` campaigns produce
// byte-identical subnets_csv and merged journals across serial/parallel
// schedules and wall/virtual clocks — on a clean network AND at 20%
// injected loss — and identical to the window=1 serial walk, because the
// controller's inputs are all schedule-invariant and prescans only warm the
// session probe cache.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "eval/campaign.h"
#include "eval/report.h"
#include "runtime/campaign.h"
#include "sim/faults.h"
#include "sim/network.h"
#include "sim/vtime/scheduler.h"
#include "testutil.h"
#include "topo/reference.h"
#include "trace/journal.h"

namespace tn {
namespace {

struct AdaptiveRun {
  std::string csv;
  std::string journal;
  std::uint64_t speculative_spent = 0;
  std::uint64_t speculative_saved = 0;
  std::uint64_t window_resizes = 0;
};

AdaptiveRun run_adaptive(const topo::ReferenceTopology& ref, bool lossy,
                         int jobs, bool virtual_time) {
  sim::vtime::Scheduler scheduler;
  sim::NetworkConfig net_config;
  if (virtual_time) {
    net_config.wall_rtt_us = 2'000;
    net_config.scheduler = &scheduler;
  }
  sim::Network net(ref.topo, net_config);
  if (lossy) net.set_faults(sim::FaultSpec::uniform_loss(0.2, 7));

  runtime::RuntimeConfig config;
  config.jobs = jobs;
  config.campaign.session.adaptive.enabled = true;
  trace::JsonlTraceWriter writer(trace::Level::kSession, false, nullptr);
  config.trace_sink = &writer;
  runtime::MetricsRegistry metrics;
  runtime::CampaignRuntime runtime(net, ref.vantage, config, &metrics);

  AdaptiveRun out;
  out.csv = eval::subnets_csv(runtime.run("utdallas", ref.targets).observations);
  out.journal = writer.merged();
  out.speculative_spent = metrics.counter("probe.speculative_spent").value();
  out.speculative_saved = metrics.counter("probe.speculative_saved").value();
  out.window_resizes = metrics.counter("probe.window_resizes").value();
  return out;
}

std::string run_window1(const topo::ReferenceTopology& ref, bool lossy) {
  sim::Network net(ref.topo);
  if (lossy) net.set_faults(sim::FaultSpec::uniform_loss(0.2, 7));
  return eval::subnets_csv(
      test::reference_campaign(net, ref.vantage, "utdallas", ref.targets));
}

TEST(AdaptiveCampaign, ByteIdenticalAcrossSchedulesAndClocksCleanAndLossy) {
  const topo::ReferenceTopology ref = topo::internet2_like(42);
  for (const bool lossy : {false, true}) {
    SCOPED_TRACE(lossy ? "20% loss" : "clean");
    // Reference point: the wall-clock serial adaptive run.
    const AdaptiveRun reference = run_adaptive(ref, lossy, 1, false);
    EXPECT_GT(reference.speculative_spent, 0u);
    EXPECT_GT(reference.speculative_saved, 0u);
    EXPECT_GT(reference.window_resizes, 0u);

    // ...must equal the serial walk's output byte for byte: the policy only
    // moves probes in time.
    EXPECT_EQ(reference.csv, run_window1(ref, lossy));

    for (const int jobs : {1, 4}) {
      for (const bool virtual_time : {false, true}) {
        if (jobs == 1 && !virtual_time) continue;  // the reference itself
        SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                     (virtual_time ? " virtual" : " wall"));
        const AdaptiveRun run = run_adaptive(ref, lossy, jobs, virtual_time);
        EXPECT_EQ(run.csv, reference.csv);
        EXPECT_EQ(run.journal, reference.journal);
      }
    }
  }
}

TEST(AdaptiveCampaign, EvalSerialPathMatchesRuntime) {
  // The serial reference loop (one session, no runtime) wires the controller
  // too; its collected subnets must match the runtime's byte for byte.
  const topo::ReferenceTopology ref = topo::internet2_like(42);
  sim::Network net(ref.topo);
  net.set_faults(sim::FaultSpec::uniform_loss(0.2, 7));
  eval::CampaignConfig config;
  config.session.adaptive.enabled = true;
  const std::string csv = eval::subnets_csv(test::reference_campaign(
      net, ref.vantage, "utdallas", ref.targets, config));
  EXPECT_EQ(csv, run_adaptive(ref, /*lossy=*/true, 1, false).csv);
}

}  // namespace
}  // namespace tn
