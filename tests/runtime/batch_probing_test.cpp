// Windowed asynchronous probing (docs/PROBING.md): the batched collection
// path must be byte-identical to serial probing on stable networks, and
// concurrent waves against one shared simulator must be data-race free —
// the latter is what the TN_SANITIZE=thread CI job hammers here.
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "eval/campaign.h"
#include "eval/report.h"
#include "probe/retry.h"
#include "probe/sim_engine.h"
#include "runtime/campaign.h"
#include "sim/faults.h"
#include "testutil.h"
#include "topo/reference.h"

namespace tn::runtime {
namespace {

// The batched-vs-serial determinism contract on the two pinned reference
// topologies: identical subnets_csv bytes and identical per-subnet strings,
// whatever the in-flight window. Only wire-probe counts may differ (waves
// probe speculatively past mid-level stops), and those are excluded from
// both representations by design.
void expect_identical_csv(const eval::VantageObservations& serial,
                          const eval::VantageObservations& batched) {
  EXPECT_EQ(eval::subnets_csv(serial), eval::subnets_csv(batched));
  ASSERT_EQ(serial.subnets.size(), batched.subnets.size());
  for (std::size_t i = 0; i < serial.subnets.size(); ++i)
    EXPECT_EQ(serial.subnets[i].to_string(), batched.subnets[i].to_string());
  EXPECT_EQ(serial.unsubnetized, batched.unsubnetized);
  EXPECT_EQ(serial.targets_traced, batched.targets_traced);
  EXPECT_EQ(serial.targets_covered, batched.targets_covered);
}

TEST(BatchProbing, SubnetsCsvByteIdenticalToSerialOnReferences) {
  for (const bool geant : {false, true}) {
    const topo::ReferenceTopology ref =
        geant ? topo::geant_like(43) : topo::internet2_like(42);

    sim::Network serial_net(ref.topo);
    const eval::VantageObservations serial = test::reference_campaign(
        serial_net, ref.vantage, "utdallas", ref.targets);

    for (const int window : {4, 16, 64}) {
      sim::Network net(ref.topo);
      eval::CampaignConfig config;
      config.session.probe_window = window;
      const eval::VantageObservations batched = run_campaign(
          net, ref.vantage, "utdallas", ref.targets,
          test::serial_runtime(config));
      expect_identical_csv(serial, batched);
    }
  }
}

TEST(BatchProbing, WindowedParallelRuntimeMatchesSerialOnReferences) {
  for (const bool geant : {false, true}) {
    const topo::ReferenceTopology ref =
        geant ? topo::geant_like(43) : topo::internet2_like(42);

    sim::Network serial_net(ref.topo);
    const eval::VantageObservations serial = test::reference_campaign(
        serial_net, ref.vantage, "utdallas", ref.targets);

    sim::Network net(ref.topo);
    RuntimeConfig config;
    config.jobs = 4;
    config.campaign.session.probe_window = 16;
    MetricsRegistry registry;
    const eval::VantageObservations batched = run_campaign(
        net, ref.vantage, "utdallas", ref.targets, config, &registry);
    expect_identical_csv(serial, batched);
    // The wave instruments saw real batches.
    EXPECT_GT(registry.counter("probe.waves").value(), 0u);
    EXPECT_GT(registry.counter("probe.batched_probes").value(), 0u);
    EXPECT_GT(registry.histogram("probe.window_occupancy").count(), 0u);
  }
}

// Lossy wave through the retry layer: the whole wave goes out once, then
// only the silent subset is re-probed (as a smaller second wave with bumped
// attempt ordinals), so the wire bill is first-wave + silent, not 2x.
TEST(BatchProbing, RetryReprobesOnlyTheSilentSubsetOfALossyWave) {
  test::Fig3Topology f;
  sim::Network net(f.topo);
  net.set_faults(sim::FaultSpec::uniform_loss(0.4, 3));
  probe::SimProbeEngine engine(net, f.vantage);
  probe::RetryingProbeEngine retrying(engine, 2);

  std::vector<net::Probe> wave(64);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    wave[i].target = f.pivot3;
    wave[i].flow_id = static_cast<std::uint16_t>(i);
  }
  const auto replies = retrying.probe_batch(wave);

  // Injected end-to-end loss at 0.4: some of the wave was silent on the
  // first pass but far from all of it.
  const std::uint64_t retried = retrying.retries_used();
  ASSERT_GT(retried, 0u);
  ASSERT_LT(retried, wave.size());
  EXPECT_EQ(engine.probes_issued(), wave.size() + retried);

  // Each retry rolled an independent fate, so most of the re-probed subset
  // recovered; what is still silent after both tries is the double-loss tail.
  std::size_t silent = 0;
  for (const auto& reply : replies)
    if (reply.is_none()) ++silent;
  EXPECT_LT(silent, retried);
}

// The serial-equality contract extends to lossy networks: because fault
// draws are keyed on probe content, a windowed lossy campaign produces the
// same subnets_csv bytes as the serial lossy run of the same spec.
TEST(BatchProbing, LossySubnetsCsvByteIdenticalToSerialLossyRun) {
  for (const bool geant : {false, true}) {
    const topo::ReferenceTopology ref =
        geant ? topo::geant_like(43) : topo::internet2_like(42);
    const sim::FaultSpec spec = sim::FaultSpec::uniform_loss(0.2, 1);

    sim::Network serial_net(ref.topo);
    serial_net.set_faults(spec);
    const eval::VantageObservations serial = test::reference_campaign(
        serial_net, ref.vantage, "utdallas", ref.targets);

    for (const int window : {4, 32}) {
      sim::Network net(ref.topo);
      net.set_faults(spec);
      eval::CampaignConfig config;
      config.session.probe_window = window;
      const eval::VantageObservations batched = run_campaign(
          net, ref.vantage, "utdallas", ref.targets,
          test::serial_runtime(config));
      expect_identical_csv(serial, batched);
    }
  }
}

// TSan hammer: several threads fire overlapped waves at one shared
// sim::Network. Slot claiming, the virtual clock and the stats counters are
// the shared state under test; every wave must come back fully answered and
// the injected-probe ledger must balance exactly.
TEST(BatchProbing, ConcurrentWavesAgainstSharedNetwork) {
  test::Fig3Topology f;
  sim::Network net(f.topo);
  probe::SimProbeEngine engine(net, f.vantage);

  constexpr int kThreads = 4;
  constexpr int kWaves = 25;
  constexpr std::size_t kWaveSize = 8;

  std::vector<net::Probe> wave(kWaveSize);
  for (std::size_t i = 0; i < kWaveSize; ++i) {
    wave[i].target = f.pivot3;
    wave[i].ttl = static_cast<std::uint8_t>(1 + (i % 5));
  }

  std::vector<std::uint64_t> answered(kThreads, 0);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t]() {
      for (int w = 0; w < kWaves; ++w) {
        const auto replies = engine.probe_batch(wave);
        if (replies.size() == kWaveSize) ++answered[t];
      }
    });
  }
  for (std::thread& thread : pool) thread.join();

  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(answered[t], kWaves);
  const std::uint64_t expected = static_cast<std::uint64_t>(kThreads) * kWaves *
                                 kWaveSize;
  EXPECT_EQ(engine.probes_issued(), expected);
  EXPECT_EQ(net.stats().probes_injected, expected);
}

}  // namespace
}  // namespace tn::runtime
