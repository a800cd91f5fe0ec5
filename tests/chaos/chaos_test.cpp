// Chaos suite: the pinned reference topologies under a fault grid.
//
// Invariants enforced here:
//   * zero faults are exactly free — with every fault probability zero the
//     campaign's subnets_csv is byte-identical to the fault-free output,
//     pinned by FNV-1a64 hash and byte count (the pre-fault-injection
//     golden values);
//   * lossy runs are deterministic — the same (topology, spec, seed) triple
//     replays byte-identically, serial and parallel alike;
//   * loss never helps — ground-truth accuracy under faults never exceeds
//     the clean run's accuracy, at any grid point;
//   * every observed subnet still contains its pivot;
//   * the fault metrics are live — a lossy campaign reports nonzero
//     probe.drops / probe.retries / trace.anonymous_hops.
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "eval/campaign.h"
#include "eval/classification.h"
#include "eval/scorecard.h"
#include "eval/report.h"
#include "probe/sim_engine.h"
#include "runtime/campaign.h"
#include "runtime/metrics.h"
#include "sim/faults.h"
#include "sim/network.h"
#include "sim/vtime/scheduler.h"
#include "testutil.h"
#include "topo/reference.h"

namespace tn {
namespace {

// FNV-1a64: dependency-free content pin for the golden CSVs.
std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

// Golden pins of the fault-free serial campaign's subnets_csv on the pinned
// references, captured before fault injection existed. The zero-fault path
// must reproduce these bytes exactly.
constexpr std::uint64_t kInternet2CsvHash = 0x25A7E62AEE858F8EULL;
constexpr std::size_t kInternet2CsvBytes = 19013;
constexpr std::uint64_t kGeantCsvHash = 0x27A66CA1EE6F77DEULL;
constexpr std::size_t kGeantCsvBytes = 19285;

topo::ReferenceTopology reference(bool geant) {
  return geant ? topo::geant_like(43) : topo::internet2_like(42);
}

eval::VantageObservations run_with_faults(const topo::ReferenceTopology& ref,
                                          const sim::FaultSpec& spec) {
  sim::Network net(ref.topo);
  net.set_faults(spec);
  return runtime::run_campaign(net, ref.vantage, "utdallas", ref.targets,
                               test::serial_runtime());
}

TEST(ChaosZeroFault, SubnetsCsvMatchesPrePrGoldenPins) {
  for (const bool geant : {false, true}) {
    const topo::ReferenceTopology ref = reference(geant);

    // Entirely without faults, and with a spec whose probabilities are all
    // zero (which must disable itself): identical golden bytes either way.
    sim::Network plain_net(ref.topo);
    const std::string plain = eval::subnets_csv(runtime::run_campaign(
        plain_net, ref.vantage, "utdallas", ref.targets,
        test::serial_runtime()));
    const std::string zeroed = eval::subnets_csv(
        run_with_faults(ref, sim::FaultSpec::uniform_loss(0.0, 99)));

    EXPECT_EQ(plain, zeroed);
    EXPECT_EQ(plain.size(), geant ? kGeantCsvBytes : kInternet2CsvBytes);
    EXPECT_EQ(fnv1a64(plain), geant ? kGeantCsvHash : kInternet2CsvHash);
  }
}

TEST(ChaosGrid, LossyRunsAreDeterministicAndAnchored) {
  for (const bool geant : {false, true}) {
    const topo::ReferenceTopology ref = reference(geant);
    for (const double loss : {0.05, 0.2}) {
      for (const std::uint64_t seed : {1ULL, 2ULL}) {
        const sim::FaultSpec spec = sim::FaultSpec::uniform_loss(loss, seed);
        const eval::VantageObservations first = run_with_faults(ref, spec);
        const eval::VantageObservations second = run_with_faults(ref, spec);
        EXPECT_EQ(eval::subnets_csv(first), eval::subnets_csv(second))
            << ref.name << " loss=" << loss << " seed=" << seed;

        for (const core::ObservedSubnet& subnet : first.subnets) {
          EXPECT_TRUE(subnet.prefix.contains(subnet.pivot))
              << subnet.to_string();
          EXPECT_FALSE(subnet.members.empty());
        }
      }
    }
  }
}

TEST(ChaosGrid, AccuracyNeverImprovesUnderLoss) {
  for (const bool geant : {false, true}) {
    const topo::ReferenceTopology ref = reference(geant);

    // Clean baseline, classified against ground truth with a fault-free
    // audit network.
    sim::Network clean_net(ref.topo);
    const eval::VantageObservations clean = runtime::run_campaign(
        clean_net, ref.vantage, "utdallas", ref.targets,
        test::serial_runtime());
    sim::Network audit_net(ref.topo);
    probe::SimProbeEngine audit(audit_net, ref.vantage);
    const double clean_rate =
        eval::classify(ref.registry, clean.subnets, audit).exact_rate();

    for (const double loss : {0.05, 0.2}) {
      for (const std::uint64_t seed : {1ULL, 2ULL}) {
        const eval::VantageObservations lossy =
            run_with_faults(ref, sim::FaultSpec::uniform_loss(loss, seed));
        const double lossy_rate =
            eval::classify(ref.registry, lossy.subnets, audit).exact_rate();
        EXPECT_LE(lossy_rate, clean_rate)
            << ref.name << " loss=" << loss << " seed=" << seed;
      }
    }
  }
}

TEST(ChaosGrid, AnonymousAndRateLimitedScenarioStaysDeterministic) {
  const topo::ReferenceTopology ref = reference(false);
  sim::FaultSpec spec = sim::FaultSpec::uniform_loss(0.1, 7);
  spec.default_policy.reply_loss = 0.05;
  spec.default_policy.icmp_rate = 5000.0;
  spec.default_policy.icmp_burst = 64.0;
  // Make a couple of mid-path routers anonymous.
  int marked = 0;
  for (sim::NodeId id = 0; id < ref.topo.node_count() && marked < 2; ++id) {
    if (ref.topo.node(id).is_host) continue;
    if (id % 7 == 3) {
      spec.node_overrides[id].anonymous = true;
      ++marked;
    }
  }
  ASSERT_GT(marked, 0);

  const eval::VantageObservations first = run_with_faults(ref, spec);
  const eval::VantageObservations second = run_with_faults(ref, spec);
  EXPECT_EQ(eval::subnets_csv(first), eval::subnets_csv(second));
  for (const core::ObservedSubnet& subnet : first.subnets)
    EXPECT_TRUE(subnet.prefix.contains(subnet.pivot)) << subnet.to_string();
}

TEST(ChaosGrid, VirtualTimeLossyCampaignMatchesWallBytes) {
  // Virtual time joins the chaos grid: a parallel campaign at a live-like
  // RTT under 20% loss, waits elapsing on the discrete-event scheduler,
  // must reproduce the wall run's subnets_csv byte for byte — and the clean
  // virtual run must still hit the pre-fault-injection golden pins.
  for (const bool geant : {false, true}) {
    const topo::ReferenceTopology ref = reference(geant);

    const auto virtual_csv = [&](double loss) {
      sim::vtime::Scheduler scheduler;
      sim::NetworkConfig net_config;
      net_config.wall_rtt_us = 2000;
      net_config.scheduler = &scheduler;
      sim::Network net(ref.topo, net_config);
      if (loss > 0.0) net.set_faults(sim::FaultSpec::uniform_loss(loss, 7));
      runtime::RuntimeConfig config;
      config.jobs = 4;
      config.campaign.session.probe_window = 16;
      return eval::subnets_csv(runtime::run_campaign(
          net, ref.vantage, "utdallas", ref.targets, config));
    };

    const std::string clean = virtual_csv(0.0);
    EXPECT_EQ(clean.size(), geant ? kGeantCsvBytes : kInternet2CsvBytes);
    EXPECT_EQ(fnv1a64(clean), geant ? kGeantCsvHash : kInternet2CsvHash);

    const eval::VantageObservations wall =
        run_with_faults(ref, sim::FaultSpec::uniform_loss(0.2, 7));
    EXPECT_EQ(eval::subnets_csv(wall), virtual_csv(0.2)) << ref.name;
  }
}

TEST(ChaosMetrics, LossyCampaignReportsDropsRetriesAndAnonymousHops) {
  const topo::ReferenceTopology ref = reference(false);
  sim::Network net(ref.topo);
  net.set_faults(sim::FaultSpec::uniform_loss(0.2, 1));

  runtime::RuntimeConfig config;
  runtime::MetricsRegistry registry;
  runtime::CampaignRuntime rt(net, ref.vantage, config, &registry);
  const runtime::CampaignReport report = rt.run("utdallas", ref.targets);

  EXPECT_FALSE(report.observations.subnets.empty());
  EXPECT_GT(registry.counter("probe.drops").value(), 0u);
  EXPECT_GT(registry.counter("probe.retries").value(), 0u);
  EXPECT_GT(registry.counter("trace.anonymous_hops").value(), 0u);
  // The network ledger agrees with the metric.
  EXPECT_EQ(registry.counter("probe.drops").value(),
            net.stats().fault_drops());
}

TEST(ChaosMetrics, ParallelLossyRuntimeMatchesSerialLossyRun) {
  for (const bool geant : {false, true}) {
    const topo::ReferenceTopology ref = reference(geant);
    const sim::FaultSpec spec = sim::FaultSpec::uniform_loss(0.2, 1);

    sim::Network serial_net(ref.topo);
    serial_net.set_faults(spec);
    const eval::VantageObservations serial = test::reference_campaign(
        serial_net, ref.vantage, "utdallas", ref.targets);

    sim::Network net(ref.topo);
    net.set_faults(spec);
    runtime::RuntimeConfig config;
    config.jobs = 4;
    config.campaign.session.probe_window = 16;
    runtime::MetricsRegistry registry;
    const eval::VantageObservations parallel = runtime::run_campaign(
        net, ref.vantage, "utdallas", ref.targets, config, &registry);

    EXPECT_EQ(eval::subnets_csv(serial), eval::subnets_csv(parallel))
        << ref.name;
  }
}

TEST(ChaosAccuracy, ScorecardJsonInvariantAcrossJobsAndWindow) {
  // The accuracy lab joins the chaos grid: the emitted ACCURACY JSON for a
  // lossy sub-grid (20% loss, both references) must be byte-identical
  // across --jobs {1, 4} x --window {1, 16}. The scorecard excludes every
  // schedule-dependent quantity by construction; this pins that it stays
  // that way end to end, classifier and audit included.
  std::vector<eval::ScenarioCell> sub_grid;
  for (const char* topology : {"internet2", "geant"}) {
    eval::ScenarioCell cell;
    cell.scenario = "loss20";
    cell.topology = topology;
    cell.fault_spec = "seed 11\ndefault loss=0.20\n";
    cell.tolerance = 0.12;
    sub_grid.push_back(std::move(cell));
  }

  std::string first;
  for (const int jobs : {1, 4}) {
    for (const int window : {1, 16}) {
      eval::ScorecardRunConfig config;
      config.jobs = jobs;
      config.probe_window = window;
      const std::string json = eval::run_grid(sub_grid, config).to_json();
      if (first.empty()) first = json;
      EXPECT_EQ(json, first) << "jobs=" << jobs << " window=" << window;
    }
  }
  EXPECT_FALSE(first.empty());
}

TEST(ChaosGrid, HiddenHopsAndChurnReplayByteIdenticallyToGoldenPins) {
  // The two spec-level fault mechanisms — MPLS-like hop hiding and
  // mid-campaign routing churn — must replay byte-identically across
  // serial, windowed, parallel and virtual-time schedules, anchored by
  // golden subnets_csv hashes so the mechanisms cannot silently rot into
  // no-ops (each run must also report its mechanism's ledger counter).
  struct Pinned {
    const char* name;
    const char* spec;
    std::uint64_t csv_hash[2];  // [internet2, geant]
  };
  const Pinned kMechanisms[] = {
      // Hiding hops 3-4 shifts every deeper hop two TTLs earlier, so the
      // collected csv moves off the clean pins to its own goldens.
      {"hide", "seed 29\nhide 3-4\n",
       {0x58A4D9B6E0B27B81ULL, 0xCF62BB291D323BEFULL}},
      // Churn re-rolls ECMP tie-breaks among equal-cost next hops. The
      // pinned references route every target over a unique shortest path
      // (no equal-cost sets), so churn must leave their csv exactly on the
      // clean goldens — the re-roll firing on real ECMP sets is proven on
      // the diamond in fault_policy_test.
      {"churn", "seed 23\nchurn epoch=90000 fraction=0.5\n",
       {0x25A7E62AEE858F8EULL, 0x27A66CA1EE6F77DEULL}},
  };

  for (const Pinned& mechanism : kMechanisms) {
    for (const bool geant : {false, true}) {
      const topo::ReferenceTopology ref = reference(geant);
      std::istringstream spec_in(mechanism.spec);
      const sim::FaultSpec spec =
          sim::parse_fault_spec(spec_in, ref.topo, mechanism.name);

      // Serial, wall clock, window 1 — the anchor run.
      sim::Network serial_net(ref.topo);
      serial_net.set_faults(spec);
      const std::string serial = eval::subnets_csv(test::reference_campaign(
          serial_net, ref.vantage, "utdallas", ref.targets));
      EXPECT_EQ(fnv1a64(serial), mechanism.csv_hash[geant ? 1 : 0])
          << mechanism.name << " " << ref.name;
      const sim::NetworkStats stats = serial_net.stats();
      if (std::string_view(mechanism.name) == "hide") {
        EXPECT_GT(stats.fault_hidden_hops, 0u) << ref.name;
      } else {
        // No equal-cost sets on the references: the salt never evaluates,
        // and the clean-golden match above is exact, not coincidental.
        EXPECT_EQ(stats.fault_churned_picks, 0u) << ref.name;
      }

      // Windowed serial.
      sim::Network windowed_net(ref.topo);
      windowed_net.set_faults(spec);
      eval::CampaignConfig windowed_config;
      windowed_config.session.probe_window = 16;
      EXPECT_EQ(serial, eval::subnets_csv(runtime::run_campaign(
                            windowed_net, ref.vantage, "utdallas", ref.targets,
                            test::serial_runtime(windowed_config))))
          << mechanism.name << " " << ref.name;

      // Parallel, windowed, on the virtual clock at a live-like RTT.
      sim::vtime::Scheduler scheduler;
      sim::NetworkConfig net_config;
      net_config.wall_rtt_us = 2000;
      net_config.scheduler = &scheduler;
      sim::Network parallel_net(ref.topo, net_config);
      parallel_net.set_faults(spec);
      runtime::RuntimeConfig runtime_config;
      runtime_config.jobs = 4;
      runtime_config.campaign.session.probe_window = 16;
      EXPECT_EQ(serial, eval::subnets_csv(runtime::run_campaign(
                            parallel_net, ref.vantage, "utdallas",
                            ref.targets, runtime_config)))
          << mechanism.name << " " << ref.name;
    }
  }
}

}  // namespace
}  // namespace tn
