#include "runtime/campaign.h"

#include <gtest/gtest.h>

#include <tuple>

#include "eval/report.h"
#include "sim/faults.h"
#include "sim/vtime/scheduler.h"
#include "testutil.h"
#include "topo/isp.h"
#include "topo/reference.h"

namespace tn::runtime {
namespace {

using test::ip;

// An ISP whose replies are pure functions of the probe: no flakiness, rate
// limiting or per-packet load balancing. This is the domain of the
// determinism contract (docs/RUNTIME.md) — on such networks any worker
// schedule must reproduce the serial campaign bit for bit.
topo::IspProfile clean_isp() {
  topo::IspProfile isp;
  isp.name = "CleanNet";
  isp.block = *net::Prefix::parse("20.0.0.0/12");
  isp.core_routers = 6;
  isp.border_count = 2;
  isp.subnet_counts = {{24, 2}, {26, 3}, {28, 5}, {29, 6}, {30, 16}, {31, 8}};
  isp.firewalled_fraction = 0.05;
  isp.partial_dark_fraction = 0.10;
  isp.lan_utilization = 0.7;
  isp.rate_limited_router_fraction = 0.0;
  isp.udp_responsive_fraction = 0.3;
  isp.tcp_responsive_fraction = 0.0;
  isp.multi_homed_lan_fraction = 0.1;
  isp.mesh_link_fraction = 0.4;
  isp.per_packet_lb_fraction = 0.0;
  isp.response_flakiness = 0.0;
  isp.p2p_target_fraction = 1.0;  // plenty of coverable targets
  return isp;
}

// Everything the determinism contract promises: all observation fields
// except the schedule-dependent wire-probe count.
void expect_identical_observations(const eval::VantageObservations& a,
                                   const eval::VantageObservations& b) {
  EXPECT_EQ(eval::subnets_csv(a), eval::subnets_csv(b));  // byte-identical
  EXPECT_EQ(a.unsubnetized, b.unsubnetized);
  EXPECT_EQ(a.subnetized_addrs, b.subnetized_addrs);
  EXPECT_EQ(a.prefixes(), b.prefixes());
  EXPECT_EQ(a.targets_total, b.targets_total);
  EXPECT_EQ(a.targets_traced, b.targets_traced);
  EXPECT_EQ(a.targets_responding, b.targets_responding);
  EXPECT_EQ(a.targets_covered, b.targets_covered);
  ASSERT_EQ(a.subnets.size(), b.subnets.size());
  for (std::size_t i = 0; i < a.subnets.size(); ++i)
    EXPECT_EQ(a.subnets[i].to_string(), b.subnets[i].to_string());
}

TEST(CampaignRuntime, MatchesSerialCampaignOnFig3) {
  test::Fig3Topology f;
  const std::vector<net::Ipv4Addr> targets = {f.pivot4, f.pivot3,
                                              ip("10.0.4.2")};
  sim::Network serial_net(f.topo);
  const eval::VantageObservations serial =
      test::reference_campaign(serial_net, f.vantage, "V", targets);

  for (const int jobs : {1, 2, 4}) {
    sim::Network net(f.topo);
    RuntimeConfig config;
    config.jobs = jobs;
    const eval::VantageObservations parallel =
        run_campaign(net, f.vantage, "V", targets, config);
    expect_identical_observations(serial, parallel);
  }
}

// The regression the issue asks for: jobs=1 and jobs=4 over the same
// simulated ISP agree on subnet sets and on every aggregate.
TEST(CampaignRuntime, DeterministicAcrossJobCountsOnSimulatedIsp) {
  const topo::SimulatedInternet internet =
      topo::build_internet({clean_isp()}, 11);
  const auto targets = internet.all_targets();
  ASSERT_GE(targets.size(), 20u);

  sim::Network net1(internet.topo);
  RuntimeConfig config1;
  config1.jobs = 1;
  CampaignRuntime runtime1(net1, internet.vantages.front(), config1);
  const CampaignReport report1 = runtime1.run("V", targets);

  sim::Network net4(internet.topo);
  RuntimeConfig config4;
  config4.jobs = 4;
  CampaignRuntime runtime4(net4, internet.vantages.front(), config4);
  const CampaignReport report4 = runtime4.run("V", targets);

  EXPECT_FALSE(report1.observations.subnets.empty());
  expect_identical_observations(report1.observations, report4.observations);
  // The accepted session lists agree too (same sessions a serial run keeps).
  ASSERT_EQ(report1.sessions.size(), report4.sessions.size());
  for (std::size_t i = 0; i < report1.sessions.size(); ++i)
    EXPECT_EQ(report1.sessions[i].path.destination,
              report4.sessions[i].path.destination);
}

TEST(CampaignRuntime, ByteIdenticalToSerialOnReferenceTopologies) {
  for (const bool geant : {false, true}) {
    const topo::ReferenceTopology ref =
        geant ? topo::geant_like(43) : topo::internet2_like(42);
    sim::Network serial_net(ref.topo);
    const eval::VantageObservations serial = test::reference_campaign(
        serial_net, ref.vantage, "utdallas", ref.targets);

    sim::Network parallel_net(ref.topo);
    RuntimeConfig config;
    config.jobs = 4;
    const eval::VantageObservations parallel = run_campaign(
        parallel_net, ref.vantage, "utdallas", ref.targets, config);
    expect_identical_observations(serial, parallel);
  }
}

// The premise of the single campaign driver: at one worker without the
// campaign-wide reply cache, the runtime is the serial loop probe for probe,
// on the references clean and at 20% loss, and on the seed-7 internet with
// its rate-limit plan, the three vantages run in turn on one network as the
// paper benches run them.
TEST(CampaignRuntime, JobsOneWithoutSharedCacheIsTheSerialLoop) {
  const auto expect_same = [](const eval::VantageObservations& serial,
                              const eval::VantageObservations& runtime) {
    EXPECT_FALSE(runtime.subnets.empty());
    expect_identical_observations(serial, runtime);
    EXPECT_EQ(serial.wire_probes, runtime.wire_probes);
  };

  for (const bool geant : {false, true}) {
    const topo::ReferenceTopology ref =
        geant ? topo::geant_like(43) : topo::internet2_like(42);
    for (const double loss : {0.0, 0.2}) {
      SCOPED_TRACE(ref.name + " loss=" + std::to_string(loss));
      sim::Network serial_net(ref.topo);
      sim::Network runtime_net(ref.topo);
      if (loss > 0.0) {
        serial_net.set_faults(sim::FaultSpec::uniform_loss(loss, 7));
        runtime_net.set_faults(sim::FaultSpec::uniform_loss(loss, 7));
      }
      expect_same(test::reference_campaign(serial_net, ref.vantage, "utdallas",
                                           ref.targets),
                  run_campaign(runtime_net, ref.vantage, "utdallas",
                               ref.targets, test::serial_runtime()));
    }
  }

  const topo::SimulatedInternet internet =
      topo::build_internet(topo::default_isp_profiles(), 7);
  const auto targets = internet.all_targets();
  for (const net::ProbeProtocol protocol :
       {net::ProbeProtocol::kIcmp, net::ProbeProtocol::kUdp,
        net::ProbeProtocol::kTcp}) {
    sim::Network serial_net(internet.topo);
    sim::Network runtime_net(internet.topo);
    topo::install_rate_limit_plan(serial_net, internet.rate_limit_plan);
    topo::install_rate_limit_plan(runtime_net, internet.rate_limit_plan);
    for (std::size_t v = 0; v < internet.vantages.size(); ++v) {
      SCOPED_TRACE(internet.vantage_names[v] + " " +
                   std::string(net::to_string(protocol)));
      eval::CampaignConfig config;
      config.session.protocol = protocol;
      config.session.flow_id = static_cast<std::uint16_t>(v + 1);
      expect_same(
          test::reference_campaign(serial_net, internet.vantages[v],
                                   internet.vantage_names[v], targets, config),
          run_campaign(runtime_net, internet.vantages[v],
                       internet.vantage_names[v], targets,
                       test::serial_runtime(config)));
    }
    // The loop and the runtime met the same limiters. Few routers answer
    // TCP, so only the ICMP and UDP campaigns run into them.
    if (protocol != net::ProbeProtocol::kTcp) {
      EXPECT_GT(runtime_net.stats().rate_limited, 0u);
    }
    EXPECT_EQ(serial_net.stats().rate_limited,
              runtime_net.stats().rate_limited);
  }
}

// clean_isp() with three targets per LAN: several targets share a subnet, so
// a subnet grown from one target covers the others. (With one target per LAN
// the stop set has nothing to skip and both runs spend the same probes.)
topo::IspProfile shared_lan_isp() {
  topo::IspProfile isp = clean_isp();
  isp.targets_per_lan = 3;
  return isp;
}

CampaignReport run_stop_set_campaign(const topo::SimulatedInternet& internet,
                                     int jobs, bool share_stop_set) {
  sim::Network net(internet.topo);
  RuntimeConfig config;
  config.jobs = jobs;
  config.share_stop_set = share_stop_set;
  CampaignRuntime runtime(net, internet.vantages.front(), config);
  return runtime.run("V", internet.all_targets());
}

TEST(CampaignRuntime, SharedStopSetSavesWireProbes) {
  const topo::SimulatedInternet internet =
      topo::build_internet({shared_lan_isp()}, 11);

  // Serial: the skips are a pure function of target order, so the saving is
  // strict and the same on every run.
  const CampaignReport on1 = run_stop_set_campaign(internet, 1, true);
  const CampaignReport off1 = run_stop_set_campaign(internet, 1, false);
  expect_identical_observations(on1.observations, off1.observations);
  EXPECT_LT(on1.wire_probes, off1.wire_probes);
  EXPECT_LT(on1.sessions_run, off1.sessions_run);
  EXPECT_GT(on1.stop_set_prefixes, 0u);

  // Two workers: which targets a worker skips depends on the schedule, but
  // the stop set still only sheds probe cost. The shared cache's single
  // flight sends each distinct probe once, so without the stop set the two
  // workers spend exactly the serial run's probes.
  const CampaignReport on = run_stop_set_campaign(internet, 2, true);
  const CampaignReport off = run_stop_set_campaign(internet, 2, false);
  expect_identical_observations(on.observations, off.observations);
  expect_identical_observations(on.observations, on1.observations);
  EXPECT_EQ(off.wire_probes, off1.wire_probes);
  EXPECT_LE(on.wire_probes, off.wire_probes);
  EXPECT_LE(on.sessions_run, off.sessions_run);
  EXPECT_GT(on.stop_set_prefixes, 0u);
}

// clean_isp() made order-dependent: flaky interfaces, ICMP rate limiting and
// per-packet load balancing all answer according to the order in which
// probes reach the network.
topo::IspProfile order_dependent_isp() {
  topo::IspProfile isp = clean_isp();
  isp.rate_limited_router_fraction = 0.3;
  isp.per_packet_lb_fraction = 0.2;
  isp.response_flakiness = 0.05;
  return isp;
}

// Under virtual time the scheduler gives workers their turns one at a time,
// in (deliver_at, ordinal, seq) order, so a jobs-4 campaign repeats exactly
// even where replies depend on probe order: the same subnets, wire probes
// and makespan on every run.
TEST(CampaignRuntime, VirtualTimeRepeatsExactlyOnOrderDependentNetworks) {
  const topo::SimulatedInternet internet =
      topo::build_internet({order_dependent_isp()}, 11);
  ASSERT_FALSE(internet.rate_limit_plan.empty());
  const auto run = [&] {
    sim::vtime::Scheduler scheduler;
    sim::NetworkConfig net_config;
    net_config.wall_rtt_us = 2000;
    net_config.scheduler = &scheduler;
    sim::Network net(internet.topo, net_config);
    topo::install_rate_limit_plan(net, internet.rate_limit_plan);
    RuntimeConfig config;
    config.jobs = 4;
    CampaignRuntime runtime(net, internet.vantages.front(), config);
    const CampaignReport report = runtime.run("V", internet.all_targets());
    return std::make_tuple(eval::subnets_csv(report.observations),
                           report.wire_probes, scheduler.now_us());
  };
  const auto first = run();
  EXPECT_FALSE(std::get<0>(first).empty());
  for (int repeat = 0; repeat < 3; ++repeat) EXPECT_EQ(run(), first);
}

TEST(CampaignRuntime, FastModeStillMergesInTargetOrder) {
  const topo::SimulatedInternet internet =
      topo::build_internet({clean_isp()}, 11);
  const auto targets = internet.all_targets();

  sim::Network net(internet.topo);
  RuntimeConfig config;
  config.jobs = 4;
  config.deterministic = false;
  CampaignRuntime runtime(net, internet.vantages.front(), config);
  const CampaignReport report = runtime.run("V", targets);

  EXPECT_FALSE(report.observations.subnets.empty());
  EXPECT_EQ(report.fallback_sessions, 0u);  // fast mode never re-traces
  EXPECT_EQ(report.observations.targets_traced +
                report.observations.targets_covered,
            report.observations.targets_total);
  // Subnets come out sorted by prefix (target-order merge through the
  // accumulator), whatever order workers finished in.
  for (std::size_t i = 1; i < report.observations.subnets.size(); ++i)
    EXPECT_LT(report.observations.subnets[i - 1].prefix,
              report.observations.subnets[i].prefix);
}

TEST(CampaignRuntime, PacingDoesNotChangeResults) {
  test::Fig3Topology f;
  const std::vector<net::Ipv4Addr> targets = {f.pivot4, f.pivot3,
                                              ip("10.0.4.2")};
  sim::Network plain_net(f.topo);
  RuntimeConfig plain;
  plain.jobs = 2;
  const eval::VantageObservations unpaced =
      run_campaign(plain_net, f.vantage, "V", targets, plain);

  sim::Network paced_net(f.topo);
  RuntimeConfig throttled;
  throttled.jobs = 2;
  throttled.pps = 50'000.0;  // fast enough for tests, still exercises tokens
  MetricsRegistry registry;
  const eval::VantageObservations paced = run_campaign(
      paced_net, f.vantage, "V", targets, throttled, &registry);

  expect_identical_observations(unpaced, paced);
  EXPECT_GT(registry.counter("probe.wire").value(), 0u);
}

TEST(CampaignRuntime, RecordsMetrics) {
  test::Fig3Topology f;
  sim::Network net(f.topo);
  RuntimeConfig config;
  config.jobs = 2;
  MetricsRegistry registry;
  CampaignRuntime runtime(net, f.vantage, config, &registry);
  const CampaignReport report =
      runtime.run("V", {f.pivot4, f.pivot3, ip("10.0.4.2")});

  EXPECT_EQ(registry.counter("runtime.sessions").value(), report.sessions_run);
  EXPECT_EQ(registry.counter("probe.wire").value(), report.wire_probes);
  EXPECT_EQ(registry.histogram("session.latency_us").count(),
            report.sessions_run);
  EXPECT_GT(registry.counter("probe.shared_cache.misses").value(), 0u);
  const std::string text = registry.to_text();
  EXPECT_NE(text.find("session.latency_us"), std::string::npos);
}

TEST(CampaignRuntime, EmptyTargetListIsANoop) {
  test::Fig3Topology f;
  sim::Network net(f.topo);
  RuntimeConfig config;
  config.jobs = 4;
  const eval::VantageObservations obs =
      run_campaign(net, f.vantage, "V", {}, config);
  EXPECT_TRUE(obs.subnets.empty());
  EXPECT_EQ(obs.targets_total, 0u);
}

}  // namespace
}  // namespace tn::runtime
