#include "eval/report.h"

#include <gtest/gtest.h>

#include "probe/retry.h"
#include "probe/sim_engine.h"
#include "runtime/campaign.h"
#include "testutil.h"
#include "topo/reference.h"

namespace tn::eval {
namespace {

TEST(Report, SubnetsCsvHasOneRowPerSubnet) {
  test::Fig3Topology f;
  sim::Network net(f.topo);
  const VantageObservations obs = runtime::run_campaign(
      net, f.vantage, "V", {f.pivot4}, test::serial_runtime());
  const std::string csv = subnets_csv(obs);
  // Header + one line per subnet.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            obs.subnets.size() + 1);
  EXPECT_NE(csv.find("prefix,members,pivot"), std::string::npos);
  EXPECT_NE(csv.find("192.168.1"), std::string::npos);
  EXPECT_NE(csv.find("under-utilized"), std::string::npos);
}

TEST(Report, ClassificationCsvMarksCauses) {
  const topo::ReferenceTopology ref = topo::internet2_like(42);
  sim::Network net(ref.topo);
  const VantageObservations obs = runtime::run_campaign(
      net, ref.vantage, "V", ref.targets, test::serial_runtime());
  probe::SimProbeEngine audit_wire(net, ref.vantage);
  probe::RetryingProbeEngine audit(audit_wire, 2);
  const Classification cls = classify(ref.registry, obs.subnets, audit);

  const std::string csv = classification_csv(cls);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            ref.registry.size() + 1);
  EXPECT_NE(csv.find(",exact,"), std::string::npos);
  EXPECT_NE(csv.find(",unresponsive,"), std::string::npos);
  EXPECT_NE(csv.find(",heuristic,"), std::string::npos);
  EXPECT_NE(csv.find("overestimated"), std::string::npos);
}

TEST(Report, DistributionMatchesBenchRendering) {
  const topo::ReferenceTopology ref = topo::internet2_like(42);
  sim::Network net(ref.topo);
  const VantageObservations obs = runtime::run_campaign(
      net, ref.vantage, "V", ref.targets, test::serial_runtime());
  probe::SimProbeEngine audit_wire(net, ref.vantage);
  probe::RetryingProbeEngine audit(audit_wire, 2);
  const Classification cls = classify(ref.registry, obs.subnets, audit);

  const std::string table = render_distribution(cls, 24, 31);
  EXPECT_NE(table.find("orgl"), std::string::npos);
  EXPECT_NE(table.find("exmt"), std::string::npos);
  EXPECT_NE(table.find("132"), std::string::npos);  // the Table 1 exact total
  EXPECT_NE(table.find("179"), std::string::npos);  // the Table 1 orgl total
}

}  // namespace
}  // namespace tn::eval
