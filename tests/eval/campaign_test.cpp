#include "eval/campaign.h"

#include <gtest/gtest.h>

#include "runtime/campaign.h"
#include "testutil.h"

namespace tn::eval {
namespace {

using test::ip;
using test::pfx;

TEST(Campaign, CollectsAndDeduplicates) {
  test::Fig3Topology f;
  sim::Network net(f.topo);
  // Two targets behind the same path: subnets must appear once each.
  const std::vector<net::Ipv4Addr> targets = {f.pivot4, f.pivot3,
                                              ip("10.0.4.2")};
  const VantageObservations obs = runtime::run_campaign(
      net, f.vantage, "V", targets, test::serial_runtime());
  std::set<net::Prefix> prefixes = obs.prefixes();
  EXPECT_EQ(prefixes.size(), obs.subnets.size());
  EXPECT_TRUE(prefixes.contains(pfx("10.0.1.0/31")));
  EXPECT_TRUE(prefixes.contains(pfx("192.168.1.0/29")));
}

TEST(Campaign, SkipsCoveredTargets) {
  test::Fig3Topology f;
  sim::Network net(f.topo);
  // pivot3 lies inside the subnet explored while tracing to pivot4.
  const std::vector<net::Ipv4Addr> targets = {f.pivot4, f.pivot3, f.pivot6};
  const VantageObservations obs = runtime::run_campaign(
      net, f.vantage, "V", targets, test::serial_runtime());
  EXPECT_EQ(obs.targets_traced, 1u);
  EXPECT_EQ(obs.targets_covered, 2u);
}

TEST(Campaign, CountsSubnetizedAndUnsubnetizedAddresses) {
  test::Fig3Topology f;
  // Make pivot4's neighbors dark so it cannot grow a subnet when probed as
  // part of the far-LAN trace... instead: isolate via a stub-only address.
  sim::Network net(f.topo);
  const VantageObservations obs = runtime::run_campaign(
      net, f.vantage, "V", {f.pivot4}, test::serial_runtime());
  EXPECT_GE(obs.subnetized_addrs.size(), 6u);  // path links + LAN members
  EXPECT_TRUE(obs.subnetized_addrs.contains(f.contra));
  // Nothing ended up un-subnetized on this clean topology.
  EXPECT_TRUE(obs.unsubnetized.empty());
}

TEST(Campaign, TargetsRespondingTracksReachability) {
  test::Fig3Topology f;
  test::edit(f.topo, [&](sim::TopologyBuilder& b) {
    b.subnet_mut(f.far_lan).firewalled = true;
  });
  sim::Network net(f.topo);
  const VantageObservations obs = runtime::run_campaign(
      net, f.vantage, "V", {f.pivot4, ip("10.0.4.2")}, test::serial_runtime());
  EXPECT_EQ(obs.targets_traced, 2u);
  EXPECT_EQ(obs.targets_responding, 1u);  // the firewalled one never answers
}

core::SessionResult session_with(const net::Prefix& prefix, int members) {
  core::ObservedSubnet subnet;
  subnet.prefix = prefix;
  subnet.pivot = prefix.at(1);
  for (int i = 0; i < members; ++i)
    subnet.members.push_back(prefix.at(static_cast<std::uint64_t>(i)));
  core::SessionResult result;
  result.subnets.push_back(subnet);
  return result;
}

TEST(Campaign, AccumulatorKeepsRichestMemberSetPerPrefix) {
  CampaignAccumulator acc("V", 4);
  acc.add(session_with(pfx("10.0.1.0/28"), 2));
  acc.add(session_with(pfx("10.0.1.0/28"), 6));
  acc.add(session_with(pfx("10.0.1.0/28"), 4));
  // A nested subnet is kept beside the one containing it.
  acc.add(session_with(pfx("10.0.1.0/30"), 3));
  EXPECT_TRUE(acc.covered(ip("10.0.1.2")));
  EXPECT_TRUE(acc.covered(ip("10.0.1.15")));
  EXPECT_FALSE(acc.covered(ip("10.0.1.16")));
  const VantageObservations obs = acc.finalize();
  EXPECT_EQ(obs.targets_traced, 4u);
  ASSERT_EQ(obs.subnets.size(), 2u);
  EXPECT_EQ(obs.subnets[0].prefix, pfx("10.0.1.0/28"));
  EXPECT_EQ(obs.subnets[0].members.size(), 6u);
  EXPECT_EQ(obs.subnets[1].members.size(), 3u);
}

}  // namespace
}  // namespace tn::eval
