// Unit tests of the benchmark's own parsing, metric arithmetic and output
// checks. Run with `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "checks.h"
#include "layers.h"
#include "options.h"
#include "report.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::variant<Options, std::string> parse(
    std::initializer_list<std::string_view> args) {
  const std::vector<std::string_view> list(args);
  return parse_options(list);
}

std::string error_of(std::initializer_list<std::string_view> args) {
  const auto parsed = parse(args);
  const auto* error = std::get_if<std::string>(&parsed);
  return error != nullptr ? *error : "";
}

TEST(Options, ParsesTheBenchmarkCommandLine) {
  const auto parsed = parse({"--workload", "refs_lossy", "--seed", "18446744073709551615",
                             "--seconds", "20", "--trace", "1", "--work-dir", "out"});
  ASSERT_TRUE(std::holds_alternative<Options>(parsed));
  const Options& options = std::get<Options>(parsed);
  EXPECT_EQ(options.workload, "refs_lossy");
  EXPECT_EQ(options.seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(options.seconds, 20);
  EXPECT_TRUE(options.trace);
  EXPECT_EQ(options.work_dir, "out");
}

TEST(Options, DefaultsEverythingButTheWorkload) {
  const auto parsed = parse({"--workload", "internet_live"});
  ASSERT_TRUE(std::holds_alternative<Options>(parsed));
  const Options& options = std::get<Options>(parsed);
  EXPECT_EQ(options.seed, 0u);
  EXPECT_EQ(options.seconds, 10);
  EXPECT_FALSE(options.trace);
}

TEST(Options, RejectsMalformedArguments) {
  EXPECT_NE(error_of({}).find("missing --workload"), std::string::npos);
  EXPECT_NE(error_of({"--workload", "nope"}).find("unknown workload"),
            std::string::npos);
  for (const std::string_view seed :
       {"-1", "abc", "1.5", "", "18446744073709551616", "7 "})
    EXPECT_NE(error_of({"--workload", "refs_lossy", "--seed", seed})
                  .find("bad --seed"),
              std::string::npos)
        << seed;
  for (const std::string_view seconds : {"0", "121", "x", "-3"})
    EXPECT_NE(error_of({"--workload", "refs_lossy", "--seconds", seconds})
                  .find("bad --seconds"),
              std::string::npos)
        << seconds;
  EXPECT_NE(error_of({"--workload", "refs_lossy", "--trace", "2"})
                .find("bad --trace"),
            std::string::npos);
  EXPECT_NE(error_of({"--workload", "refs_lossy", "--seed"}).find("missing value"),
            std::string::npos);
  EXPECT_NE(error_of({"--workload", "refs_lossy", "--jobs", "4"})
                .find("unknown argument"),
            std::string::npos);
}

TEST(Workloads, EveryNamedWorkloadIsDefined) {
  for (const std::string_view name : kWorkloads) {
    const WorkloadSpec* spec = find_workload(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_EQ(spec->name, name);
  }
  EXPECT_EQ(find_workload("internet"), nullptr);
  EXPECT_EQ(find_workload("internet_live")->jobs, 4);
}

TEST(Workloads, SeedZeroStartsFromTheRepositoryTopologies) {
  EXPECT_EQ(Seeds::derive(Seeds::kInternet2, 0, 10, 0), 42u);
  EXPECT_EQ(Seeds::derive(Seeds::kGeant, 0, 10, 0), 43u);
  // Consecutive workload seeds draw disjoint instance ranges.
  EXPECT_EQ(Seeds::derive(Seeds::kFault, 0, 20, 19) + 1,
            Seeds::derive(Seeds::kFault, 1, 20, 0));
}

TEST(Workloads, TargetOrderIsASeededPermutation) {
  std::vector<tn::net::Ipv4Addr> targets;
  for (std::uint32_t i = 1; i <= 50; ++i) targets.emplace_back(0x0A000000u + i);
  std::vector<tn::net::Ipv4Addr> same = targets;
  order_targets(same, 0);
  EXPECT_EQ(same, targets);

  std::vector<tn::net::Ipv4Addr> a = targets;
  std::vector<tn::net::Ipv4Addr> b = targets;
  order_targets(a, 3);
  order_targets(b, 3);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, targets);
  std::sort(a.begin(), a.end());
  EXPECT_EQ(a, targets);
}

TEST(Stats, SharesAndRatiosNameTheirBase) {
  EXPECT_DOUBLE_EQ(share(3.0, 4.0), 0.75);
  EXPECT_DOUBLE_EQ(share(3.0, 0.0), 0.0);
  // wire probes per target, ms of CPU per target
  EXPECT_DOUBLE_EQ(share(123079.0, 2685.0), 123079.0 / 2685.0);
  EXPECT_DOUBLE_EQ(share(0.5 * 1e3, 2685.0), 500.0 / 2685.0);
}

TEST(Stats, ParallelEfficiencyIsCpuOverWallTimesJobs) {
  EXPECT_DOUBLE_EQ(parallel_efficiency(3.6, 3.0, 4), 0.3);
  EXPECT_DOUBLE_EQ(parallel_efficiency(1.0, 1.0, 1), 1.0);
  EXPECT_DOUBLE_EQ(parallel_efficiency(1.0, 2.0, 0), 0.5);  // jobs < 1 -> 1
  EXPECT_DOUBLE_EQ(parallel_efficiency(1.0, 0.0, 4), 0.0);
}

TEST(Stats, QuantilesInterpolateBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_DOUBLE_EQ(quantile(hundred, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(hundred, 1.0), 100.0);
  EXPECT_NEAR(quantile(hundred, 0.99), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(quantile(hundred, 7.0), 100.0);  // clamped
}

TEST(Report, NumbersKeepEveryDigitAndStayValidJson) {
  EXPECT_EQ(format_number(0.1), "0.1");
  EXPECT_EQ(format_number(1234.5678901234567), "1234.5678901234567");
  EXPECT_EQ(format_number(3.0), "3");
  EXPECT_EQ(format_number(std::nan("")), "0");
  EXPECT_EQ(format_number(INFINITY), "0");
}

TEST(Report, ResultLineHasExactlyTheContractKeys) {
  const std::vector<Metric> metrics = {{"setup_s", 0.25, "s"},
                                       {"targets_per_s", 1000.5, "targets/s"}};
  EXPECT_EQ(result_json(true, 10, 0, metrics),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, "
            "\"targets_per_s\": {\"value\": 1000.5, \"unit\": "
            "\"targets/s\"}}}");
  EXPECT_EQ(result_json(false, 1, 1, {}),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
            "\"metrics\": {}}");
  EXPECT_EQ(metric_lines(metrics),
            "metric setup_s 0.25 s\nmetric targets_per_s 1000.5 targets/s\n");
}

TEST(Checks, Fnv1a64MatchesReferenceVectors) {
  EXPECT_EQ(fnv1a64(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171F73967E8ULL);
}

tn::core::ObservedSubnet subnet(const char* prefix, const char* pivot,
                                std::initializer_list<const char*> members) {
  tn::core::ObservedSubnet out;
  out.prefix = *tn::net::Prefix::parse(prefix);
  out.pivot = *tn::net::Ipv4Addr::parse(pivot);
  for (const char* member : members)
    out.members.push_back(*tn::net::Ipv4Addr::parse(member));
  return out;
}

tn::eval::VantageObservations sound_observations() {
  tn::eval::VantageObservations obs;
  obs.vantage = "v";
  obs.subnets = {subnet("10.0.0.0/30", "10.0.0.1", {"10.0.0.1", "10.0.0.2"}),
                 subnet("10.0.1.7/32", "10.0.1.7", {"10.0.1.7"})};
  obs.targets_total = 5;
  obs.targets_traced = 3;
  obs.targets_covered = 2;
  return obs;
}

TEST(Checks, SoundObservationsPass) {
  EXPECT_TRUE(check_observations(sound_observations()).empty());
}

TEST(Checks, EachViolationIsReported) {
  tn::eval::VantageObservations obs = sound_observations();
  obs.subnets[0].pivot = *tn::net::Ipv4Addr::parse("10.0.0.9");
  obs.subnets[1].members.push_back(*tn::net::Ipv4Addr::parse("10.0.1.8"));
  obs.subnets.push_back(obs.subnets[0]);
  obs.targets_covered = 1;
  const std::vector<std::string> problems = check_observations(obs);
  ASSERT_EQ(problems.size(), 5u);
  EXPECT_NE(problems[0].find("does not contain its pivot 10.0.0.9"),
            std::string::npos);
  EXPECT_NE(problems[1].find("does not contain its member 10.0.1.8"),
            std::string::npos);
  EXPECT_NE(problems[3].find("10.0.0.0/30 is listed twice"), std::string::npos);
  EXPECT_NE(problems[4].find("3 traced + 1 covered != 5 targets"),
            std::string::npos);
}

TEST(Checks, RoundsOfADeterministicWorkloadMustRepeatTheirHash) {
  const WorkloadSpec& serial = *find_workload("internet_serial");
  const WorkloadSpec& live = *find_workload("internet_live");
  Round round;
  round.targets = 100;
  round.csv_hash = 1;
  RunResult result;
  std::optional<std::uint64_t> first;
  EXPECT_TRUE(account_round(serial, round, first, result));
  round.csv_hash = 2;
  EXPECT_FALSE(account_round(serial, round, first, result));
  EXPECT_EQ(result.attempted, 200u);
  EXPECT_EQ(result.failed, 100u);
  ASSERT_EQ(result.problems.size(), 1u);
  EXPECT_NE(result.problems[0].find("differs from the first round's"),
            std::string::npos);

  // Schedule-dependent output is not pinned, but failed checks still count.
  RunResult unpinned;
  std::optional<std::uint64_t> none;
  EXPECT_TRUE(account_round(live, round, none, unpinned));
  round.csv_hash = 3;
  EXPECT_TRUE(account_round(live, round, none, unpinned));
  round.problems.push_back("broken");
  EXPECT_FALSE(account_round(live, round, none, unpinned));
  EXPECT_EQ(unpinned.failed, 100u);
}

}  // namespace
}  // namespace perfbench
