// Campaign benchmark entry point. See perfbench/README.md for the workloads, the
// metrics and how the traced run attributes cost to layers.
#include <sys/resource.h>

#include <cstdio>
#include <string_view>
#include <vector>

#include "layers.h"
#include "options.h"
#include "report.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Fewest timed rounds a run reports medians over, however short --seconds.
constexpr std::size_t kMinRounds = 3;

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// The timed run: whole rounds back to back until --seconds of set-up plus
// campaign time have been measured, medians over the rounds. Output checks
// and the accuracy audit run outside the measured time.
RunResult timed_run(const WorkloadSpec& spec, const Seeds& seeds,
                    const Options& options) {
  RunResult result;
  std::optional<std::uint64_t> first_hash;
  RoundConfig config;
  config.journal_path = options.work_dir + "/journal.jsonl";

  std::vector<double> setup_s, targets_per_s, cpu_ms_per_target,
      wire_per_target, makespan_s, exact, failed_share;
  double measured_s = 0.0;
  while (setup_s.size() < kMinRounds || measured_s < options.seconds) {
    // Deterministic workloads repeat their subnets (account_round's hash
    // check proves it), so the first round's audit stands for every round.
    const bool audit = !spec.deterministic || exact.empty();
    ExactCount count;
    const Round round = run_round(spec, seeds, config, [&](Cell& cell) {
      if (audit) count_exact(cell, count);
    });
    measured_s += round.setup_s + round.wall_s;
    const bool sound = account_round(spec, round, first_hash, result);
    const auto targets = static_cast<double>(round.targets);
    setup_s.push_back(round.setup_s);
    targets_per_s.push_back(share(targets, round.wall_s));
    cpu_ms_per_target.push_back(share(round.cpu_s * 1e3, targets));
    wire_per_target.push_back(
        share(static_cast<double>(round.wire_probes), targets));
    makespan_s.push_back(round.makespan_s);
    failed_share.push_back(
        sound ? share(static_cast<double>(round.failed()), targets) : 1.0);
    if (audit)
      exact.push_back(share(static_cast<double>(count.exact),
                            static_cast<double>(count.truths)));
  }

  result.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"targets_per_s", median(targets_per_s), "targets/s"},
      {"cpu_ms_per_target", median(cpu_ms_per_target), "ms"},
      {"wire_probes_per_target", median(wire_per_target), "probes"},
      {"sim_makespan_s", median(makespan_s), "s"},
      {"exact_share", median(exact), "ratio"},
      {"failed_share", median(failed_share), "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  result.notes.push_back(hash_note(spec, first_hash, setup_s.size()));
  result.notes.push_back("rounds " + std::to_string(setup_s.size()) +
                         ", measured " + format_number(measured_s) + " s");
  return result;
}

int run(int argc, char** argv) {
  std::vector<std::string_view> args(argv + 1, argv + argc);
  const auto parsed = parse_options(args);
  if (const auto* error = std::get_if<std::string>(&parsed)) {
    std::fprintf(stderr, "perfbench: %s\n", error->c_str());
    return 2;
  }
  const Options& options = std::get<Options>(parsed);
  const WorkloadSpec& spec = *find_workload(options.workload);
  const Seeds seeds{options.seed};

  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);
  const RunResult result = options.trace ? traced_run(spec, seeds, options)
                                         : timed_run(spec, seeds, options);
  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  for (const std::string& problem : result.problems)
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  std::printf("%s", metric_lines(result.metrics).c_str());
  const bool correct = result.problems.empty();
  std::printf("%s\n", result_json(correct, result.attempted, result.failed,
                                  result.metrics)
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
