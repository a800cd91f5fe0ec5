// The traced run: per-layer numbers for one workload, collected from outside
// the program in three ways —
//   * spans around every call the benchmark makes into a layer (spans.h);
//   * counters the program already exports: CampaignRuntime::metrics(),
//     Network::stats(), CampaignReport and probe-level journal events read
//     back with trace/reader.h;
//   * isolated layer probes on the workload's own topology and targets: a
//     cold routing sweep, warm next-hop queries, send_probe walks, sessions
//     over a timing ProbeEngine decorator and a CampaignAccumulator replay.
// Untraced rounds run alongside traced ones, so the run also reports its own
// overhead (traced minus untraced wall time).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "options.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {

struct RunResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;        // targets of rounds that failed a check
  std::vector<std::string> problems;
  std::vector<std::string> notes;  // extra human-readable output lines
};

// Folds a finished round into `result`: counts its targets, records its
// problems, and checks its subnets_csv hash against `first_hash` when the
// workload's output is deterministic (the first round sets it). Returns
// whether the round passed every check.
bool account_round(const WorkloadSpec& spec, const Round& round,
                   std::optional<std::uint64_t>& first_hash,
                   RunResult& result);

// The printed subnets_csv fingerprint line of a run.
std::string hash_note(const WorkloadSpec& spec,
                      const std::optional<std::uint64_t>& hash,
                      std::size_t rounds);

RunResult traced_run(const WorkloadSpec& spec, const Seeds& seeds,
                     const Options& options);

}  // namespace perfbench
