// Command line of the benchmark:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// NAME is one of kWorkloads. The seed is the only source of input variation:
// topology and fault seeds are derived from it (workloads.h), so the same
// seed always yields the same inputs. --work-dir names the directory the run
// may write files to (the refs_lossy journal, the traced run's spans).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>

namespace perfbench {

inline constexpr std::string_view kWorkloads[] = {
    "internet_serial", "internet_live", "refs_lossy"};

inline constexpr int kMaxSeconds = 120;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
};

// The parsed options, or a one-line error naming the offending argument.
// `args` excludes the program name. --workload is required; the others
// default to the values above.
std::variant<Options, std::string> parse_options(
    std::span<const std::string_view> args);

}  // namespace perfbench
