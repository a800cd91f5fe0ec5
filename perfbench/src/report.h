// The benchmark's output: one "metric NAME VALUE UNIT" line per metric, then,
// as the last line of standard output, one JSON object
//   {"correct": B, "attempted": N, "failed": N, "metrics": {NAME:
//    {"value": X, "unit": U}, ...}}
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Shortest decimal that reads back as exactly `value` (every digit as
// measured); non-finite values become 0 so the line stays valid JSON.
std::string format_number(double value);

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

// Human-readable metric lines, one per metric.
std::string metric_lines(const std::vector<Metric>& metrics);

}  // namespace perfbench
