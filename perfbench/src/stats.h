// Metric arithmetic shared by the timed and the traced runs. Every ratio
// names its base: shares divide by a count of attempts, per-target figures
// by the targets a campaign processed (traced plus covered).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

// num / den, or 0 when there is nothing to divide by.
inline double share(double num, double den) noexcept {
  return den > 0.0 ? num / den : 0.0;
}

// Campaign CPU over the CPU the worker pool could have used:
// cpu / (wall * jobs). 1.0 means every worker was busy for the whole run.
inline double parallel_efficiency(double cpu_s, double wall_s,
                                  int jobs) noexcept {
  return share(cpu_s, wall_s * (jobs < 1 ? 1 : jobs));
}

// The q-quantile (q in [0, 1]) by linear interpolation between closest
// ranks; 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

}  // namespace perfbench
