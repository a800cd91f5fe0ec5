// Output checks run on every campaign, outside the timed region. A failed
// check marks the run incorrect: the benchmark exits non-zero and the
// campaign's targets count as failed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "eval/campaign.h"

namespace perfbench {

// FNV-1a, 64-bit: the fingerprint printed for eval::subnets_csv output.
std::uint64_t fnv1a64(std::string_view bytes) noexcept;

// Structural invariants of one vantage's observations:
//   * every subnet's prefix contains its pivot and each of its members;
//   * subnets are deduplicated by prefix;
//   * traced plus covered targets equal the total.
// Returns one message per violation (empty when the output is sound).
std::vector<std::string> check_observations(
    const tn::eval::VantageObservations& observations);

}  // namespace perfbench
