// Sequential aligned prefix allocator for topology generators.
//
// Subnets are carved from a base block in address order, each aligned to its
// own size and separated by a randomized guard gap. The gaps ensure that
// growing one subnet's exploration window never bleeds into a neighbor by
// accident — the paper's address plans are similarly non-contiguous.
#pragma once

#include <optional>
#include <stdexcept>

#include "net/prefix.h"
#include "util/rng.h"

namespace tn::topo {

class AddressPool {
 public:
  // Allocates from `block` (e.g. 163.253.0.0/16).
  AddressPool(net::Prefix block, util::Rng& rng) noexcept
      : block_(block), rng_(rng), cursor_(block.network().value()) {}

  // Returns the next free prefix of the given length, aligned, with a guard
  // gap of 1-3 subnet sizes after the previous allocation. Throws when the
  // block is exhausted (generator bug, not a runtime condition).
  net::Prefix allocate(int prefix_length) {
    const std::uint64_t size = std::uint64_t{1} << (32 - prefix_length);
    // Align up.
    std::uint64_t start = (cursor_ + size - 1) / size * size;
    const net::Prefix prefix =
        net::Prefix::covering(net::Ipv4Addr(static_cast<std::uint32_t>(start)),
                              prefix_length);
    const std::uint64_t gap = size * static_cast<std::uint64_t>(rng_.between(1, 3));
    advance(start, size + gap);
    return check(prefix);
  }

 private:
  void advance(std::uint64_t start, std::uint64_t amount) {
    if (start + amount > cursor_) cursor_ = start + amount;
  }

  net::Prefix check(const net::Prefix& prefix) const {
    if (!block_.contains(prefix))
      throw std::runtime_error("address pool " + block_.to_string() +
                               " exhausted allocating " + prefix.to_string());
    return prefix;
  }

  net::Prefix block_;
  util::Rng& rng_;
  std::uint64_t cursor_;
};

}  // namespace tn::topo
