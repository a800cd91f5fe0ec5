// SharedStopSet: cross-session redundancy elimination.
//
// Doubletree (Donnet et al., "Efficient Route Tracing from a Single Source")
// stops a trace when it reaches an (interface, destination) pair already
// seen by any cooperating monitor. TraceNET's unit of discovery is the
// subnet, so our stop set holds *covered prefixes*: once any worker has
// grown a subnet, every other worker can skip targets (and, in fast mode,
// hops) that fall inside it instead of re-exploring — the cross-session
// generalization of the campaign's serial skip rule
// (eval::CampaignAccumulator::covered).
//
// One net::NestedPrefixIndex under one mutex: a query is a few binary
// searches, so the workers' covers() checks hold the lock only briefly.
// Every prefix remembers the smallest target index that produced it, which
// is what lets the deterministic runtime skip a target only when the skip
// is provably order-independent (see docs/RUNTIME.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <vector>

#include "net/prefix.h"
#include "net/prefix_index.h"

namespace tn::runtime {

class SharedStopSet {
 public:
  // Records `prefix` as covered, discovered while tracing the target at
  // `source_index`. /32s are not coverage (a lone pivot never absorbs other
  // targets — mirrors ObservedSubnet::contains).
  void insert(const net::Prefix& prefix, std::size_t source_index) {
    if (prefix.length() >= 32) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto slot = static_cast<net::NestedPrefixIndex::Value>(sources_.size());
    if (const auto existing = index_.insert(prefix, slot))
      sources_[*existing] = std::min(sources_[*existing], source_index);
    else
      sources_.push_back(source_index);
  }

  // Is `addr` inside any recorded prefix?
  bool covers(net::Ipv4Addr addr) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return index_.covers(addr);
  }

  // Is `addr` inside a prefix discovered from a target of index strictly
  // below `index`? This is the conservative query behind deterministic
  // dispatch: a serial run would have traced those targets first.
  bool covered_by_lower(net::Ipv4Addr addr, std::size_t index) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    bool lower = false;
    index_.for_each_covering(addr, [&](net::NestedPrefixIndex::Value slot) {
      lower |= sources_[slot] < index;
    });
    return lower;
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return sources_.size();
  }

 private:
  mutable std::mutex mutex_;
  net::NestedPrefixIndex index_;      // prefix -> slot in sources_
  std::vector<std::size_t> sources_;  // smallest source target index per slot
};

}  // namespace tn::runtime
