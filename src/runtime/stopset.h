// SharedStopSet / SharedSubnetCache: cross-session redundancy elimination.
//
// Doubletree (Donnet et al., "Efficient Route Tracing from a Single Source")
// stops a trace when it reaches an (interface, destination) pair already
// seen by any cooperating monitor. TraceNET's unit of discovery is the
// subnet, so our stop set holds *covered prefixes*: once any worker has
// grown a subnet, every other worker can skip targets (and, in fast mode,
// hops) that fall inside it instead of re-exploring — the cross-session
// generalization of CampaignConfig::skip_covered_targets.
//
// Both structures are sharded by the top bits of the queried address, one
// mutex per shard, so the workers' hot covers() checks rarely collide.
// Every entry remembers the smallest target index that produced it, which
// is what lets the deterministic runtime skip a target only when the skip
// is provably order-independent (see docs/RUNTIME.md).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <optional>

#include "core/types.h"
#include "net/prefix.h"

namespace tn::runtime {

class SharedStopSet {
 public:
  static constexpr std::size_t kNoSource =
      std::numeric_limits<std::size_t>::max();

  // Records `prefix` as covered, discovered while tracing the target at
  // `source_index`. /32s are not coverage (a lone pivot never absorbs other
  // targets — mirrors ObservedSubnet::contains).
  void insert(const net::Prefix& prefix, std::size_t source_index) {
    if (prefix.length() >= 32) return;
    if (prefix.length() < 4) {  // straddles shards: replicate into each
      for (Shard& shard : shards_) insert_into(shard, prefix, source_index);
      return;
    }
    insert_into(shard_for(prefix.network()), prefix, source_index);
  }

  // Is `addr` inside any recorded prefix?
  bool covers(net::Ipv4Addr addr) const {
    return source_covering(addr).has_value();
  }

  // Is `addr` inside a prefix discovered from a target of index strictly
  // below `index`? This is the conservative query behind deterministic
  // dispatch: a serial run would have traced those targets first.
  bool covered_by_lower(net::Ipv4Addr addr, std::size_t index) const {
    const auto source = source_covering(addr);
    return source.has_value() && *source < index;
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      total += shard.prefixes.size();
    }
    return total;
  }

 private:
  struct Shard {
    mutable std::mutex mutex;
    // Prefix -> smallest source target index. Ordered map: shards hold few
    // hundred entries and deterministic iteration aids debugging dumps.
    std::map<net::Prefix, std::size_t> prefixes;
  };

  // 16 shards on the top 4 address bits. A prefix shorter than /4 would
  // straddle shards; real subnets are /20-and-longer, but stay correct by
  // replicating such a prefix into every shard it touches.
  static constexpr std::size_t kShards = 16;

  Shard& shard_for(net::Ipv4Addr addr) {
    return shards_[addr.value() >> 28];
  }
  const Shard& shard_for(net::Ipv4Addr addr) const {
    return shards_[addr.value() >> 28];
  }

  static void insert_into(Shard& shard, const net::Prefix& prefix,
                          std::size_t source_index) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto [it, inserted] = shard.prefixes.emplace(prefix, source_index);
    if (!inserted && source_index < it->second) it->second = source_index;
  }

  std::optional<std::size_t> source_covering(net::Ipv4Addr addr) const {
    const Shard& shard = shard_for(addr);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    std::optional<std::size_t> best;
    for (const auto& [prefix, source] : shard.prefixes) {
      if (!prefix.contains(addr)) continue;
      if (!best || source < *best) best = source;
    }
    return best;
  }

  friend class SharedSubnetCache;

  std::array<Shard, kShards> shards_{};
};

// The stop set plus the subnets themselves: the cross-session analogue of
// the per-campaign dedup map in eval::run_campaign. Workers insert every
// grown subnet; lookups answer "which observed subnet covers this address"
// for diagnostics and fast-mode reuse. Deduplication keeps the richest
// member set per prefix, like the serial campaign does.
class SharedSubnetCache {
 public:
  void insert(const core::ObservedSubnet& subnet, std::size_t source_index) {
    if (subnet.prefix.length() >= 32) return;
    {
      Shard& shard = shard_for(subnet.prefix.network());
      const std::lock_guard<std::mutex> lock(shard.mutex);
      const auto [it, inserted] = shard.subnets.emplace(subnet.prefix, subnet);
      if (!inserted && subnet.members.size() > it->second.members.size())
        it->second = subnet;
    }
    // Cover the prefix only once the subnet is stored, so a reader that
    // sees covers(addr) also finds the subnet with lookup(addr).
    stop_set_.insert(subnet.prefix, source_index);
  }

  std::optional<core::ObservedSubnet> lookup(net::Ipv4Addr addr) const {
    const Shard& shard = shard_for(addr);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [prefix, subnet] : shard.subnets)
      if (prefix.contains(addr)) return subnet;
    return std::nullopt;
  }

  const SharedStopSet& stop_set() const noexcept { return stop_set_; }
  SharedStopSet& stop_set() noexcept { return stop_set_; }

  bool covers(net::Ipv4Addr addr) const { return stop_set_.covers(addr); }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      total += shard.subnets.size();
    }
    return total;
  }

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::map<net::Prefix, core::ObservedSubnet> subnets;
  };

  static constexpr std::size_t kShards = SharedStopSet::kShards;

  Shard& shard_for(net::Ipv4Addr addr) { return shards_[addr.value() >> 28]; }
  const Shard& shard_for(net::Ipv4Addr addr) const {
    return shards_[addr.value() >> 28];
  }

  SharedStopSet stop_set_;
  std::array<Shard, kShards> shards_{};
};

}  // namespace tn::runtime
