// PrefixIndex: longest-prefix match over a set of disjoint CIDR prefixes.
// NestedPrefixIndex: the same lookups over prefixes that may nest.
//
// The prefixes are held as [first, last] address intervals in a vector sorted
// by first address. Because no two of them overlap, an address has at most
// one match — the last interval starting at or below it — and one binary
// search finds it, where a hash map of prefixes needs a probe per mask
// length. Insertion keeps the set disjoint by checking only the neighbours of
// the insertion point, so an overlapping prefix is rejected in O(log n)
// instead of by a scan of every prefix.
//
// The topology's subnets are disjoint by construction, and PrefixIndex
// rejects an overlapping one. A campaign's observed subnets are not: a /29
// grown around one target may sit inside a /24 grown around another.
// NestedPrefixIndex stacks disjoint PrefixIndex layers: a prefix goes into
// the first layer it does not overlap, so an address matches at most once
// per layer and a query is one binary search per layer. Observed prefixes
// nest shallowly (two layers hold each vantage's ~970 prefixes on the
// simulated internet), so that stays a handful of searches.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/ipv4.h"
#include "net/prefix.h"

namespace tn::net {

class PrefixIndex {
 public:
  using Value = std::uint32_t;

  // Adds `prefix` carrying `value` unless it overlaps a prefix already in
  // the index (one containing the other). Returns nullopt once inserted, or
  // the value of the lowest-addressed overlapping prefix, leaving the index
  // unchanged.
  std::optional<Value> insert(const Prefix& prefix, Value value);

  // The value of the prefix containing `addr`, if any.
  std::optional<Value> find(Ipv4Addr addr) const noexcept;

  // The value stored for exactly `prefix`, if any.
  std::optional<Value> find_exact(const Prefix& prefix) const noexcept;

  std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    std::uint32_t first = 0;  // network address
    std::uint32_t last = 0;   // broadcast address
    Value value = 0;
  };

  // The first entry starting strictly above `addr`.
  std::vector<Entry>::const_iterator after(std::uint32_t addr) const noexcept;

  std::vector<Entry> entries_;  // sorted by `first`, pairwise disjoint
};

class NestedPrefixIndex {
 public:
  using Value = PrefixIndex::Value;

  // Adds `prefix` carrying `value`. Returns nullopt once inserted, or the
  // value already stored for exactly `prefix`, leaving the index unchanged.
  std::optional<Value> insert(const Prefix& prefix, Value value);

  // Whether some prefix contains `addr`.
  bool covers(Ipv4Addr addr) const noexcept;

  // Calls fn(value) once for every prefix containing `addr`, in no
  // particular order.
  template <typename Fn>
  void for_each_covering(Ipv4Addr addr, Fn&& fn) const {
    for (const PrefixIndex& layer : layers_)
      if (const auto value = layer.find(addr)) fn(*value);
  }

 private:
  std::vector<PrefixIndex> layers_;
};

}  // namespace tn::net
