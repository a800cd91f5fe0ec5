#include "net/prefix_index.h"

#include <algorithm>

namespace tn::net {

std::vector<PrefixIndex::Entry>::const_iterator PrefixIndex::after(
    std::uint32_t addr) const noexcept {
  return std::upper_bound(
      entries_.begin(), entries_.end(), addr,
      [](std::uint32_t a, const Entry& entry) { return a < entry.first; });
}

std::optional<PrefixIndex::Value> PrefixIndex::insert(const Prefix& prefix,
                                                      Value value) {
  const std::uint32_t first = prefix.network().value();
  const std::uint32_t last = prefix.broadcast().value();
  const auto next = after(first);
  // Prefixes nest or are disjoint, so only the entry starting at or below
  // `first` (which may contain it) and the one after it (which it may
  // contain) can overlap; the former is the lower-addressed of the two.
  if (next != entries_.begin() && std::prev(next)->last >= first)
    return std::prev(next)->value;
  if (next != entries_.end() && next->first <= last) return next->value;
  entries_.insert(next, Entry{first, last, value});
  return std::nullopt;
}

std::optional<PrefixIndex::Value> PrefixIndex::find(
    Ipv4Addr addr) const noexcept {
  const auto next = after(addr.value());
  if (next == entries_.begin()) return std::nullopt;
  const Entry& candidate = *std::prev(next);
  if (addr.value() > candidate.last) return std::nullopt;
  return candidate.value;
}

std::optional<PrefixIndex::Value> PrefixIndex::find_exact(
    const Prefix& prefix) const noexcept {
  const auto next = after(prefix.network().value());
  if (next == entries_.begin()) return std::nullopt;
  const Entry& candidate = *std::prev(next);
  if (candidate.first != prefix.network().value() ||
      candidate.last != prefix.broadcast().value())
    return std::nullopt;
  return candidate.value;
}

std::optional<NestedPrefixIndex::Value> NestedPrefixIndex::insert(
    const Prefix& prefix, Value value) {
  // A prefix already present sits in the first layer it did not overlap, and
  // every earlier layer still overlaps it (nothing is ever removed), so the
  // walk reaches that layer before any layer could accept a copy.
  for (PrefixIndex& layer : layers_) {
    if (!layer.insert(prefix, value)) return std::nullopt;
    if (const auto existing = layer.find_exact(prefix)) return existing;
  }
  layers_.emplace_back().insert(prefix, value);
  return std::nullopt;
}

bool NestedPrefixIndex::covers(Ipv4Addr addr) const noexcept {
  return std::any_of(layers_.begin(), layers_.end(),
                     [addr](const PrefixIndex& layer) {
                       return layer.find(addr).has_value();
                     });
}

}  // namespace tn::net
