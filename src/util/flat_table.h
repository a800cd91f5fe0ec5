// FlatTable: an open-addressing hash table of small fixed-size slots, for
// the lookups every simulated or cached probe pays (Topology's address
// index, CachingProbeEngine's reply memo).
//
// Linear probing over a power-of-two array, doubled before the live entries
// pass MaxLoadPercent of it. Entries are never erased one at a time, so a
// probe sequence ends at the first empty slot. The Slot type chooses its
// layout and supplies
//   using Key = ...;                          // equality-comparable
//   bool empty() const;                       // true for a value-initialized Slot
//   Key key() const;                          // of a non-empty slot
//   static std::uint64_t hash(const Key&);
//
// Not thread-safe.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tn::util {

template <class Slot, std::size_t MaxLoadPercent>
class FlatTable {
 public:
  using Key = typename Slot::Key;

  // The slot holding `key`, or nullptr.
  const Slot* find(const Key& key) const noexcept {
    if (slots_.empty()) return nullptr;
    const Slot& slot = slots_[locate(key)];
    return slot.empty() ? nullptr : &slot;
  }

  // Puts `entry` in the table, over the slot holding its key if there is one.
  void insert_or_assign(const Slot& entry) {
    if (100 * (size_ + 1) > MaxLoadPercent * slots_.size()) grow();
    Slot& slot = slots_[locate(entry.key())];
    if (slot.empty()) ++size_;
    slot = entry;
  }

  // Forgets every entry and frees the array. A session's reply cache is
  // cleared once per target and most sessions fill 128 slots at most, but
  // the few that explore a /20 reach 16,384; emptying the slots in place
  // would make every later clear pay for the largest session so far.
  void clear() noexcept {
    slots_ = {};
    size_ = 0;
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  static constexpr std::size_t kMinCapacity = 64;

  // The index of the slot holding `key`, else of the empty slot ending its
  // probe sequence. Fibonacci hashing: the top bits of the scrambled hash,
  // which spreads sequential keys even when the hash itself is the identity
  // (std::hash of an integer in libstdc++, as ReplyKey::hash uses).
  std::size_t locate(const Key& key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = static_cast<std::size_t>(
             (Slot::hash(key) * 0x9E3779B97F4A7C15ULL) >>
             (64 - std::countr_zero(slots_.size())));
         ; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.empty() || slot.key() == key) return i;
    }
  }

  void grow() {
    const std::vector<Slot> previous = std::exchange(
        slots_, std::vector<Slot>(std::max(kMinCapacity, 2 * slots_.size())));
    for (const Slot& slot : previous)
      if (!slot.empty()) slots_[locate(slot.key())] = slot;
  }

  std::vector<Slot> slots_;  // empty or a power of two long
  std::size_t size_ = 0;     // non-empty slots
};

}  // namespace tn::util
