#include "runtime/stopset.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "testutil.h"
#include "util/rng.h"

namespace tn::runtime {
namespace {

using test::ip;
using test::pfx;

TEST(SharedStopSet, CoversInsertedPrefixes) {
  SharedStopSet set;
  EXPECT_FALSE(set.covers(ip("10.0.1.5")));
  set.insert(pfx("10.0.1.0/28"), 3);
  EXPECT_TRUE(set.covers(ip("10.0.1.5")));
  EXPECT_FALSE(set.covers(ip("10.0.2.5")));
  EXPECT_EQ(set.size(), 1u);
}

TEST(SharedStopSet, SlashThirtyTwoIsNotCoverage) {
  SharedStopSet set;
  set.insert(pfx("10.0.1.5/32"), 0);
  EXPECT_FALSE(set.covers(ip("10.0.1.5")));
  EXPECT_EQ(set.size(), 0u);
}

TEST(SharedStopSet, CoveredByLowerUsesSmallestSourceIndex) {
  SharedStopSet set;
  set.insert(pfx("10.0.1.0/28"), 7);
  EXPECT_TRUE(set.covered_by_lower(ip("10.0.1.5"), 8));
  EXPECT_FALSE(set.covered_by_lower(ip("10.0.1.5"), 7));
  EXPECT_FALSE(set.covered_by_lower(ip("10.0.1.5"), 3));
  // A rediscovery from an earlier target lowers the bar.
  set.insert(pfx("10.0.1.0/28"), 2);
  EXPECT_TRUE(set.covered_by_lower(ip("10.0.1.5"), 3));
}

TEST(SharedStopSet, PrefixesInDifferentShardsCoexist) {
  SharedStopSet set;
  set.insert(pfx("10.0.0.0/24"), 0);
  set.insert(pfx("192.168.1.0/29"), 1);
  set.insert(pfx("224.1.2.0/30"), 2);
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.covers(ip("10.0.0.7")));
  EXPECT_TRUE(set.covers(ip("192.168.1.3")));
  EXPECT_TRUE(set.covers(ip("224.1.2.1")));
}

TEST(SharedStopSet, ShortPrefixCountsOnce) {
  SharedStopSet set;
  set.insert(pfx("64.0.0.0/2"), 4);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.covers(ip("64.0.0.0")));
  EXPECT_TRUE(set.covers(ip("127.255.255.255")));
  EXPECT_FALSE(set.covers(ip("128.0.0.0")));
  EXPECT_TRUE(set.covered_by_lower(ip("127.255.255.255"), 5));
}

// covered_by_lower against its definition: some recorded prefix contains
// the address and was first discovered below the index.
TEST(SharedStopSet, CoveredByLowerMatchesScan) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    util::Rng rng(seed);
    SharedStopSet set;
    std::map<net::Prefix, std::size_t> smallest;
    const net::Ipv4Addr anchors[] = {ip("10.0.1.7"), ip("10.200.3.1"),
                                     ip("0.0.0.0"), ip("255.255.255.255")};
    for (int i = 0; i < 300; ++i) {
      const net::Ipv4Addr around = anchors[rng.below(4)];
      const net::Prefix prefix = net::Prefix::covering(
          rng.chance(0.3) ? net::Ipv4Addr(around.value() ^
                                          static_cast<std::uint32_t>(rng.below(1u << 12)))
                          : around,
          1 + static_cast<int>(rng.below(32)));
      const std::size_t source = rng.below(100);
      set.insert(prefix, source);
      if (prefix.length() == 32) continue;
      const auto [it, inserted] = smallest.emplace(prefix, source);
      if (!inserted) it->second = std::min(it->second, source);
    }
    ASSERT_EQ(set.size(), smallest.size());
    for (int i = 0; i < 2000; ++i) {
      const net::Ipv4Addr addr(anchors[rng.below(4)].value() ^
                               static_cast<std::uint32_t>(rng.below(1u << 14)));
      const std::size_t index = rng.below(100);
      bool want = false;
      for (const auto& [prefix, source] : smallest)
        want |= prefix.contains(addr) && source < index;
      ASSERT_EQ(set.covered_by_lower(addr, index), want)
          << addr.to_string() << " below " << index;
    }
  }
}

// The suite keeps the name of the subnet cache the stop set absorbed: a
// prefix rediscovered from several targets counts once and remembers the
// smallest of their indices.
TEST(SharedSubnetCache, KeepsRichestMemberSetPerPrefix) {
  SharedStopSet set;
  set.insert(pfx("10.0.1.0/28"), 5);
  set.insert(pfx("10.0.1.0/28"), 9);
  set.insert(pfx("10.0.1.0/28"), 1);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.covered_by_lower(ip("10.0.1.9"), 2));
  EXPECT_FALSE(set.covered_by_lower(ip("10.0.1.9"), 1));
}

// The hammer: many threads inserting overlapping prefixes and querying
// concurrently. Run under TSan via tools/check.sh; asserts catch lost or
// duplicated inserts, the sanitizer catches races.
TEST(SharedSubnetCache, HammerConcurrentInsertAndLookup) {
  SharedStopSet set;
  constexpr int kThreads = 8;
  constexpr std::uint32_t kPrefixes = 400;  // distinct /28s

  auto prefix_at = [](std::uint32_t i) {
    // Spread across the whole address space.
    return net::Prefix::covering(net::Ipv4Addr((i << 26) | (i << 4)), 28);
  };

  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < kPrefixes; ++i) {
        set.insert(prefix_at(i), static_cast<std::size_t>(t));
        // Interleave reads on prefixes other threads are writing.
        const net::Prefix other = prefix_at((i * 31 + 7) % kPrefixes);
        set.covers(other.at(1));
        set.covered_by_lower(other.at(1), i);
      }
    });
  }
  for (auto& thread : pool) thread.join();

  EXPECT_EQ(set.size(), static_cast<std::size_t>(kPrefixes));
  for (std::uint32_t i = 0; i < kPrefixes; ++i) {
    const net::Prefix prefix = prefix_at(i);
    ASSERT_TRUE(set.covers(prefix.at(1)));
    // Every prefix saw an insert from thread 0: min source index is 0.
    EXPECT_TRUE(set.covered_by_lower(prefix.at(1), 1));
  }
}

}  // namespace
}  // namespace tn::runtime
