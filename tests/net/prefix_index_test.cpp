#include "net/prefix_index.h"

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace tn::net {
namespace {

Prefix pfx(const char* text) { return *Prefix::parse(text); }
Ipv4Addr ip(const char* text) { return *Ipv4Addr::parse(text); }

TEST(PrefixIndex, FindsTheContainingPrefix) {
  PrefixIndex index;
  EXPECT_FALSE(index.insert(pfx("10.1.0.0/24"), 1));
  EXPECT_FALSE(index.insert(pfx("10.0.0.0/30"), 0));
  EXPECT_FALSE(index.insert(pfx("10.2.0.7/32"), 2));
  EXPECT_EQ(index.size(), 3u);

  EXPECT_EQ(index.find(ip("10.0.0.0")), 0u);
  EXPECT_EQ(index.find(ip("10.0.0.3")), 0u);
  EXPECT_FALSE(index.find(ip("10.0.0.4")));
  EXPECT_EQ(index.find(ip("10.1.0.200")), 1u);
  EXPECT_EQ(index.find(ip("10.2.0.7")), 2u);
  EXPECT_FALSE(index.find(ip("10.2.0.6")));
  EXPECT_FALSE(index.find(ip("9.255.255.255")));
  EXPECT_FALSE(index.find(ip("255.255.255.255")));
}

TEST(PrefixIndex, RejectsOverlapEitherWay) {
  PrefixIndex index;
  ASSERT_FALSE(index.insert(pfx("10.0.0.0/24"), 7));
  ASSERT_FALSE(index.insert(pfx("10.0.2.0/24"), 8));
  EXPECT_EQ(index.insert(pfx("10.0.0.128/25"), 9), 7u);  // inside 7
  EXPECT_EQ(index.insert(pfx("10.0.0.0/24"), 9), 7u);    // duplicate
  // Contains both: the lowest-addressed one is reported.
  EXPECT_EQ(index.insert(pfx("10.0.0.0/16"), 9), 7u);
  EXPECT_EQ(index.insert(pfx("10.0.2.0/23"), 9), 8u);
  EXPECT_EQ(index.size(), 2u);
  EXPECT_FALSE(index.insert(pfx("10.0.1.0/24"), 9));  // the gap fits
  EXPECT_EQ(index.find(ip("10.0.1.1")), 9u);
}

TEST(PrefixIndex, ExactMatchNeedsTheSameLength) {
  PrefixIndex index;
  ASSERT_FALSE(index.insert(pfx("192.168.1.0/28"), 3));
  EXPECT_EQ(index.find_exact(pfx("192.168.1.0/28")), 3u);
  EXPECT_FALSE(index.find_exact(pfx("192.168.1.0/29")));
  EXPECT_FALSE(index.find_exact(pfx("192.168.1.0/27")));
  EXPECT_FALSE(index.find_exact(pfx("192.168.1.16/28")));
}

TEST(PrefixIndex, EdgesOfTheAddressSpace) {
  PrefixIndex index;
  ASSERT_FALSE(index.insert(pfx("0.0.0.0/31"), 1));
  ASSERT_FALSE(index.insert(pfx("255.255.255.254/31"), 2));
  EXPECT_EQ(index.find(ip("0.0.0.1")), 1u);
  EXPECT_EQ(index.find(ip("255.255.255.255")), 2u);
  EXPECT_EQ(index.insert(pfx("0.0.0.0/0"), 3), 1u);

  PrefixIndex whole;
  ASSERT_FALSE(whole.insert(pfx("0.0.0.0/0"), 4));
  EXPECT_EQ(whole.find(ip("128.0.0.1")), 4u);
  EXPECT_EQ(whole.insert(pfx("255.0.0.0/8"), 5), 4u);
}

// Random disjoint sets against the naive definition: the match is the only
// inserted prefix containing the address.
TEST(PrefixIndex, MatchesLinearScanOnRandomPrefixes) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    PrefixIndex index;
    std::map<Prefix, PrefixIndex::Value> kept;
    for (PrefixIndex::Value v = 0; v < 300; ++v) {
      const int length = 8 + static_cast<int>(rng.below(25));
      const Prefix p = Prefix::covering(
          Ipv4Addr(0x0A000000u | static_cast<std::uint32_t>(rng.below(1u << 24))),
          length);
      bool clash = false;
      for (const auto& [q, value] : kept) clash |= q.contains(p) || p.contains(q);
      ASSERT_EQ(index.insert(p, v).has_value(), clash) << p.to_string();
      if (!clash) kept.emplace(p, v);
    }
    ASSERT_EQ(index.size(), kept.size());
    for (int i = 0; i < 2000; ++i) {
      const Ipv4Addr addr(0x0A000000u |
                          static_cast<std::uint32_t>(rng.below(1u << 24)));
      std::optional<PrefixIndex::Value> want;
      for (const auto& [q, value] : kept)
        if (q.contains(addr)) want = value;
      ASSERT_EQ(index.find(addr), want) << addr.to_string();
    }
    for (const auto& [q, value] : kept) ASSERT_EQ(index.find_exact(q), value);
  }
}

// Random nested sets against the naive definition: every inserted prefix
// containing the address matches, and an exact repeat keeps its first value.
// Prefixes are grown around a few anchors, the two ends of the address space
// among them, so chains of /1 to /31 nest many layers deep.
TEST(NestedPrefixIndex, MatchesLinearScanOnRandomNestedPrefixes) {
  using Value = NestedPrefixIndex::Value;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    std::vector<Ipv4Addr> anchors = {Ipv4Addr(0u), Ipv4Addr(0xFFFFFFFFu)};
    for (int i = 0; i < 6; ++i)
      anchors.emplace_back(static_cast<std::uint32_t>(rng.next()));
    std::vector<Prefix> order;
    for (int i = 0; i < 400; ++i) {
      const Ipv4Addr around =
          rng.chance(0.8) ? anchors[rng.below(anchors.size())]
                          : Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
      order.push_back(Prefix::covering(around, 1 + static_cast<int>(rng.below(31))));
    }
    // Exact repeats, which carry other values.
    for (int i = 0; i < 100; ++i) order.push_back(order[rng.below(order.size())]);
    rng.shuffle(order);

    NestedPrefixIndex index;
    std::map<Prefix, Value> kept;
    for (Value v = 0; v < order.size(); ++v) {
      const Prefix& p = order[v];
      const auto first = kept.find(p);
      if (first == kept.end()) {
        ASSERT_FALSE(index.insert(p, v)) << p.to_string();
        kept.emplace(p, v);
      } else {
        ASSERT_EQ(index.insert(p, v), first->second) << p.to_string();
      }
    }

    std::vector<Ipv4Addr> queries(anchors);
    for (const auto& [q, value] : kept) {
      queries.push_back(q.network());
      queries.push_back(q.broadcast());
    }
    for (int i = 0; i < 2000; ++i)
      queries.emplace_back(static_cast<std::uint32_t>(rng.next()));
    for (const Ipv4Addr addr : queries) {
      std::vector<Value> want;
      for (const auto& [q, value] : kept)
        if (q.contains(addr)) want.push_back(value);
      std::vector<Value> got;
      index.for_each_covering(addr, [&](Value v) { got.push_back(v); });
      std::sort(want.begin(), want.end());
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, want) << addr.to_string();
      ASSERT_EQ(index.covers(addr), !want.empty()) << addr.to_string();
    }
  }
}

}  // namespace
}  // namespace tn::net
