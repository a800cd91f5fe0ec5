#include "net/prefix.h"

#include <gtest/gtest.h>

#include <string>

namespace tn::net {
namespace {

TEST(Prefix, ToStringForEveryLength) {
  // /0 to /32, each with its network address as printed by Ipv4Addr.
  for (const Ipv4Addr addr :
       {Ipv4Addr(0xFFFFFFFFu), Ipv4Addr(10, 0, 100, 9), Ipv4Addr(0)}) {
    for (int length = 0; length <= 32; ++length) {
      const Prefix prefix = Prefix::covering(addr, length);
      const std::string expected =
          prefix.network().to_string() + "/" + std::to_string(length);
      EXPECT_EQ(prefix.to_string(), expected);
      EXPECT_LE(expected.size(), Prefix::kMaxText);
    }
  }
  EXPECT_EQ(Prefix::covering(Ipv4Addr(0xFFFFFFFFu), 32).to_string(),
            "255.255.255.255/32");
  EXPECT_EQ(Prefix::covering(Ipv4Addr(0xFFFFFFFFu), 0).to_string(),
            "0.0.0.0/0");
  EXPECT_EQ(Prefix::covering(Ipv4Addr(10, 0, 100, 9), 10).to_string(),
            "10.0.0.0/10");
}

TEST(Prefix, CoveringZeroesHostBits) {
  const auto p = Prefix::covering(Ipv4Addr(192, 168, 1, 77), 24);
  EXPECT_EQ(p.network(), Ipv4Addr(192, 168, 1, 0));
  EXPECT_EQ(p.length(), 24);
  EXPECT_EQ(p.to_string(), "192.168.1.0/24");
}

TEST(Prefix, ParseNormalizesHostBits) {
  const auto p = Prefix::parse("10.1.2.3/16");
  ASSERT_TRUE(p);
  EXPECT_EQ(p->network(), Ipv4Addr(10, 1, 0, 0));
}

TEST(Prefix, ParseRejectsMalformed) {
  EXPECT_FALSE(Prefix::parse("10.0.0.0"));
  EXPECT_FALSE(Prefix::parse("10.0.0.0/33"));
  EXPECT_FALSE(Prefix::parse("10.0.0.0/-1"));
  EXPECT_FALSE(Prefix::parse("10.0.0/24"));
  EXPECT_FALSE(Prefix::parse("/24"));
}

TEST(Prefix, SizeAndCapacity) {
  EXPECT_EQ(Prefix::parse("10.0.0.0/24")->size(), 256u);
  EXPECT_EQ(Prefix::parse("10.0.0.0/24")->capacity(), 254u);
  EXPECT_EQ(Prefix::parse("10.0.0.0/31")->size(), 2u);
  EXPECT_EQ(Prefix::parse("10.0.0.0/31")->capacity(), 2u);  // RFC 3021
  EXPECT_EQ(Prefix::parse("10.0.0.0/32")->size(), 1u);
  EXPECT_EQ(Prefix::parse("10.0.0.0/32")->capacity(), 1u);
  EXPECT_EQ(Prefix::parse("0.0.0.0/0")->size(), 1ULL << 32);
}

TEST(Prefix, ContainsAddress) {
  const auto p = *Prefix::parse("10.0.4.0/30");
  EXPECT_TRUE(p.contains(Ipv4Addr(10, 0, 4, 0)));
  EXPECT_TRUE(p.contains(Ipv4Addr(10, 0, 4, 3)));
  EXPECT_FALSE(p.contains(Ipv4Addr(10, 0, 4, 4)));
  EXPECT_FALSE(p.contains(Ipv4Addr(10, 0, 3, 255)));
}

TEST(Prefix, ContainsPrefix) {
  const auto parent = *Prefix::parse("10.0.0.0/24");
  const auto child = *Prefix::parse("10.0.0.128/25");
  EXPECT_TRUE(parent.contains(child));
  EXPECT_FALSE(child.contains(parent));
  EXPECT_TRUE(parent.contains(parent));
}

TEST(Prefix, BroadcastAddress) {
  EXPECT_EQ(Prefix::parse("192.168.1.0/28")->broadcast(),
            Ipv4Addr(192, 168, 1, 15));
  EXPECT_EQ(Prefix::parse("0.0.0.0/0")->broadcast(), Ipv4Addr(0xFFFFFFFFu));
}

TEST(Prefix, BoundaryDetection) {
  const auto p28 = *Prefix::parse("192.168.1.0/28");
  EXPECT_TRUE(p28.is_boundary(Ipv4Addr(192, 168, 1, 0)));
  EXPECT_TRUE(p28.is_boundary(Ipv4Addr(192, 168, 1, 15)));
  EXPECT_FALSE(p28.is_boundary(Ipv4Addr(192, 168, 1, 1)));
  // H9 exception: /31 (and /32) have no boundary addresses.
  const auto p31 = *Prefix::parse("10.0.0.0/31");
  EXPECT_FALSE(p31.is_boundary(Ipv4Addr(10, 0, 0, 0)));
  EXPECT_FALSE(p31.is_boundary(Ipv4Addr(10, 0, 0, 1)));
}

TEST(Prefix, ParentGrowsByOneBit) {
  const auto p = *Prefix::parse("10.0.0.4/31");
  EXPECT_EQ(p.parent(), *Prefix::parse("10.0.0.4/30"));
  EXPECT_EQ(p.parent().parent(), *Prefix::parse("10.0.0.0/29"));
}

TEST(Prefix, HalvesPartitionTheRange) {
  const auto p = *Prefix::parse("10.0.0.0/29");
  EXPECT_EQ(p.lower_half(), *Prefix::parse("10.0.0.0/30"));
  EXPECT_EQ(p.upper_half(), *Prefix::parse("10.0.0.4/30"));
  EXPECT_EQ(p.lower_half().size() + p.upper_half().size(), p.size());
}

TEST(Prefix, AtIndexesAddresses) {
  const auto p = *Prefix::parse("10.0.0.8/30");
  EXPECT_EQ(p.at(0), Ipv4Addr(10, 0, 0, 8));
  EXPECT_EQ(p.at(3), Ipv4Addr(10, 0, 0, 11));
}

TEST(Prefix, MateRelationWithCovering) {
  // covering(addr, 31) contains exactly addr and its mate31.
  const Ipv4Addr a(172, 16, 0, 9);
  const auto p = Prefix::covering(a, 31);
  EXPECT_TRUE(p.contains(a));
  EXPECT_TRUE(p.contains(a.mate31()));
  EXPECT_EQ(p.size(), 2u);
}

}  // namespace
}  // namespace tn::net
