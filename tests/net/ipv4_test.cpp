#include "net/ipv4.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <sstream>
#include <string>

namespace tn::net {
namespace {

// The dotted quad as printf formats it, the reference Ipv4Addr::format must
// match byte for byte (journals and CSVs are pinned on these bytes).
std::string printf_quad(std::uint32_t value) {
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "%u.%u.%u.%u", value >> 24,
                (value >> 16) & 0xFF, (value >> 8) & 0xFF, value & 0xFF);
  return buffer;
}

TEST(Ipv4Addr, ToStringMatchesPrintfForEveryOctetInEveryPosition) {
  // Every octet value in each of the four positions, against fillers that
  // sit on each digit-count boundary.
  for (const std::uint32_t filler : {0u, 9u, 10u, 99u, 100u, 255u}) {
    for (int position = 0; position < 4; ++position) {
      for (std::uint32_t octet = 0; octet < 256; ++octet) {
        std::uint32_t value = 0;
        for (int i = 0; i < 4; ++i)
          value = (value << 8) | (i == position ? octet : filler);
        const Ipv4Addr addr(value);
        ASSERT_EQ(addr.to_string(), printf_quad(value))
            << "octet " << octet << " at position " << position;
        std::ostringstream os;
        os << addr;
        ASSERT_EQ(os.str(), printf_quad(value));
      }
    }
  }
}

TEST(Ipv4Addr, ToStringMatchesPrintfOnRandomAddresses) {
  std::mt19937 rng(20101101);
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint32_t value = rng();
    ASSERT_EQ(Ipv4Addr(value).to_string(), printf_quad(value)) << value;
  }
}

TEST(Ipv4Addr, FormatWritesAtMostMaxText) {
  char text[Ipv4Addr::kMaxText + 1];
  text[Ipv4Addr::kMaxText] = '#';
  char* end = Ipv4Addr(0xFFFFFFFFu).format(text);
  EXPECT_EQ(end - text, static_cast<std::ptrdiff_t>(Ipv4Addr::kMaxText));
  EXPECT_EQ(text[Ipv4Addr::kMaxText], '#');
  EXPECT_EQ(std::string(text, end), "255.255.255.255");
  EXPECT_EQ(Ipv4Addr(0).format(text) - text, 7);
}

TEST(Ipv4Addr, RoundTripsToString) {
  const Ipv4Addr addr(192, 168, 1, 42);
  EXPECT_EQ(addr.to_string(), "192.168.1.42");
  EXPECT_EQ(Ipv4Addr::parse("192.168.1.42"), addr);
}

// Log lines stream addresses instead of to_string() results, so an enabled
// line must stay byte-identical: operator<< prints exactly to_string().
TEST(Ipv4Addr, StreamsExactlyToString) {
  for (const std::uint32_t value :
       {0u, 1u, 0x0A000001u, 0xC0A8012Au, 0x7F000001u, 0xFFFFFFFEu,
        0xFFFFFFFFu, 0x01020304u, 0x64400A0Bu}) {
    const Ipv4Addr addr(value);
    std::ostringstream os;
    os << addr;
    EXPECT_EQ(os.str(), addr.to_string());
    std::ostringstream line;
    line << "v=" << addr << " d=" << 3 << " -> " << addr.mate31();
    EXPECT_EQ(line.str(), "v=" + addr.to_string() + " d=3 -> " +
                              addr.mate31().to_string());
  }
}

TEST(Ipv4Addr, ParseEdgeAddresses) {
  EXPECT_EQ(Ipv4Addr::parse("0.0.0.0"), Ipv4Addr(0));
  EXPECT_EQ(Ipv4Addr::parse("255.255.255.255"), Ipv4Addr(0xFFFFFFFFu));
}

TEST(Ipv4Addr, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Addr::parse(""));
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3"));
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.4.5"));
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.256"));
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.4x"));
  EXPECT_FALSE(Ipv4Addr::parse("01.2.3.4"));  // leading zero (octal ambiguity)
  EXPECT_FALSE(Ipv4Addr::parse("1..2.3"));
  EXPECT_FALSE(Ipv4Addr::parse(".1.2.3"));
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3."));
}

TEST(Ipv4Addr, Mate31FlipsLastBit) {
  const Ipv4Addr even(10, 0, 0, 4);
  const Ipv4Addr odd(10, 0, 0, 5);
  EXPECT_EQ(even.mate31(), odd);
  EXPECT_EQ(odd.mate31(), even);
  // mate-31 is an involution
  EXPECT_EQ(even.mate31().mate31(), even);
}

TEST(Ipv4Addr, Mate30PairsUsableHosts) {
  // In a classic /30 (x.0 network, x.3 broadcast) the usable hosts are
  // x.1 and x.2; mate30 maps them onto each other.
  const Ipv4Addr one(10, 0, 0, 1);
  const Ipv4Addr two(10, 0, 0, 2);
  EXPECT_EQ(one.mate30(), two);
  EXPECT_EQ(two.mate30(), one);
  EXPECT_EQ(one.mate30().mate30(), one);
}

TEST(Ipv4Addr, SharesPrefix) {
  const Ipv4Addr a(10, 1, 2, 3);
  const Ipv4Addr b(10, 1, 2, 200);
  EXPECT_TRUE(a.shares_prefix(b, 24));
  EXPECT_FALSE(a.shares_prefix(b, 25));
  EXPECT_TRUE(a.shares_prefix(b, 0));
  EXPECT_TRUE(a.shares_prefix(a, 32));
}

TEST(Ipv4Addr, MatesShareExpectedPrefixes) {
  const Ipv4Addr a(172, 16, 5, 8);
  EXPECT_TRUE(a.shares_prefix(a.mate31(), 31));
  EXPECT_TRUE(a.shares_prefix(a.mate30(), 30));
  EXPECT_FALSE(a.shares_prefix(a.mate30(), 31));
}

TEST(Ipv4Addr, OrderingFollowsNumericValue) {
  EXPECT_LT(Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2));
  EXPECT_LT(Ipv4Addr(9, 255, 255, 255), Ipv4Addr(10, 0, 0, 0));
}

TEST(Ipv4Addr, UnsetSentinel) {
  EXPECT_TRUE(Ipv4Addr().is_unset());
  EXPECT_FALSE(Ipv4Addr(1).is_unset());
}

}  // namespace
}  // namespace tn::net
