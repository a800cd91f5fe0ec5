#include "util/strings.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace tn::util {
namespace {

TEST(Split, KeepsEmptyFields) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
}

TEST(Split, SingleField) {
  EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(Split, TrailingSeparator) {
  EXPECT_EQ(split("a,", ','), (std::vector<std::string>{"a", ""}));
}

TEST(SplitWs, DropsEmptyRuns) {
  EXPECT_EQ(split_ws("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitWs, EmptyInput) { EXPECT_TRUE(split_ws("   ").empty()); }

TEST(Join, RoundTripsWithSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(join(parts, ","), "x,y,z");
  EXPECT_EQ(split(join(parts, ","), ','), parts);
}

TEST(Trim, RemovesBothEnds) {
  EXPECT_EQ(trim("  hello \t"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StartsWith, Basic) {
  EXPECT_TRUE(starts_with("tracenet", "trace"));
  EXPECT_FALSE(starts_with("trace", "tracenet"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(ParseU64, ValidNumbers) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, UINT64_MAX);
}

TEST(ParseU64, RejectsGarbageAndOverflow) {
  std::uint64_t v = 0;
  EXPECT_FALSE(parse_u64("", v));
  EXPECT_FALSE(parse_u64("-1", v));
  EXPECT_FALSE(parse_u64("12x", v));
  EXPECT_FALSE(parse_u64("18446744073709551616", v));  // 2^64
}

TEST(FormatDouble, FixedDecimals) {
  EXPECT_EQ(format_double(3.0, 3), "3.000");
  EXPECT_EQ(format_double(0.8635, 2), "0.86");
}

TEST(Percent, HandlesZeroDenominator) {
  EXPECT_EQ(percent(1, 0), "n/a");
  EXPECT_EQ(percent(737, 1000, 1), "73.7%");
}

TEST(JsonEscape, PlainTextPassesThrough) {
  EXPECT_EQ(json_escape(""), "");
  EXPECT_EQ(json_escape("probe.wire"), "probe.wire");
  EXPECT_EQ(json_escape("163.253.0.14/31"), "163.253.0.14/31");
}

TEST(JsonEscape, QuotesAndBackslashes) {
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("C:\\path\\to"), "C:\\\\path\\\\to");
  // A value ending in a backslash must not escape the closing quote.
  EXPECT_EQ(json_escape("trailing\\"), "trailing\\\\");
}

TEST(JsonEscape, NamedControlEscapes) {
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape("a\tb"), "a\\tb");
  EXPECT_EQ(json_escape("a\rb"), "a\\rb");
  EXPECT_EQ(json_escape("a\bb"), "a\\bb");
  EXPECT_EQ(json_escape("a\fb"), "a\\fb");
}

TEST(JsonEscape, BareControlBytesUseUnicodeEscapes) {
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(json_escape(std::string_view("\x1f", 1)), "\\u001f");
  EXPECT_EQ(json_escape(std::string_view("\x00", 1)), "\\u0000");
}

TEST(JsonEscape, Utf8PassesThroughUntouched) {
  // High bytes are not control characters; multi-byte sequences stay intact.
  EXPECT_EQ(json_escape("r\xC3\xA9seau"), "r\xC3\xA9seau");
}

// The byte-at-a-time escaper append_json_escaped replaced; the run-at-a-time
// version must produce the same bytes for every input.
std::string bytewise_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

TEST(JsonEscape, MatchesTheBytewiseEscaperOnEveryByte) {
  for (int byte = 0; byte < 256; ++byte) {
    const char c = static_cast<char>(byte);
    // Alone, and inside runs of clean bytes on both sides.
    for (const std::string& text :
         {std::string(1, c), "ab" + std::string(1, c) + "cd",
          std::string(1, c) + std::string(1, c) + "x"}) {
      ASSERT_EQ(json_escape(text), bytewise_escape(text)) << "byte " << byte;
    }
  }
  EXPECT_EQ(json_escape("\x7f"), "\x7f");  // DEL is not a control escape
  const std::string mixed =
      "r\xC3\xA9seau \xE2\x82\xAC \xF0\x9F\x98\x80\n\"q\"\\\x01" "end";
  EXPECT_EQ(json_escape(mixed), bytewise_escape(mixed));
}

TEST(JsonEscape, AppendVariantAppends) {
  std::string out = "\"key\":\"";
  append_json_escaped(out, "a\"b");
  out += '"';
  EXPECT_EQ(out, "\"key\":\"a\\\"b\"");
}

}  // namespace
}  // namespace tn::util
