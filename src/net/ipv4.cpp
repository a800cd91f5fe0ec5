#include "net/ipv4.h"

#include <ostream>

namespace tn::net {

namespace {

// Writes `octet` (0..255) in decimal without leading zeros.
char* format_octet(char* out, std::uint32_t octet) noexcept {
  if (octet >= 100) {
    *out++ = static_cast<char>('0' + octet / 100);
    octet %= 100;
    *out++ = static_cast<char>('0' + octet / 10);
  } else if (octet >= 10) {
    *out++ = static_cast<char>('0' + octet / 10);
  }
  *out++ = static_cast<char>('0' + octet % 10);
  return out;
}

}  // namespace

char* Ipv4Addr::format(char* out) const noexcept {
  out = format_octet(out, value_ >> 24);
  *out++ = '.';
  out = format_octet(out, (value_ >> 16) & 0xFF);
  *out++ = '.';
  out = format_octet(out, (value_ >> 8) & 0xFF);
  *out++ = '.';
  return format_octet(out, value_ & 0xFF);
}

std::string Ipv4Addr::to_string() const {
  char text[kMaxText];
  return std::string(text, format(text));
}

std::ostream& operator<<(std::ostream& os, Ipv4Addr addr) {
  char text[Ipv4Addr::kMaxText];
  return os << std::string_view(text, addr.format(text));
}

std::optional<Ipv4Addr> Ipv4Addr::parse(std::string_view text) noexcept {
  std::uint32_t octets[4] = {};
  int octet = 0;
  int digits = 0;
  for (char c : text) {
    if (c == '.') {
      if (digits == 0 || octet == 3) return std::nullopt;
      ++octet;
      digits = 0;
    } else if (c >= '0' && c <= '9') {
      if (digits == 3) return std::nullopt;
      // Reject leading zeros ("01") to avoid octal ambiguity.
      if (digits > 0 && octets[octet] == 0) return std::nullopt;
      octets[octet] = octets[octet] * 10 + static_cast<std::uint32_t>(c - '0');
      if (octets[octet] > 255) return std::nullopt;
      ++digits;
    } else {
      return std::nullopt;
    }
  }
  if (octet != 3 || digits == 0) return std::nullopt;
  return Ipv4Addr(static_cast<std::uint8_t>(octets[0]),
                  static_cast<std::uint8_t>(octets[1]),
                  static_cast<std::uint8_t>(octets[2]),
                  static_cast<std::uint8_t>(octets[3]));
}

}  // namespace tn::net
