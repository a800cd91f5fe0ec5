#include "net/ipv4.h"

#include <cstdio>
#include <ostream>

namespace tn::net {

std::string Ipv4Addr::to_string() const {
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "%u.%u.%u.%u", (value_ >> 24) & 0xFF,
                (value_ >> 16) & 0xFF, (value_ >> 8) & 0xFF, value_ & 0xFF);
  return buffer;
}

std::ostream& operator<<(std::ostream& os, Ipv4Addr addr) {
  return os << addr.to_string();
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
