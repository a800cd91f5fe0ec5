// IPv4 address value type and the mate-31 / mate-30 relations from §3.2 of
// the paper ("any two IP addresses that have 31 or 30 bits common prefix are
// called mate-31 or mate-30 of each other").
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

namespace tn::net {

// An IPv4 address held in host byte order. A plain value type: comparable,
// hashable, cheap to copy. 0.0.0.0 doubles as "unset" in contexts where an
// address may be absent (anonymous hops); prefer std::optional at interfaces.
class Ipv4Addr {
 public:
  constexpr Ipv4Addr() noexcept = default;
  constexpr explicit Ipv4Addr(std::uint32_t value) noexcept : value_(value) {}
  constexpr Ipv4Addr(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                     std::uint8_t d) noexcept
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | std::uint32_t{d}) {}

  constexpr std::uint32_t value() const noexcept { return value_; }
  constexpr bool is_unset() const noexcept { return value_ == 0; }

  // The longest dotted quad, "255.255.255.255".
  static constexpr std::size_t kMaxText = 15;

  // Writes the dotted quad at `out`, which has room for kMaxText chars, and
  // returns one past the last char written. to_string, the stream operator
  // and the trace journal all format through it.
  char* format(char* out) const noexcept;

  // "a.b.c.d"
  std::string to_string() const;

  // Parses dotted-quad notation; rejects anything else (no octal, no inet_aton
  // shorthands). Returns nullopt on malformed input.
  static std::optional<Ipv4Addr> parse(std::string_view text) noexcept;

  // The /31 mate: the address differing only in the last bit (RFC 3021
  // point-to-point peer).
  constexpr Ipv4Addr mate31() const noexcept { return Ipv4Addr(value_ ^ 1u); }

  // The /30 mate: the other *usable* host address of this /30 when addressed
  // classically (network and broadcast excluded), i.e. last two bits 01 <-> 10.
  constexpr Ipv4Addr mate30() const noexcept { return Ipv4Addr(value_ ^ 3u); }

  // True when `other` shares this address's first `bits` bits.
  constexpr bool shares_prefix(Ipv4Addr other, int bits) const noexcept {
    if (bits <= 0) return true;
    const std::uint32_t mask = bits >= 32 ? 0xFFFFFFFFu : ~(0xFFFFFFFFu >> bits);
    return (value_ & mask) == (other.value_ & mask);
  }

  friend constexpr auto operator<=>(Ipv4Addr, Ipv4Addr) noexcept = default;

 private:
  std::uint32_t value_ = 0;
};

// Streams the dotted quad, so a log line that is switched off builds no
// string.
std::ostream& operator<<(std::ostream& os, Ipv4Addr addr);

}  // namespace tn::net

template <>
struct std::hash<tn::net::Ipv4Addr> {
  std::size_t operator()(tn::net::Ipv4Addr addr) const noexcept {
    // Fibonacci scrambling; addresses are often sequential.
    return static_cast<std::size_t>(addr.value() * 0x9E3779B9u);
  }
};
