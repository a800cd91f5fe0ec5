// CIDR prefix (subnet) value type — the unit of output of tracenet.
//
// §3.2(i) of the paper: "Given any subnetwork S on the Internet, the IP
// addresses assigned to the interfaces on S should share a common p bits
// prefix. Such a subnet S is said to have a /p prefix."
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "net/ipv4.h"

namespace tn::net {

class Prefix {
 public:
  // The default prefix is 0.0.0.0/0; rarely useful, kept for container use.
  constexpr Prefix() noexcept = default;

  // Builds the prefix of the given length covering `addr` (host bits zeroed).
  static constexpr Prefix covering(Ipv4Addr addr, int length) noexcept {
    return Prefix(Ipv4Addr(addr.value() & mask_of(length)), length);
  }

  // Parses "a.b.c.d/len". Host bits are normalized away.
  static std::optional<Prefix> parse(std::string_view text) noexcept;

  constexpr Ipv4Addr network() const noexcept { return network_; }
  constexpr int length() const noexcept { return length_; }

  // Number of addresses covered: 2^(32-length).
  constexpr std::uint64_t size() const noexcept {
    return std::uint64_t{1} << (32 - length_);
  }

  // Usable interface capacity under classic addressing: size() minus network
  // and broadcast addresses, except /31 (RFC 3021) and /32 where all count.
  constexpr std::uint64_t capacity() const noexcept {
    return length_ >= 31 ? size() : size() - 2;
  }

  constexpr std::uint32_t mask() const noexcept { return mask_of(length_); }

  constexpr Ipv4Addr broadcast() const noexcept {
    return Ipv4Addr(network_.value() | ~mask());
  }

  constexpr bool contains(Ipv4Addr addr) const noexcept {
    return (addr.value() & mask()) == network_.value();
  }

  constexpr bool contains(const Prefix& other) const noexcept {
    return other.length_ >= length_ && contains(other.network_);
  }

  // True when `addr` is the network or broadcast address of this prefix.
  // §3.5 H9: a bona-fide subnet never assigns these unless it is a /31.
  constexpr bool is_boundary(Ipv4Addr addr) const noexcept {
    if (length_ >= 31) return false;
    return addr == network_ || addr == broadcast();
  }

  // The enclosing prefix one bit shorter (grow step of Algorithm 1).
  // Precondition: length() > 0.
  constexpr Prefix parent() const noexcept {
    return covering(network_, length_ - 1);
  }

  // The two halves one bit longer (split step of H9).
  // Precondition: length() < 32.
  constexpr Prefix lower_half() const noexcept {
    return Prefix(network_, length_ + 1);
  }
  constexpr Prefix upper_half() const noexcept {
    return Prefix(Ipv4Addr(network_.value() | (1u << (31 - length_))),
                  length_ + 1);
  }

  // i-th address in the range. Precondition: index < size().
  constexpr Ipv4Addr at(std::uint64_t index) const noexcept {
    return Ipv4Addr(network_.value() + static_cast<std::uint32_t>(index));
  }

  // The longest prefix text, "255.255.255.255/32".
  static constexpr std::size_t kMaxText = Ipv4Addr::kMaxText + 3;

  // Writes "a.b.c.d/len" at `out`, which has room for kMaxText chars, and
  // returns one past the last char written (see Ipv4Addr::format).
  char* format(char* out) const noexcept;

  // "a.b.c.d/len"
  std::string to_string() const;

  friend constexpr auto operator<=>(const Prefix&, const Prefix&) noexcept = default;

 private:
  constexpr Prefix(Ipv4Addr network, int length) noexcept
      : network_(network), length_(length) {}

  static constexpr std::uint32_t mask_of(int length) noexcept {
    if (length <= 0) return 0;
    if (length >= 32) return 0xFFFFFFFFu;
    return ~(0xFFFFFFFFu >> length);
  }

  Ipv4Addr network_{};
  int length_ = 0;
};

}  // namespace tn::net

template <>
struct std::hash<tn::net::Prefix> {
  std::size_t operator()(const tn::net::Prefix& p) const noexcept {
    return std::hash<tn::net::Ipv4Addr>{}(p.network()) ^
           (static_cast<std::size_t>(p.length()) << 1);
  }
};
