#include "net/prefix.h"

#include "util/strings.h"

namespace tn::net {

std::optional<Prefix> Prefix::parse(std::string_view text) noexcept {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto addr = Ipv4Addr::parse(text.substr(0, slash));
  if (!addr) return std::nullopt;
  std::uint64_t length = 0;
  if (!util::parse_u64(text.substr(slash + 1), length) || length > 32)
    return std::nullopt;
  return covering(*addr, static_cast<int>(length));
}

char* Prefix::format(char* out) const noexcept {
  out = network_.format(out);
  *out++ = '/';
  if (length_ >= 10) *out++ = static_cast<char>('0' + length_ / 10);
  *out++ = static_cast<char>('0' + length_ % 10);
  return out;
}

std::string Prefix::to_string() const {
  char text[kMaxText];
  return std::string(text, format(text));
}

}  // namespace tn::net
