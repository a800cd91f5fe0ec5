#include "util/strings.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace tn::util {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_ws(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    std::size_t begin = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > begin) out.emplace_back(text.substr(begin, i - begin));
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view trim(std::string_view text) noexcept {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool parse_u64(std::string_view text, std::uint64_t& out) noexcept {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;  // overflow
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

bool parse_double(std::string_view text, double& out) noexcept {
  if (text.empty() || text.size() >= 64) return false;
  char buffer[64];
  text.copy(buffer, text.size());
  buffer[text.size()] = '\0';
  char* end = nullptr;
  const double value = std::strtod(buffer, &end);
  if (end != buffer + text.size()) return false;
  if (!std::isfinite(value) || value < 0.0) return false;
  out = value;
  return true;
}

std::string format_double(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", decimals, value);
  return buffer;
}

std::string percent(std::uint64_t numerator, std::uint64_t denominator, int decimals) {
  if (denominator == 0) return "n/a";
  return format_double(100.0 * static_cast<double>(numerator) /
                           static_cast<double>(denominator),
                       decimals) +
         "%";
}

void append_json_escaped(std::string& out, std::string_view text) {
  std::size_t clean = 0;  // start of the run of bytes that need no escape
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    // UTF-8 bytes (>= 0x80) and DEL pass through untouched.
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + clean, i - clean);
    clean = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buffer[8];
        std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
        out += buffer;
      }
    }
  }
  out.append(text.data() + clean, text.size() - clean);
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_json_escaped(out, text);
  return out;
}

}  // namespace tn::util
