#include "options.h"

#include <algorithm>
#include <charconv>

namespace perfbench {

namespace {

template <typename T>
bool parse_number(std::string_view text, T& out) {
  if (text.empty()) return false;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return error == std::errc() && end == text.data() + text.size();
}

}  // namespace

std::variant<Options, std::string> parse_options(
    std::span<const std::string_view> args) {
  Options options;
  bool have_workload = false;
  for (std::size_t i = 0; i < args.size(); i += 2) {
    const std::string_view flag = args[i];
    if (i + 1 >= args.size())
      return "missing value after " + std::string(flag);
    const std::string_view value = args[i + 1];
    if (flag == "--workload") {
      if (std::find(std::begin(kWorkloads), std::end(kWorkloads), value) ==
          std::end(kWorkloads))
        return "unknown workload '" + std::string(value) +
               "' (known: internet_serial, internet_live, refs_lossy)";
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_number(value, options.seed))
        return "bad --seed '" + std::string(value) +
               "' (want an unsigned 64-bit integer)";
    } else if (flag == "--seconds") {
      if (!parse_number(value, options.seconds) || options.seconds < 1 ||
          options.seconds > kMaxSeconds)
        return "bad --seconds '" + std::string(value) + "' (want 1.." +
               std::to_string(kMaxSeconds) + ")";
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        return "bad --trace '" + std::string(value) + "' (want 0 or 1)";
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      if (value.empty()) return "empty --work-dir";
      options.work_dir = value;
    } else {
      return "unknown argument '" + std::string(flag) + "'";
    }
  }
  if (!have_workload) return std::string("missing --workload");
  return options;
}

}  // namespace perfbench
