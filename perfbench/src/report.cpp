#include "report.h"

#include <charconv>
#include <cmath>

namespace perfbench {

std::string format_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  const auto [end, error] = std::to_chars(buf, buf + sizeof buf, value);
  if (error != std::errc()) return "0";
  return std::string(buf, end);
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           format_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string metric_lines(const std::vector<Metric>& metrics) {
  std::string out;
  for (const Metric& metric : metrics)
    out += "metric " + metric.name + " " + format_number(metric.value) + " " +
           metric.unit + "\n";
  return out;
}

}  // namespace perfbench
