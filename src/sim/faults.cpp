#include "sim/faults.h"

#include <istream>
#include <optional>
#include <stdexcept>
#include <string>

#include "sim/topology.h"
#include "util/strings.h"

namespace tn::sim {

namespace {

[[noreturn]] void fail(std::string_view source, int line,
                       const std::string& what) {
  throw std::invalid_argument(std::string(source) + ":" +
                              std::to_string(line) + ": " + what);
}

double parse_probability(std::string_view source, int line,
                         const std::string& key, const std::string& value) {
  double p = 0.0;
  if (!util::parse_double(value, p) || p > 1.0)
    fail(source, line, key + " wants a probability in [0,1], got '" + value + "'");
  return p;
}

// One "key=value ..." tail applied onto `policy`.
void apply_fields(std::string_view source, int line,
                  const std::vector<std::string>& fields, std::size_t first,
                  FaultPolicy& policy) {
  for (std::size_t i = first; i < fields.size(); ++i) {
    const auto eq = fields[i].find('=');
    if (eq == std::string::npos)
      fail(source, line, "expected key=value, got '" + fields[i] + "'");
    const std::string key = fields[i].substr(0, eq);
    const std::string value = fields[i].substr(eq + 1);
    if (key == "loss") {
      policy.probe_loss = parse_probability(source, line, key, value);
    } else if (key == "reply-loss") {
      policy.reply_loss = parse_probability(source, line, key, value);
    } else if (key == "anonymous") {
      if (value != "0" && value != "1")
        fail(source, line, "anonymous wants 0 or 1, got '" + value + "'");
      policy.anonymous = value == "1";
    } else if (key == "blackhole-ttl") {
      const auto dash = value.find('-');
      std::uint64_t lo = 0, hi = 0;
      const bool ok =
          dash == std::string::npos
              ? util::parse_u64(value, lo) && (hi = lo, true)
              : util::parse_u64(value.substr(0, dash), lo) &&
                    util::parse_u64(value.substr(dash + 1), hi);
      if (!ok || lo == 0 || hi > 255 || lo > hi)
        fail(source, line,
             "blackhole-ttl wants LO-HI in 1..255, got '" + value + "'");
      policy.blackhole_ttl_lo = static_cast<int>(lo);
      policy.blackhole_ttl_hi = static_cast<int>(hi);
    } else if (key == "rate") {
      // rate=TOKENS_PER_S[/BURST]
      const auto slash = value.find('/');
      const std::string rate_text =
          slash == std::string::npos ? value : value.substr(0, slash);
      double rate = 0.0, burst = 8.0;
      if (!util::parse_double(rate_text, rate) || rate <= 0.0)
        fail(source, line,
             "rate wants RATE[/BURST] with RATE > 0, got '" + value + "'");
      if (slash != std::string::npos &&
          (!util::parse_double(value.substr(slash + 1), burst) || burst < 1.0))
        fail(source, line, "rate burst wants a number >= 1, got '" + value + "'");
      policy.icmp_rate = rate;
      policy.icmp_burst = burst;
    } else {
      // A typo like `repy-loss=0.1` must be an error, not a silently ignored
      // knob; name the alternatives so the fix is obvious.
      fail(source, line,
           "unknown key '" + key +
               "' (known: loss, reply-loss, anonymous, blackhole-ttl, rate)");
    }
  }
}

std::optional<NodeId> find_node(const Topology& topology,
                                const std::string& name) {
  for (NodeId id = 0; id < topology.node_count(); ++id)
    if (topology.node(id).name == name) return id;
  return std::nullopt;
}

}  // namespace

bool FaultSpec::churned(NodeId node) const noexcept {
  if (churn_fraction <= 0.0) return false;
  if (churn_fraction >= 1.0) return true;
  // Seed-keyed membership draw: the churned set is a pure function of
  // (seed, node), never of probe traffic or schedule.
  const std::uint64_t roll = util::mix64(util::mix64(seed ^ 0xC0B7ED9E11ULL) ^
                                         static_cast<std::uint64_t>(node));
  return static_cast<double>(roll >> 11) * 0x1.0p-53 < churn_fraction;
}

util::Rng fault_draw_stream(std::uint64_t seed,
                            const net::Probe& probe) noexcept {
  // Content key, attempt included: a retry is a fresh packet with its own
  // fate. The double mix decorrelates neighboring targets/ttls.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(probe.target.value()) << 32) |
      (static_cast<std::uint64_t>(probe.flow_id) << 16) |
      (static_cast<std::uint64_t>(probe.attempt) << 10) |
      (static_cast<std::uint64_t>(probe.ttl) << 2) |
      static_cast<std::uint64_t>(probe.protocol);
  return util::Rng(util::mix64(util::mix64(seed ^ 0x7A0B5CEDFA17ULL) ^ key));
}

FaultSpec parse_fault_spec(std::istream& in, const Topology& topology,
                           std::string_view source) {
  FaultSpec spec;
  std::string raw;
  int line_number = 0;
  while (std::getline(in, raw)) {
    ++line_number;
    const auto trimmed = util::trim(raw);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const std::vector<std::string> fields = util::split_ws(trimmed);

    if (fields[0] == "seed") {
      if (fields.size() != 2 || !util::parse_u64(fields[1], spec.seed))
        fail(source, line_number, "seed wants one unsigned integer");
    } else if (fields[0] == "reorder") {
      std::uint64_t window = 0;
      if (fields.size() != 2 || !util::parse_u64(fields[1], window) ||
          window > 1024)
        fail(source, line_number, "reorder wants a window in 0..1024");
      spec.reorder_window = static_cast<int>(window);
    } else if (fields[0] == "hide") {
      // hide LO-HI: walk depths whose routers skip the TTL decrement.
      const std::string& value = fields.size() == 2 ? fields[1] : raw;
      const auto dash =
          fields.size() == 2 ? fields[1].find('-') : std::string::npos;
      std::uint64_t lo = 0, hi = 0;
      const bool ok = fields.size() == 2 && dash != std::string::npos &&
                      util::parse_u64(fields[1].substr(0, dash), lo) &&
                      util::parse_u64(fields[1].substr(dash + 1), hi);
      if (!ok || lo == 0 || hi > 255)
        fail(source, line_number,
             "hide wants LO-HI in 1..255, got '" + value + "'");
      if (lo > hi)
        fail(source, line_number,
             "hide range is inverted: " + std::to_string(lo) + "-" +
                 std::to_string(hi) + " (want LO <= HI)");
      spec.hide_ttl_lo = static_cast<int>(lo);
      spec.hide_ttl_hi = static_cast<int>(hi);
    } else if (fields[0] == "churn") {
      // churn epoch=US fraction=F [gap=US]
      bool have_epoch = false, have_fraction = false;
      for (std::size_t i = 1; i < fields.size(); ++i) {
        const auto eq = fields[i].find('=');
        if (eq == std::string::npos)
          fail(source, line_number,
               "expected key=value, got '" + fields[i] + "'");
        const std::string key = fields[i].substr(0, eq);
        const std::string value = fields[i].substr(eq + 1);
        if (key == "epoch") {
          std::uint64_t epoch = 0;
          // A signed parse would silently wrap a negative epoch; reject any
          // non-positive value explicitly (regression: churn epoch <= 0).
          if (!util::parse_u64(value, epoch) || epoch == 0)
            fail(source, line_number,
                 "churn epoch wants a virtual-time microsecond count > 0, "
                 "got '" + value + "'");
          spec.churn_epoch_us = epoch;
          have_epoch = true;
        } else if (key == "fraction") {
          const double p = parse_probability(source, line_number, key, value);
          if (p <= 0.0)
            fail(source, line_number,
                 "churn fraction wants a probability in (0,1], got '" + value +
                     "'");
          spec.churn_fraction = p;
          have_fraction = true;
        } else if (key == "gap") {
          std::uint64_t gap = 0;
          if (!util::parse_u64(value, gap) || gap == 0)
            fail(source, line_number,
                 "churn gap wants a per-target microsecond count > 0, got '" +
                     value + "'");
          spec.churn_target_gap_us = gap;
        } else {
          fail(source, line_number,
               "unknown key '" + key + "' (known: epoch, fraction, gap)");
        }
      }
      if (!have_epoch || !have_fraction)
        fail(source, line_number,
             "churn wants epoch=US and fraction=F (optional gap=US)");
    } else if (fields[0] == "default") {
      apply_fields(source, line_number, fields, 1, spec.default_policy);
    } else if (fields[0] == "node") {
      if (fields.size() < 3)
        fail(source, line_number, "node wants a name and at least one key=value");
      const auto id = find_node(topology, fields[1]);
      if (!id) fail(source, line_number, "unknown node '" + fields[1] + "'");
      apply_fields(source, line_number, fields, 2, spec.node_overrides[*id]);
    } else {
      fail(source, line_number,
           "unknown directive '" + fields[0] +
               "' (known: seed, reorder, hide, churn, default, node)");
    }
  }
  return spec;
}

}  // namespace tn::sim
