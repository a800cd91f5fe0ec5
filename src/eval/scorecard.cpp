#include "eval/scorecard.h"

#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "probe/retry.h"
#include "probe/sim_engine.h"
#include "runtime/campaign.h"
#include "sim/faults.h"
#include "sim/network.h"
#include "sim/vtime/scheduler.h"
#include "topo/reference.h"

namespace tn::eval {

namespace {

constexpr std::string_view kSchema = "tracenet-accuracy-v1";

topo::ReferenceTopology build_reference(const ScenarioCell& cell) {
  if (cell.topology == "internet2") return topo::internet2_like();
  if (cell.topology == "geant") return topo::geant_like();
  throw std::runtime_error("scorecard: unknown topology '" + cell.topology +
                           "' (known: internet2, geant)");
}

// Applies the cell's programmatic knobs. Mutations key off stable structural
// properties (node/subnet creation order), never off names, so they commute
// with nothing and depend on nothing but the pinned reference build. A
// topology mutation reopens the snapshot by move and freezes the variant.
void apply_mutation(const ScenarioCell& cell, topo::ReferenceTopology& ref,
                    sim::FaultSpec& spec, sim::NetworkConfig& net_config) {
  switch (cell.mutation) {
    case CellMutation::kNone:
      break;
    case CellMutation::kAnonymousEveryNth: {
      if (cell.mutation_arg < 1)
        throw std::runtime_error("scorecard: " + cell.scenario +
                                 ": anonymous density wants arg >= 1");
      std::size_t router_ordinal = 0;
      for (sim::NodeId id = 0; id < ref.topo.node_count(); ++id) {
        if (ref.topo.node(id).is_host || id == ref.vantage) continue;
        if (router_ordinal++ % static_cast<std::size_t>(cell.mutation_arg) == 0)
          spec.node_overrides[id].anonymous = true;
      }
      break;
    }
    case CellMutation::kPerPacketLb: {
      sim::TopologyBuilder topo(std::move(ref.topo));
      for (sim::NodeId id = 0; id < topo.node_count(); ++id)
        if (!topo.node(id).is_host)
          topo.set_per_packet_load_balancing(id, true);
      ref.topo = std::move(topo).build();
      break;
    }
    case CellMutation::kPerDestAddrEcmp:
      net_config.ecmp_hash = sim::EcmpHashMode::kPerDestAddr;
      break;
    case CellMutation::kFirewallEveryNth: {
      if (cell.mutation_arg < 1)
        throw std::runtime_error("scorecard: " + cell.scenario +
                                 ": firewall density wants arg >= 1");
      sim::TopologyBuilder topo(std::move(ref.topo));
      std::size_t ordinal = 0;
      for (const topo::GroundTruthSubnet& truth : ref.registry.all()) {
        if (ordinal++ % static_cast<std::size_t>(cell.mutation_arg) != 0)
          continue;
        if (const auto id = topo.find_subnet_exact(truth.prefix))
          topo.subnet_mut(*id).firewalled = true;
      }
      ref.topo = std::move(topo).build();
      break;
    }
  }
}

void append_rate(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\": %.4f", key, value);
  out += buf;
}

// --- Strict line-oriented reader (trace/reader.h approach) ----------------

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("scorecard json:" + std::to_string(line_no) + ": " +
                           what);
}

std::string_view raw_value(std::string_view line, std::string_view key,
                           std::size_t line_no) {
  const std::string needle = "\"" + std::string(key) + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos)
    fail(line_no, "missing key \"" + std::string(key) + "\"");
  std::string_view rest = line.substr(at + needle.size());
  const std::size_t end = rest.find_first_of(",}");
  if (end == std::string_view::npos)
    fail(line_no, "unterminated value for \"" + std::string(key) + "\"");
  return rest.substr(0, end);
}

std::string string_value(std::string_view line, std::string_view key,
                         std::size_t line_no) {
  std::string_view raw = raw_value(line, key, line_no);
  if (raw.size() < 2 || raw.front() != '"' || raw.back() != '"')
    fail(line_no, "key \"" + std::string(key) + "\" wants a quoted string");
  return std::string(raw.substr(1, raw.size() - 2));
}

int int_value(std::string_view line, std::string_view key,
              std::size_t line_no) {
  const std::string_view raw = raw_value(line, key, line_no);
  int value = 0;
  std::size_t used = 0;
  try {
    value = std::stoi(std::string(raw), &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != raw.size() || value < 0)
    fail(line_no, "key \"" + std::string(key) +
                      "\" wants a non-negative integer, got '" +
                      std::string(raw) + "'");
  return value;
}

double double_value(std::string_view line, std::string_view key,
                    std::size_t line_no) {
  const std::string_view raw = raw_value(line, key, line_no);
  double value = 0.0;
  std::size_t used = 0;
  try {
    value = std::stod(std::string(raw), &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != raw.size() || value < 0.0)
    fail(line_no, "key \"" + std::string(key) +
                      "\" wants a non-negative number, got '" +
                      std::string(raw) + "'");
  return value;
}

}  // namespace

CellResult run_cell(const ScenarioCell& cell, const ScorecardRunConfig& config) {
  topo::ReferenceTopology ref = build_reference(cell);

  sim::FaultSpec spec;
  if (!cell.fault_spec.empty()) {
    std::istringstream in(cell.fault_spec);
    spec = sim::parse_fault_spec(in, ref.topo, cell.scenario);
  }

  sim::NetworkConfig net_config;
  apply_mutation(cell, ref, spec, net_config);

  // Virtual-time mode mirrors the chaos grid's live-like setup: a nonzero
  // emulated RTT whose waits elapse on the discrete-event scheduler. Reply
  // content is computed before the wait either way, so both modes (and the
  // zero-RTT default) yield identical observations.
  std::optional<sim::vtime::Scheduler> scheduler;
  if (config.virtual_time) {
    scheduler.emplace();
    net_config.scheduler = &*scheduler;
    net_config.wall_rtt_us = 2000;
  }

  sim::Network net(ref.topo, net_config);
  if (spec.enabled()) net.set_faults(spec);

  runtime::RuntimeConfig runtime_config;
  runtime_config.jobs = config.jobs;
  runtime_config.campaign.session.probe_window = config.probe_window;
  const VantageObservations observed = runtime::run_campaign(
      net, ref.vantage, "utdallas", ref.targets, runtime_config);

  // Audit on a fresh network carrying the same faults: the campaign
  // network's rate-limiter clock advances per injected probe, so auditing
  // through it would make verdicts depend on the probing schedule. A fresh
  // network keeps the audit a pure function of (topology, faults) — and the
  // retry wrapper gives content-keyed loss a second chance, like the
  // campaign itself had.
  sim::Network audit_net(ref.topo);
  if (spec.enabled()) audit_net.set_faults(spec);
  probe::SimProbeEngine audit_wire(audit_net, ref.vantage);
  probe::RetryingProbeEngine audit(audit_wire, 2);
  const Classification verdicts = classify(ref.registry, observed.subnets, audit);

  CellResult result;
  result.cell = cell;
  result.truth_subnets = static_cast<int>(verdicts.verdicts.size());
  for (const SubnetVerdict& verdict : verdicts.verdicts) {
    ++result.counts[static_cast<std::size_t>(verdict.match)];
    if (verdict.caused_by_unresponsiveness) {
      if (verdict.match == MatchClass::kMissing) ++result.miss_unresponsive;
      if (verdict.match == MatchClass::kUnderestimated)
        ++result.undes_unresponsive;
    }
  }
  result.exact_rate = verdicts.exact_rate();
  result.exact_rate_responsive = verdicts.exact_rate_excluding_unresponsive();
  if (result.truth_subnets > 0)
    result.miss_under_rate =
        static_cast<double>(result.count(MatchClass::kMissing) +
                            result.count(MatchClass::kUnderestimated)) /
        result.truth_subnets;
  return result;
}

Scorecard run_grid(std::span<const ScenarioCell> cells,
                   const ScorecardRunConfig& config) {
  Scorecard card;
  card.cells.reserve(cells.size());
  for (const ScenarioCell& cell : cells) card.cells.push_back(run_cell(cell, config));
  return card;
}

std::string Scorecard::to_json() const {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"";
  out += kSchema;
  out += "\",\n";
  out += "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& result = cells[i];
    out += "    {\"scenario\": \"" + result.cell.scenario + "\", \"topology\": \"" +
           result.cell.topology + "\", ";
    append_rate(out, "tolerance", result.cell.tolerance);
    out += ", \"truth_subnets\": " + std::to_string(result.truth_subnets);
    for (std::size_t m = 0; m < std::size(kAllMatchClasses); ++m)
      out += ", \"" + to_string(kAllMatchClasses[m]) +
             "\": " + std::to_string(result.counts[m]);
    out += ", \"miss_unresponsive\": " + std::to_string(result.miss_unresponsive);
    out += ", \"undes_unresponsive\": " + std::to_string(result.undes_unresponsive);
    out += ", ";
    append_rate(out, "exact_rate", result.exact_rate);
    out += ", ";
    append_rate(out, "exact_rate_responsive", result.exact_rate_responsive);
    out += ", ";
    append_rate(out, "miss_under_rate", result.miss_under_rate);
    out += "}";
    if (i + 1 < cells.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

Scorecard Scorecard::from_json(const std::string& text) {
  Scorecard card;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  bool saw_schema = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find("\"schema\": ") != std::string::npos) {
      if (string_value(line, "schema", line_no) != kSchema)
        fail(line_no, "unsupported schema (want \"" + std::string(kSchema) +
                          "\")");
      saw_schema = true;
      continue;
    }
    if (line.find("\"scenario\": ") == std::string::npos) continue;

    CellResult result;
    result.cell.scenario = string_value(line, "scenario", line_no);
    result.cell.topology = string_value(line, "topology", line_no);
    result.cell.tolerance = double_value(line, "tolerance", line_no);
    result.truth_subnets = int_value(line, "truth_subnets", line_no);
    int verdict_total = 0;
    for (std::size_t m = 0; m < std::size(kAllMatchClasses); ++m) {
      const std::string key = to_string(kAllMatchClasses[m]);
      result.counts[m] = int_value(line, key, line_no);
      if (!match_class_from_string(key))
        fail(line_no, "histogram key \"" + key + "\" is not a match class");
      verdict_total += result.counts[m];
    }
    if (verdict_total != result.truth_subnets)
      fail(line_no, "verdict counts sum to " + std::to_string(verdict_total) +
                        " but truth_subnets is " +
                        std::to_string(result.truth_subnets));
    result.miss_unresponsive = int_value(line, "miss_unresponsive", line_no);
    result.undes_unresponsive = int_value(line, "undes_unresponsive", line_no);
    result.exact_rate = double_value(line, "exact_rate", line_no);
    result.exact_rate_responsive =
        double_value(line, "exact_rate_responsive", line_no);
    result.miss_under_rate = double_value(line, "miss_under_rate", line_no);
    card.cells.push_back(std::move(result));
  }
  if (!saw_schema) fail(line_no, "no \"schema\" line");
  if (card.cells.empty()) fail(line_no, "no cells");
  return card;
}

const CellResult* Scorecard::find(std::string_view scenario,
                                  std::string_view topology) const noexcept {
  for (const CellResult& result : cells)
    if (result.cell.scenario == scenario && result.cell.topology == topology)
      return &result;
  return nullptr;
}

std::vector<ScenarioCell> default_grid() {
  struct Family {
    const char* name;
    const char* spec;
    CellMutation mutation;
    int arg;
    double tolerance;
  };
  // Loss/blackhole/ratelimit/churn/hide run under distinct fault seeds so no
  // two families share draw streams. Tolerances are the regression bands
  // accuracy_diff enforces (docs/ACCURACY.md): generous enough to absorb
  // intentional heuristic tuning, tight enough to flag broken inference.
  static constexpr Family kFamilies[] = {
      {"baseline", "", CellMutation::kNone, 0, 0.0},
      {"loss05", "seed 11\ndefault loss=0.05\n", CellMutation::kNone, 0, 0.10},
      {"loss20", "seed 11\ndefault loss=0.20\n", CellMutation::kNone, 0, 0.12},
      {"loss40", "seed 11\ndefault loss=0.40\n", CellMutation::kNone, 0, 0.15},
      {"anon_sparse", "seed 13\n", CellMutation::kAnonymousEveryNth, 8, 0.12},
      {"anon_dense", "seed 13\n", CellMutation::kAnonymousEveryNth, 3, 0.15},
      {"blackhole5_6", "seed 17\ndefault blackhole-ttl=5-6\n",
       CellMutation::kNone, 0, 0.15},
      {"ratelimit", "seed 19\ndefault rate=200/8\n", CellMutation::kNone, 0,
       0.15},
      {"churn_mid", "seed 23\nchurn epoch=90000 fraction=0.5\n",
       CellMutation::kNone, 0, 0.12},
      {"hide3_4", "seed 29\nhide 3-4\n", CellMutation::kNone, 0, 0.15},
      {"perpacket", "", CellMutation::kPerPacketLb, 0, 0.15},
      {"perdestaddr", "", CellMutation::kPerDestAddrEcmp, 0, 0.12},
      {"firewall25", "", CellMutation::kFirewallEveryNth, 4, 0.15},
  };

  std::vector<ScenarioCell> grid;
  grid.reserve(std::size(kFamilies) * 2);
  for (const Family& family : kFamilies) {
    for (const char* topology : {"internet2", "geant"}) {
      ScenarioCell cell;
      cell.scenario = family.name;
      cell.topology = topology;
      cell.fault_spec = family.spec;
      cell.mutation = family.mutation;
      cell.mutation_arg = family.arg;
      cell.tolerance = family.tolerance;
      grid.push_back(std::move(cell));
    }
  }
  return grid;
}

}  // namespace tn::eval
