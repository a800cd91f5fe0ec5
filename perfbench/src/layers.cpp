#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <string_view>

#include "core/session.h"
#include "eval/campaign.h"
#include "eval/report.h"
#include "probe/sim_engine.h"
#include "sim/routing.h"
#include "stats.h"
#include "trace/reader.h"

namespace perfbench {

namespace {

using tn::net::Ipv4Addr;
using tn::net::Probe;
using tn::sim::NodeId;
using tn::sim::SubnetId;

constexpr std::size_t kKeptSteps = 400'000;

std::string hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

double seconds_since(std::int64_t started_ns) {
  return static_cast<double>(now_ns() - started_ns) * 1e-9;
}

// Events of a probe-level journal (with runtime span timings).
struct JournalCounts {
  std::uint64_t events = 0;
  std::uint64_t hops = 0;
  std::uint64_t heur_evals = 0;
  std::uint64_t cache_requests = 0;  // per-session cache lookups
  std::uint64_t cache_hits = 0;
  double merge_s = 0.0;
  std::uint64_t malformed = 0;
};

void count_journal(std::string_view journal, JournalCounts& counts) {
  while (!journal.empty()) {
    const std::size_t end = journal.find('\n');
    const std::string_view line = journal.substr(0, end);
    journal.remove_prefix(end == std::string_view::npos ? journal.size()
                                                        : end + 1);
    if (line.empty()) continue;
    const auto event = tn::trace::parse_line(line);
    if (!event) {
      ++counts.malformed;
      continue;
    }
    ++counts.events;
    if (event->type == "hop") {
      ++counts.hops;
    } else if (event->type == "heur") {
      ++counts.heur_evals;
    } else if (event->type == "probe") {
      ++counts.cache_requests;
      if (event->boolean("cached").value_or(false)) ++counts.cache_hits;
    } else if (event->type == "wave") {
      counts.cache_requests +=
          static_cast<std::uint64_t>(event->num("n").value_or(0));
      counts.cache_hits +=
          static_cast<std::uint64_t>(event->num("hits").value_or(0));
    } else if (event->type == "span" && event->str("phase") == "merge") {
      counts.merge_s += static_cast<double>(event->num("us").value_or(0)) * 1e-6;
    }
  }
}

// Counters the program exports, summed over one round's campaigns.
struct ExportedCounts {
  std::uint64_t wire_probes = 0;
  std::uint64_t silent = 0;
  std::uint64_t rate_limited = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t shared_hits = 0;
  std::uint64_t shared_misses = 0;
  std::uint64_t retries = 0;
  std::uint64_t waves = 0;
  std::uint64_t batched = 0;
  std::vector<double> occupancy_p50;  // per campaign
  std::int64_t speculative_waste = 0;
  std::uint64_t sessions = 0;
  std::uint64_t stopset_skips = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t journal_events = 0;
  std::uint64_t journal_bytes = 0;
};

void add_exported(const Cell& cell, ExportedCounts& out) {
  {
    out.wire_probes += cell.stats.probes_injected;
    out.silent += cell.stats.silent;
    out.rate_limited += cell.stats.rate_limited;
    out.fault_drops += cell.stats.fault_drops();
    for (const CampaignRun& run : cell.campaigns) {
      tn::runtime::MetricsRegistry& m = *run.metrics;
      out.shared_hits += m.counter("probe.shared_cache.hits").value();
      out.shared_misses += m.counter("probe.shared_cache.misses").value();
      out.retries += m.counter("probe.retries").value();
      out.waves += m.counter("probe.waves").value();
      out.batched += m.counter("probe.batched_probes").value();
      out.occupancy_p50.push_back(static_cast<double>(
          m.histogram("probe.window_occupancy").quantile(0.5)));
      out.speculative_waste +=
          static_cast<std::int64_t>(m.counter("probe.speculative_spent").value()) -
          static_cast<std::int64_t>(m.counter("probe.speculative_saved").value());
      out.sessions += run.report.sessions_run + run.report.fallback_sessions;
      out.stopset_skips += run.report.stop_set_skips;
      out.fallbacks += run.report.fallback_sessions;
      if (run.journal) {
        const std::string merged = run.journal->merged();
        out.journal_events += static_cast<std::uint64_t>(
            std::count(merged.begin(), merged.end(), '\n'));
        out.journal_bytes += run.journal_bytes;
      }
    }
  }
}

// eval layer: the runtime's canonical merge replayed from the benchmark —
// CampaignAccumulator::covered/add over the report's sessions in target
// order. The replay must rebuild the report's subnets exactly.
struct EvalReplay {
  std::uint64_t covered_calls = 0;
  double seconds = 0.0;
};

void replay_merge(const Cell& cell, const CampaignRun& run, EvalReplay& out,
                  std::vector<std::string>& problems) {
  const std::vector<tn::core::SessionResult>& sessions = run.report.sessions;
  tn::eval::CampaignAccumulator acc(run.vantage_name, cell.targets.size());
  std::size_t next = 0;
  bool aligned = true;
  const std::int64_t started = now_ns();
  for (const Ipv4Addr target : cell.targets) {
    ++out.covered_calls;
    if (acc.covered(target)) {
      acc.note_covered();
      continue;
    }
    if (next >= sessions.size() ||
        sessions[next].path.destination != target) {
      aligned = false;
      break;
    }
    acc.add(sessions[next++]);
  }
  out.seconds += seconds_since(started);
  const tn::eval::VantageObservations replayed = acc.finalize();
  if (!aligned || next != sessions.size() ||
      tn::eval::subnets_csv(replayed) !=
          tn::eval::subnets_csv(run.report.observations))
    problems.push_back(run.vantage_name +
                       ": CampaignAccumulator replay does not rebuild the "
                       "report's subnets");
}

// core layer: sessions run serially by the benchmark with each campaign's
// session config over a TimingProbeEngine, on a fresh Network configured
// like the cell's. Self time is session time minus time below the engine.
struct CoreReplay {
  std::vector<double> session_us;
  double session_s = 0.0;
  double wire_s = 0.0;
  // Wire probes forwarded per campaign, with the vantage they left from.
  std::vector<std::pair<NodeId, std::vector<Probe>>> probes;
};

void replay_sessions(const Cell& cell, SpanLog& spans, std::uint32_t parent,
                     CoreReplay& out, std::vector<std::string>& problems) {
  std::unique_ptr<tn::sim::vtime::Scheduler> scheduler;
  tn::sim::NetworkConfig net_config = cell.net_config;
  if (cell.scheduler) {
    scheduler = std::make_unique<tn::sim::vtime::Scheduler>();
    net_config.scheduler = scheduler.get();
  }
  tn::sim::Network network(cell.topology(), net_config);
  cell.install_impairments(network);
  for (std::size_t c = 0; c < cell.campaigns.size(); ++c) {
    const CampaignRun& run = cell.campaigns[c];
    tn::probe::SimProbeEngine wire(network, run.vantage);
    TimingProbeEngine timed(wire);
    tn::core::SessionConfig config = run.config.campaign.session;
    if (config.clock == nullptr && scheduler) config.clock = scheduler.get();
    tn::core::TracenetSession session(timed, config);
    tn::eval::CampaignAccumulator acc(run.vantage_name, cell.targets.size());
    for (std::size_t i = 0; i < cell.targets.size(); ++i) {
      const Ipv4Addr target = cell.targets[i];
      if (acc.covered(target)) {
        acc.note_covered();
        continue;
      }
      session.set_epoch(network.faults().epoch_of(i));
      const std::int64_t wire_before = timed.busy_ns();
      const std::int64_t started = now_ns();
      try {
        ScopedSpan span(&spans, "core.session", parent, c);
        acc.add(session.run(target));
      } catch (const std::exception& error) {
        problems.push_back(run.vantage_name + ": session to " +
                           target.to_string() + " threw: " + error.what());
        return;
      }
      const double session_s = seconds_since(started);
      out.session_us.push_back(session_s * 1e6);
      out.session_s += session_s;
      out.wire_s += static_cast<double>(timed.busy_ns() - wire_before) * 1e-9;
    }
    out.probes.emplace_back(run.vantage, timed.kept());
  }
}

std::optional<SubnetId> destination_subnet(const tn::sim::Topology& topo,
                                           Ipv4Addr target) {
  if (const auto iface = topo.find_interface(target))
    return topo.interface(*iface).subnet;
  return topo.find_subnet_containing(target);
}

// sim layer probes on one cell: a cold RoutingTable::distance sweep over
// the subnets the replayed probes were routed to (one BFS each), then the
// same probes walked twice through a fresh Network without emulated RTT —
// the first pass warms its routes and records the forwarding steps, the
// second is timed — and warm next_hops queries over the recorded steps.
struct SimProbes {
  std::uint64_t bfs_runs = 0;
  double bfs_s = 0.0;
  std::uint64_t walks = 0;
  double walk_s = 0.0;
  std::uint64_t queries = 0;
  double query_s = 0.0;
  std::uint64_t checksum = 0;  // keeps the timed results observable
};

void probe_sim(const Cell& cell, const CoreReplay& replay, SimProbes& out) {
  const tn::sim::Topology& topo = cell.topology();
  std::set<SubnetId> destinations;
  for (const auto& [vantage, probes] : replay.probes)
    for (const Probe& probe : probes)
      if (const auto subnet = destination_subnet(topo, probe.target))
        destinations.insert(*subnet);
  if (!replay.probes.empty()) {
    const tn::sim::RoutingTable table(
        topo, std::max<std::size_t>(128, topo.subnet_count()));
    const NodeId from = replay.probes.front().first;
    const std::int64_t started = now_ns();
    for (const SubnetId subnet : destinations)
      out.checksum += static_cast<std::uint64_t>(table.distance(from, subnet) + 1);
    out.bfs_s += seconds_since(started);
    out.bfs_runs += destinations.size();
  }

  tn::sim::NetworkConfig net_config = cell.net_config;
  net_config.wall_rtt_us = 0;
  net_config.link_delay_us = 0;
  net_config.jitter_us = 0;
  tn::sim::Network network(topo, net_config);
  cell.install_impairments(network);
  std::vector<std::pair<NodeId, Ipv4Addr>> steps;
  network.set_step_hook([&steps](NodeId node, const Probe& probe) {
    if (steps.size() < kKeptSteps) steps.emplace_back(node, probe.target);
  });
  for (const auto& [vantage, probes] : replay.probes)
    for (const Probe& probe : probes) network.send_probe(vantage, probe);
  network.set_step_hook({});

  const std::int64_t walk_started = now_ns();
  for (const auto& [vantage, probes] : replay.probes)
    for (const Probe& probe : probes)
      out.checksum +=
          static_cast<std::uint64_t>(network.send_probe(vantage, probe).type);
  out.walk_s += seconds_since(walk_started);
  for (const auto& [vantage, probes] : replay.probes)
    out.walks += probes.size();

  std::vector<std::pair<NodeId, SubnetId>> queries;
  queries.reserve(steps.size());
  for (const auto& [node, target] : steps)
    if (const auto subnet = destination_subnet(topo, target))
      queries.emplace_back(node, *subnet);
  const tn::sim::RoutingTable& routing = network.routing();
  const std::int64_t query_started = now_ns();
  for (const auto& [node, subnet] : queries)
    out.checksum += routing.next_hops(node, subnet).size();
  out.query_s += seconds_since(query_started);
  out.queries += queries.size();
}

}  // namespace

bool account_round(const WorkloadSpec& spec, const Round& round,
                   std::optional<std::uint64_t>& first_hash,
                   RunResult& result) {
  std::vector<std::string> problems = round.problems;
  if (spec.deterministic) {
    if (!first_hash)
      first_hash = round.csv_hash;
    else if (*first_hash != round.csv_hash)
      problems.push_back("subnets_csv hash " + hex(round.csv_hash) +
                         " differs from the first round's " + hex(*first_hash));
  }
  result.attempted += round.targets;
  if (!problems.empty()) result.failed += round.targets;
  for (std::string& problem : problems)
    result.problems.push_back(std::move(problem));
  return problems.empty();
}

std::string hash_note(const WorkloadSpec& spec,
                      const std::optional<std::uint64_t>& hash,
                      std::size_t rounds) {
  if (!spec.deterministic || !hash)
    return "subnets_csv fnv1a64 varies with the schedule (not pinned)";
  return "subnets_csv fnv1a64 " + hex(*hash) + " over " +
         std::to_string(rounds) + " rounds";
}

RunResult traced_run(const WorkloadSpec& spec, const Seeds& seeds,
                     const Options& options) {
  RunResult result;
  std::optional<std::uint64_t> first_hash;
  std::size_t rounds_run = 0;
  SpanLog spans;

  RoundConfig untraced;
  untraced.journal_path = options.work_dir + "/journal.jsonl";
  RoundConfig traced = untraced;
  traced.journal_level = tn::trace::Level::kProbe;
  traced.journal_timings = true;
  traced.spans = &spans;
  // The baseline round: vtime.overhead_s compares the campaigns on and off
  // the virtual-time scheduler (internet_live without it; internet_serial,
  // which never uses it, with internet_live's delay model on it), and
  // trace.record_overhead_s the refs_lossy cells with and without a journal.
  std::optional<RoundConfig> baseline;
  if (spec.internet) {
    baseline = untraced;
    baseline->virtual_time = !spec.virtual_time;
  } else if (spec.journal) {
    baseline = untraced;
    baseline->journal_level = tn::trace::Level::kOff;
  }

  std::vector<double> untraced_s, traced_s, baseline_wall_s, untraced_wall_s,
      untraced_unwritten_s, write_s, topo_s, efficiency;
  JournalCounts journal;
  ExportedCounts counts;
  EvalReplay eval;
  CoreReplay core;
  SimProbes sim;
  // The first untraced round also feeds the exported counters and the
  // isolated layer probes, cell by cell, on the round's own topologies.
  const auto probe_layers = [&](Cell& cell) {
    ScopedSpan probes_span(&spans, "layer_probes");
    add_exported(cell, counts);
    for (const CampaignRun& run : cell.campaigns)
      if (run.error.empty()) replay_merge(cell, run, eval, result.problems);
    CoreReplay cell_core;
    {
      ScopedSpan span(&spans, "core.replay", probes_span.id());
      replay_sessions(cell, spans, span.id(), cell_core, result.problems);
    }
    {
      ScopedSpan span(&spans, "sim.replay", probes_span.id());
      probe_sim(cell, cell_core, sim);
    }
    core.session_us.insert(core.session_us.end(), cell_core.session_us.begin(),
                           cell_core.session_us.end());
    core.session_s += cell_core.session_s;
    core.wire_s += cell_core.wire_s;
  };
  const auto count_journals = [&](Cell& cell) {
    for (CampaignRun& run : cell.campaigns)
      if (run.journal) count_journal(run.journal->merged(), journal);
  };

  const std::int64_t started = now_ns();
  do {
    const bool first = untraced_s.empty();
    // Per-cell figures of the untraced round, read outside its timed parts.
    double written = 0.0;
    double topo = 0.0;
    const Round plain = run_round(spec, seeds, untraced, [&](Cell& cell) {
      topo += cell.topo_build_s;
      for (const CampaignRun& run : cell.campaigns) written += run.write_s;
      if (first) probe_layers(cell);
    });
    ++rounds_run;
    account_round(spec, plain, first_hash, result);
    untraced_s.push_back(plain.setup_s + plain.wall_s);
    untraced_wall_s.push_back(plain.wall_s);
    write_s.push_back(written);
    topo_s.push_back(topo);
    untraced_unwritten_s.push_back(plain.wall_s - written);
    efficiency.push_back(
        parallel_efficiency(plain.cpu_s, plain.wall_s, spec.jobs));

    const Round with_trace = run_round(
        spec, seeds, traced, first ? CellVisitor(count_journals) : CellVisitor());
    ++rounds_run;
    account_round(spec, with_trace, first_hash, result);
    traced_s.push_back(with_trace.setup_s + with_trace.wall_s);

    if (baseline) {
      const Round base = run_round(spec, seeds, *baseline);
      ++rounds_run;
      // Neither the scheduler (at jobs 1) nor the journal may change the
      // subnets of a deterministic workload.
      account_round(spec, base, first_hash, result);
      baseline_wall_s.push_back(base.wall_s);
    }
  } while (seconds_since(started) < options.seconds);
  if (journal.malformed > 0)
    result.problems.push_back(std::to_string(journal.malformed) +
                              " malformed journal lines");

  const double sessions = static_cast<double>(core.session_us.size());
  // Wall time on the scheduler minus off it, whichever the workload uses.
  const double vtime_overhead_s =
      spec.virtual_time ? median(untraced_wall_s) - median(baseline_wall_s)
                        : median(baseline_wall_s) - median(untraced_wall_s);
  const bool journaled = spec.journal;
  result.metrics = {
      {"topo.build_s", median(topo_s), "s"},
      {"sim.routing.bfs_runs", static_cast<double>(sim.bfs_runs), "count"},
      {"sim.routing.bfs_us", sim.bfs_s * 1e6, "us"},
      {"sim.routing.query_ns",
       share(sim.query_s * 1e9, static_cast<double>(sim.queries)), "ns"},
      {"sim.wire_probes", static_cast<double>(counts.wire_probes), "count"},
      {"sim.probe_ns", share(sim.walk_s * 1e9, static_cast<double>(sim.walks)),
       "ns"},
      {"sim.silent_share",
       share(static_cast<double>(counts.silent),
             static_cast<double>(counts.wire_probes)),
       "ratio"},
      {"sim.rate_limited", static_cast<double>(counts.rate_limited), "count"},
      {"sim.fault_drops", static_cast<double>(counts.fault_drops), "count"},
      {"vtime.overhead_s", spec.internet ? vtime_overhead_s : 0.0, "s"},
      {"probe.session_cache.hit_share",
       share(static_cast<double>(journal.cache_hits),
             static_cast<double>(journal.cache_requests)),
       "ratio"},
      {"probe.shared_cache.hit_share",
       share(static_cast<double>(counts.shared_hits),
             static_cast<double>(counts.shared_hits + counts.shared_misses)),
       "ratio"},
      {"probe.retries", static_cast<double>(counts.retries), "count"},
      {"probe.waves", static_cast<double>(counts.waves), "count"},
      {"probe.batched_probes", static_cast<double>(counts.batched), "count"},
      {"probe.window_occupancy_p50", median(counts.occupancy_p50), "probes"},
      {"probe.speculative_waste", static_cast<double>(counts.speculative_waste),
       "count"},
      {"core.sessions", static_cast<double>(counts.sessions), "count"},
      {"core.session_p50_us", quantile(core.session_us, 0.5), "us"},
      {"core.session_p99_us", quantile(core.session_us, 0.99), "us"},
      {"core.self_us_per_session",
       share((core.session_s - core.wire_s) * 1e6, sessions), "us"},
      {"core.hops", static_cast<double>(journal.hops), "count"},
      {"core.heur_evals", static_cast<double>(journal.heur_evals), "count"},
      {"eval.covered_calls", static_cast<double>(eval.covered_calls), "count"},
      {"eval.covered_us", eval.seconds * 1e6, "us"},
      {"runtime.stopset_skips", static_cast<double>(counts.stopset_skips),
       "count"},
      {"runtime.fallback_sessions", static_cast<double>(counts.fallbacks),
       "count"},
      {"runtime.parallel_efficiency", median(efficiency), "ratio"},
      {"runtime.merge_s", journal.merge_s, "s"},
      {"trace.events", static_cast<double>(counts.journal_events), "count"},
      {"trace.journal_mb", static_cast<double>(counts.journal_bytes) * 1e-6,
       "MB"},
      {"trace.write_s", journaled ? median(write_s) : 0.0, "s"},
      {"trace.record_overhead_s",
       journaled ? median(untraced_unwritten_s) - median(baseline_wall_s) : 0.0,
       "s"},
      {"bench.trace_overhead_s", median(traced_s) - median(untraced_s), "s"},
  };

  result.notes.push_back(hash_note(spec, first_hash, rounds_run));
  result.notes.push_back("layer probe checksum " + std::to_string(sim.checksum));
  for (const auto& [name, totals] : spans.totals()) {
    char line[160];
    std::snprintf(line, sizeof line, "span %-20s count %8llu total_s %.6f self_s %.6f",
                  name.c_str(), static_cast<unsigned long long>(totals.count),
                  totals.total_s, totals.self_s);
    result.notes.emplace_back(line);
  }
  const std::string span_path = options.work_dir + "/spans-" +
                                std::string(spec.name) + ".jsonl";
  std::ofstream span_file(span_path);
  spans.write_jsonl(span_file);
  if (!span_file) result.problems.push_back("cannot write " + span_path);
  else result.notes.push_back("spans written to " + span_path);
  return result;
}

}  // namespace perfbench
