#include "workloads.h"

#include <fstream>

#include "checks.h"
#include "eval/classification.h"
#include "eval/report.h"
#include "probe/retry.h"
#include "probe/sim_engine.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using tn::sim::NetworkStats;

constexpr WorkloadSpec kSpecs[] = {
    {.name = "internet_serial", .internet = true, .deterministic = true},
    {.name = "internet_live",
     .internet = true,
     .jobs = 4,
     .adaptive_window = true,
     .virtual_time = true},
    {.name = "refs_lossy",
     .cells = 20,
     .loss = 0.2,
     .journal = true,
     .deterministic = true},
};

NetworkStats minus(const NetworkStats& a, const NetworkStats& b) {
  NetworkStats d;
  d.probes_injected = a.probes_injected - b.probes_injected;
  d.echo_replies = a.echo_replies - b.echo_replies;
  d.ttl_exceeded = a.ttl_exceeded - b.ttl_exceeded;
  d.unreachable = a.unreachable - b.unreachable;
  d.tcp_resets = a.tcp_resets - b.tcp_resets;
  d.silent = a.silent - b.silent;
  d.rate_limited = a.rate_limited - b.rate_limited;
  d.fault_probe_lost = a.fault_probe_lost - b.fault_probe_lost;
  d.fault_reply_lost = a.fault_reply_lost - b.fault_reply_lost;
  d.fault_anonymous = a.fault_anonymous - b.fault_anonymous;
  d.fault_blackholed = a.fault_blackholed - b.fault_blackholed;
  d.fault_hidden_hops = a.fault_hidden_hops - b.fault_hidden_hops;
  d.fault_churned_picks = a.fault_churned_picks - b.fault_churned_picks;
  return d;
}

// Builds the cell's topology, Network and impairments: the set-up a CLI
// invocation pays before its first probe.
Cell set_up_cell(const WorkloadSpec& spec, const Seeds& seeds,
                 std::size_t index, const RoundConfig& config,
                 std::uint32_t parent_span) {
  SpanLog* spans = config.spans;
  Cell cell;
  const std::int64_t started = now_ns();
  {
    ScopedSpan span(spans, "topo.build", parent_span, index);
    if (spec.internet) {
      cell.internet = std::make_unique<tn::topo::SimulatedInternet>(
          tn::topo::build_internet(tn::topo::default_isp_profiles(),
                                   Seeds::kInternet));
    } else {
      const std::size_t pairs = spec.cells / 2;
      cell.reference = std::make_unique<tn::topo::ReferenceTopology>(
          index % 2 == 0
              ? tn::topo::internet2_like(Seeds::derive(
                    Seeds::kInternet2, seeds.workload, pairs, index / 2))
              : tn::topo::geant_like(Seeds::derive(
                    Seeds::kGeant, seeds.workload, pairs, index / 2)));
    }
  }
  cell.topo_build_s = static_cast<double>(now_ns() - started) * 1e-9;

  const bool virtual_time = config.virtual_time.value_or(spec.virtual_time);
  if (spec.virtual_time && !virtual_time)
    cell.instant_clock = std::make_unique<tn::util::ManualClock>();
  if (virtual_time) {
    cell.net_config.wall_rtt_us = 2000;
    cell.net_config.link_delay_us = 100;
    cell.net_config.jitter_us = 500;
  }
  if (spec.loss > 0.0)
    cell.faults = tn::sim::FaultSpec::uniform_loss(
        spec.loss,
        Seeds::derive(Seeds::kFault, seeds.workload, spec.cells, index));
  {
    ScopedSpan span(spans, "sim.network", parent_span, index);
    tn::sim::NetworkConfig net_config = cell.net_config;
    if (virtual_time) {
      cell.scheduler = std::make_unique<tn::sim::vtime::Scheduler>();
      net_config.scheduler = cell.scheduler.get();
    }
    cell.network =
        std::make_unique<tn::sim::Network>(cell.topology(), net_config);
  }
  {
    ScopedSpan span(spans, "sim.impairments", parent_span, index);
    cell.install_impairments(*cell.network);
  }
  cell.setup_s = static_cast<double>(now_ns() - started) * 1e-9;

  if (spec.internet) {
    cell.targets = cell.internet->all_targets();
    order_targets(cell.targets, seeds.workload);
    for (const auto& isp : cell.internet->isps)
      cell.registries.push_back(&isp.registry);
  } else {
    cell.targets = cell.reference->targets;
    cell.registries.push_back(&cell.reference->registry);
  }
  return cell;
}

tn::runtime::RuntimeConfig runtime_config(const WorkloadSpec& spec,
                                          const Cell& cell, int flow_id) {
  tn::runtime::RuntimeConfig config;
  config.jobs = spec.jobs;
  config.campaign.session.flow_id = static_cast<std::uint16_t>(flow_id);
  config.campaign.session.adaptive.enabled = spec.adaptive_window;
  // Without the scheduler, session sleeps (adaptive pacing) would burn wall
  // time; the instant clock keeps the baseline a pure compute measurement.
  if (cell.instant_clock) config.campaign.session.clock = cell.instant_clock.get();
  return config;
}

void run_campaign(CampaignRun& run, Cell& cell, tn::trace::Level level,
                  const RoundConfig& config, std::uint32_t parent_span,
                  std::uint64_t request) {
  run.metrics = std::make_unique<tn::runtime::MetricsRegistry>();
  const double cpu_started = process_cpu_s();
  const std::int64_t started = now_ns();
  try {
    if (level != tn::trace::Level::kOff) {
      run.journal = std::make_unique<tn::trace::JsonlTraceWriter>(
          level, config.journal_timings);
      run.config.trace_sink = run.journal.get();
    }
    {
      ScopedSpan span(config.spans, "runtime.run", parent_span, request);
      tn::runtime::CampaignRuntime runtime(*cell.network, run.vantage,
                                           run.config, run.metrics.get());
      run.report = runtime.run(run.vantage_name, cell.targets);
    }
    if (run.journal) {
      ScopedSpan span(config.spans, "trace.write", parent_span, request);
      const std::int64_t write_started = now_ns();
      std::ofstream out(config.journal_path, std::ios::binary | std::ios::trunc);
      run.journal->write(out);
      run.journal_bytes = static_cast<std::uint64_t>(out.tellp());
      out.close();
      if (!out) throw std::runtime_error("cannot write " + config.journal_path);
      run.write_s = static_cast<double>(now_ns() - write_started) * 1e-9;
    }
  } catch (const std::exception& error) {
    run.error = error.what();
  }
  run.wall_s = static_cast<double>(now_ns() - started) * 1e-9;
  run.cpu_s = process_cpu_s() - cpu_started;
  run.config.trace_sink = nullptr;
}

}  // namespace

void order_targets(std::vector<tn::net::Ipv4Addr>& targets,
                   std::uint64_t seed) {
  if (seed != 0) tn::util::Rng(seed).shuffle(targets);
}

const WorkloadSpec* find_workload(std::string_view name) noexcept {
  for (const WorkloadSpec& spec : kSpecs)
    if (spec.name == name) return &spec;
  return nullptr;
}

void Cell::install_impairments(tn::sim::Network& net) const {
  if (internet)
    for (const auto& [node, pps] : internet->rate_limit_plan)
      net.set_rate_limiter(node, tn::sim::RateLimiter(pps, 5.0));
  if (faults.enabled()) net.set_faults(faults);
}

Round run_round(const WorkloadSpec& spec, const Seeds& seeds,
                const RoundConfig& config, const CellVisitor& visit) {
  Round round;
  const tn::trace::Level level = config.journal_level.value_or(
      spec.journal ? tn::trace::Level::kSession : tn::trace::Level::kOff);
  std::string csv_all;
  for (std::size_t index = 0; index < spec.cells; ++index) {
    Cell cell;
    NetworkStats before;
    {
      ScopedSpan cell_span(config.spans, "cell", 0, index);
      cell = set_up_cell(spec, seeds, index, config, cell_span.id());
      before = cell.network->stats();
      const std::size_t vantages =
          spec.internet ? cell.internet->vantages.size() : 1;
      for (std::size_t v = 0; v < vantages; ++v) {
        CampaignRun run;
        run.vantage = spec.internet ? cell.internet->vantages[v]
                                    : cell.reference->vantage;
        run.vantage_name =
            spec.internet ? cell.internet->vantage_names[v] : "utdallas";
        run.config = runtime_config(spec, cell, static_cast<int>(v + 1));
        run_campaign(run, cell, level, config, cell_span.id(),
                     index * vantages + v);
        cell.campaigns.push_back(std::move(run));
      }
    }

    // Accounting and output checks, outside the timed parts.
    round.setup_s += cell.setup_s;
    for (const CampaignRun& run : cell.campaigns) {
      round.wall_s += run.wall_s;
      round.cpu_s += run.cpu_s;
      round.targets += cell.targets.size();
      if (!run.error.empty()) {
        round.threw += cell.targets.size();
        round.problems.push_back(run.vantage_name + ": campaign threw: " +
                                 run.error);
        continue;
      }
      const auto& obs = run.report.observations;
      round.unreached += obs.targets_traced - obs.targets_responding;
      round.wire_probes += run.report.wire_probes;
      for (std::string& problem : check_observations(obs))
        round.problems.push_back(std::move(problem));
      csv_all += tn::eval::subnets_csv(obs);
    }
    cell.stats = minus(cell.network->stats(), before);
    // Under the scheduler the makespan is the runtime's time.virtual_us.
    // Without one the only simulated clock is the network's probe clock,
    // one inter-probe gap per injected probe.
    if (cell.scheduler) {
      for (const CampaignRun& run : cell.campaigns)
        round.makespan_s +=
            static_cast<double>(run.metrics->counter("time.virtual_us").value()) *
            1e-6;
    } else {
      round.makespan_s += static_cast<double>(cell.stats.probes_injected *
                                              cell.net_config.inter_probe_gap_us) *
                          1e-6;
    }
    if (visit) visit(cell);
  }
  round.csv_hash = fnv1a64(csv_all);
  return round;
}

void count_exact(const Cell& cell, ExactCount& count) {
  for (const CampaignRun& run : cell.campaigns) {
    if (!run.error.empty()) continue;
    tn::probe::SimProbeEngine wire(*cell.network, run.vantage);
    tn::probe::RetryingProbeEngine audit(wire, 2);
    for (const tn::topo::SubnetRegistry* registry : cell.registries) {
      const tn::eval::Classification verdicts = tn::eval::classify(
          *registry, run.report.observations.subnets, audit);
      count.exact += static_cast<std::uint64_t>(verdicts.total(verdicts.exact));
      count.truths +=
          static_cast<std::uint64_t>(verdicts.total(verdicts.original));
    }
  }
}

}  // namespace perfbench
