#include "runtime/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "probe/cache.h"
#include "probe/sim_engine.h"
#include "runtime/pacer.h"
#include "runtime/queue.h"
#include "runtime/stopset.h"
#include "sim/vtime/scheduler.h"
#include "util/log.h"

namespace tn::runtime {

namespace {

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

CampaignReport CampaignRuntime::run(const std::string& vantage_name,
                                    const std::vector<net::Ipv4Addr>& targets) {
  const auto run_started = std::chrono::steady_clock::now();
  MetricsRegistry& m = *metrics_;
  Counter& wire_counter = m.counter("probe.wire");
  Counter& sessions_counter = m.counter("runtime.sessions");
  Counter& skips_counter = m.counter("runtime.stopset.skips");
  Counter& fallback_counter = m.counter("runtime.fallback_sessions");
  Counter& retries_counter = m.counter("probe.retries");
  // Speculation ledger + adaptive-controller decisions (docs/PROBING.md):
  // summed over executed sessions (workers and fallbacks), so like
  // probe.wire they are schedule-dependent diagnostics, not pinned output.
  Counter& spec_spent_counter = m.counter("probe.speculative_spent");
  Counter& spec_saved_counter = m.counter("probe.speculative_saved");
  Counter& pace_counter = m.counter("pace.adjustments");
  Counter& resize_counter = m.counter("probe.window_resizes");
  Histogram& latency_hist = m.histogram("session.latency_us");
  Histogram& probes_hist = m.histogram("session.probes");
  WaveInstruments waves;
  waves.waves = &m.counter("probe.waves");
  waves.batched_probes = &m.counter("probe.batched_probes");
  waves.occupancy = &m.histogram("probe.window_occupancy");

  // Fault-injection deltas: stats are cumulative per network, so remember
  // where this campaign started.
  const sim::NetworkStats stats_before = network_.stats();

  // Virtual time (docs/SIMULATION.md): when the network carries a scheduler,
  // every blocking wait in this runtime — pacer throttles and the network's
  // emulated RTTs — must elapse on the simulated clock, or real sleeps would
  // stall the simulation (and deadlock it: the scheduler only advances when
  // every registered worker is blocked on it).
  sim::vtime::Scheduler* sched = network_.scheduler();
  const std::uint64_t vtime_before = sched != nullptr ? sched->now_us() : 0;

  // Session-side sleeps (retry backoff, adaptive pacing) ride the same
  // clock: inject the scheduler unless the caller wired a clock explicitly.
  core::SessionConfig session_template = config_.campaign.session;
  if (session_template.clock == nullptr && sched != nullptr)
    session_template.clock = sched;

  TargetQueue queue(targets);
  const std::size_t count = queue.size();
  const std::size_t jobs = static_cast<std::size_t>(
      config_.jobs < 1 ? 1 : config_.jobs);
  const std::size_t worker_count = count == 0 ? 0 : std::min(jobs, count);

  // The shared probe stack (see the header diagram).
  probe::SimProbeEngine wire(network_, vantage_);
  ProbePacer pacer = config_.pps > 0.0
                         ? ProbePacer(config_.pps, sched)
                         : ProbePacer();
  PacedProbeEngine paced(wire, pacer, &wire_counter, waves);
  std::optional<probe::CachingProbeEngine> shared_cache;
  probe::ProbeEngine* base = &paced;
  if (config_.share_probe_cache) {
    // Concurrent workers wait for each other's probes rather than send one
    // probe twice, except under virtual time: a worker waiting on another's
    // virtual RTT outside the scheduler would stall the clock.
    shared_cache.emplace(paced, worker_count > 1 && sched == nullptr);
    // Under fault injection silence is often transient loss; one worker's
    // lost probe must not become a campaign-wide dead address.
    if (network_.faults_enabled()) shared_cache->set_cache_unresponsive(false);
    base = &*shared_cache;
  }

  SharedStopSet stop_set;
  std::vector<std::optional<core::SessionResult>> results(count);
  std::atomic<std::uint64_t> sessions_run{0};
  std::atomic<std::uint64_t> stop_set_skips{0};

  // Flight recorder: a null or off sink degenerates to nullptr checks.
  trace::JsonlTraceWriter* sink = config_.trace_sink;
  if (sink != nullptr && sink->level() == trace::Level::kOff) sink = nullptr;
  trace::Recorder* campaign_rec =
      sink != nullptr ? sink->open(trace::kCampaignOrdinal, "campaign")
                      : nullptr;
  if (trace::on(campaign_rec, trace::Level::kSession))
    campaign_rec->event("campaign")
        .num("targets", static_cast<std::int64_t>(count))
        .word("level", trace::to_string(sink->level()));
  // Span events carry wall-clock only when the sink opted in: timings are
  // inherently schedule-dependent, and the default journal must stay
  // byte-identical across --jobs / --window.
  const auto span = [&](const char* phase,
                        std::chrono::steady_clock::time_point since) {
    if (!trace::on(campaign_rec, trace::Level::kSession)) return;
    trace::Event event = campaign_rec->event("span");
    event.word("phase", phase);
    if (campaign_rec->with_timings())
      event.num("us", static_cast<std::int64_t>(elapsed_us(since)));
  };

  // Under virtual time every worker is registered with the scheduler before
  // any starts, and takes its turn before its first action: the scheduler
  // then runs one worker at a time, in the same order on every run
  // (sim/vtime/scheduler.h). A worker leaves once the target queue is dry.
  std::vector<std::optional<sim::vtime::Scheduler::WorkerGuard>> vtime_guards(
      worker_count);
  if (sched != nullptr)
    for (auto& guard : vtime_guards) guard.emplace(*sched);

  auto worker = [&](std::size_t slot) {
    if (sched != nullptr) sched->wait_turn();
    probe::ForwardingProbeEngine local(*base);
    core::SessionConfig session_config = session_template;
    if (!config_.deterministic && config_.share_stop_set) {
      // Fast mode: Doubletree-style hop skipping against the global set.
      session_config.covered_externally = [&stop_set](net::Ipv4Addr addr) {
        return stop_set.covers(addr);
      };
    }
    core::TracenetSession session(local, session_config);
    std::uint64_t retries_seen = 0;

    while (const auto claimed = queue.pop()) {
      const std::size_t index = *claimed;
      const net::Ipv4Addr target = queue.targets()[index];
      // Tag this thread's pending events with the target ordinal so the
      // event queue's (deliver_at, ordinal, seq) order matches the journal
      // merge key — simultaneous deliveries resolve in target order, not
      // thread-creation order.
      if (sched != nullptr)
        sim::vtime::Scheduler::set_current_ordinal(index);
      if (config_.share_stop_set) {
        // Deterministic mode may only take skips that hold under any worker
        // schedule: coverage from an already-completed lower-index target
        // (what a serial run would have merged before reaching this one).
        const bool skip = config_.deterministic
                              ? stop_set.covered_by_lower(target, index)
                              : stop_set.covers(target);
        if (skip) {
          stop_set_skips.fetch_add(1, std::memory_order_relaxed);
          skips_counter.add();
          continue;
        }
      }

      if (sink != nullptr)
        session.set_recorder(sink->open(index, target.to_string()));
      // Routing-churn epoch is a pure function of the target's schedule
      // position (sim/faults.h), so whichever worker claims the target
      // stamps the same epoch a serial run would.
      session.set_epoch(network_.faults().epoch_of(index));
      const auto started = std::chrono::steady_clock::now();
      core::SessionResult result = session.run(target);
      if (sink != nullptr) session.set_recorder(nullptr);
      latency_hist.record(elapsed_us(started));
      probes_hist.record(result.wire_probes);
      retries_counter.add(session.retries_used() - retries_seen);
      retries_seen = session.retries_used();
      spec_spent_counter.add(result.speculative_spent);
      spec_saved_counter.add(result.speculative_saved);
      pace_counter.add(result.pace_adjustments);
      resize_counter.add(result.window_resizes);

      for (const core::ObservedSubnet& subnet : result.subnets)
        stop_set.insert(subnet.prefix, index);
      results[index] = std::move(result);
      sessions_run.fetch_add(1, std::memory_order_relaxed);
      sessions_counter.add();
    }
    vtime_guards[slot].reset();
  };

  const auto probe_started = std::chrono::steady_clock::now();
  if (worker_count <= 1) {
    if (count > 0) worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(worker_count);
    for (std::size_t i = 0; i < worker_count; ++i)
      pool.emplace_back(worker, i);
    for (std::thread& thread : pool) thread.join();
  }
  span("probe", probe_started);

  // Canonical merge: replay the serial skip/merge loop over the per-target
  // results, in target order.
  CampaignReport report;
  eval::CampaignAccumulator acc(vantage_name, count);
  probe::ForwardingProbeEngine merge_engine(*base);
  std::optional<core::TracenetSession> fallback;
  const auto merge_started = std::chrono::steady_clock::now();
  for (std::size_t index = 0; index < count; ++index) {
    const net::Ipv4Addr target = targets[index];
    if (acc.covered(target)) {
      acc.note_covered();
      // A worker may have traced this target before its covering subnet
      // landed; the serial replay discards that session, so its journal
      // buffer goes too — the merged journal must list exactly the sessions
      // a serial run would have produced.
      if (sink != nullptr) sink->drop(index);
      continue;
    }
    if (!results[index]) {
      if (!config_.deterministic) {
        // Fast mode trusts the stop set: the covering subnet was merged from
        // whichever worker grew it, even if the replay's serial-order map
        // does not show the coverage yet.
        acc.note_covered();
        continue;
      }
      // The stop set skipped a target the serial order would have traced
      // (its covering subnet came from a target the replay discards).
      // Re-trace it now for serial-identical output.
      if (!fallback) fallback.emplace(merge_engine, session_template);
      if (sink != nullptr)
        fallback->set_recorder(sink->open(index, target.to_string()));
      fallback->set_epoch(network_.faults().epoch_of(index));
      results[index] = fallback->run(target);
      if (sink != nullptr) fallback->set_recorder(nullptr);
      ++report.fallback_sessions;
      fallback_counter.add();
      spec_spent_counter.add(results[index]->speculative_spent);
      spec_saved_counter.add(results[index]->speculative_saved);
      pace_counter.add(results[index]->pace_adjustments);
      resize_counter.add(results[index]->window_resizes);
    }
    acc.add(*results[index]);
    report.sessions.push_back(std::move(*results[index]));
  }
  span("merge", merge_started);

  // Anonymous hops over the sessions the merge accepted: '*' entries a live
  // trace would print, whether from genuinely silent routers or injected
  // reply suppression.
  std::uint64_t anonymous_hops = 0;
  for (const core::SessionResult& result : report.sessions)
    for (const core::TraceHop& hop : result.path.hops)
      if (hop.anonymous()) ++anonymous_hops;
  m.counter("trace.anonymous_hops").add(anonymous_hops);

  // Injected-fault deltas for this campaign (all zero without faults).
  const sim::NetworkStats stats_after = network_.stats();
  m.counter("probe.drops")
      .add(stats_after.fault_drops() - stats_before.fault_drops());
  m.counter("probe.rate_limited")
      .add(stats_after.rate_limited - stats_before.rate_limited);

  report.observations = acc.finalize();
  report.observations.wire_probes = wire.probes_issued();
  report.wire_probes = wire.probes_issued();
  report.sessions_run = sessions_run.load(std::memory_order_relaxed);
  report.stop_set_skips = stop_set_skips.load(std::memory_order_relaxed);
  report.stop_set_prefixes = stop_set.size();

  if (trace::on(campaign_rec, trace::Level::kSession)) {
    // Only replay-invariant fields: sessions_run / wire_probes are
    // schedule-dependent and would break cross-jobs byte identity.
    campaign_rec->event("campaign_done")
        .num("sessions", static_cast<std::int64_t>(report.sessions.size()))
        .num("subnets",
             static_cast<std::int64_t>(report.observations.subnets.size()));
  }

  if (shared_cache) {
    m.counter("probe.shared_cache.hits").add(shared_cache->hits());
    m.counter("probe.shared_cache.misses").add(shared_cache->misses());
  }
  m.counter("pacer.throttle_waits").add(pacer.throttle_waits());

  // Wall/virtual time split: wall is what the process spent, virtual is the
  // simulated wire time that elapsed on the scheduler's clock. Without a
  // scheduler the two coincide (sleeps burn real time), so only wall is
  // recorded.
  m.counter("time.wall_us").add(elapsed_us(run_started));
  if (sched != nullptr)
    m.counter("time.virtual_us").add(sched->now_us() - vtime_before);

  util::log(util::LogLevel::kInfo, "runtime", vantage_name, ": ",
            report.observations.subnets.size(), " subnets over ",
            report.sessions_run, " sessions (", report.stop_set_skips,
            " stop-set skips, ", report.fallback_sessions, " fallbacks, ",
            report.wire_probes, " wire probes, jobs=", worker_count, ")");
  return report;
}

eval::VantageObservations run_campaign(
    sim::Network& network, sim::NodeId vantage, const std::string& vantage_name,
    const std::vector<net::Ipv4Addr>& targets, const RuntimeConfig& config,
    MetricsRegistry* metrics) {
  CampaignRuntime runtime(network, vantage, config, metrics);
  return runtime.run(vantage_name, targets).observations;
}

}  // namespace tn::runtime
