// The journal determinism contract (docs/TRACING.md), end to end:
//
//   * the merged session-level journal is byte-identical across --jobs and
//     --window on the pinned reference topologies, clean and under injected
//     loss — the flight recorder inherits the campaign runtime's
//     serial-equivalence guarantee;
//   * probe-level journals replay byte-identically for serial runs at a
//     fixed window (the wire view is reproducible, just not
//     schedule-invariant);
//   * every accepted session's stop reasons are reconstructible from the
//     journal, shrink stops with the exact heuristic verdict that fired;
//   * the campaign stream reports the run's phases, with wall-clock numbers
//     only when explicitly requested;
//   * wiring a writer, at level off or on, changes no collected subnet.
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/types.h"
#include "eval/report.h"
#include "runtime/campaign.h"
#include "sim/faults.h"
#include "sim/network.h"
#include "testutil.h"
#include "topo/reference.h"
#include "trace/journal.h"
#include "trace/reader.h"

namespace tn {
namespace {

struct TracedRun {
  std::string journal;
  runtime::CampaignReport report;
};

TracedRun traced_run(const topo::ReferenceTopology& ref, double loss, int jobs,
                     int window, trace::Level level,
                     bool with_timings = false) {
  sim::Network net(ref.topo);
  if (loss > 0.0) net.set_faults(sim::FaultSpec::uniform_loss(loss, 7));
  runtime::RuntimeConfig config;
  config.jobs = jobs;
  config.campaign.session.probe_window = window;
  trace::JsonlTraceWriter writer(level, with_timings);
  config.trace_sink = &writer;
  runtime::CampaignRuntime runtime(net, ref.vantage, config);
  TracedRun out;
  out.report = runtime.run("utdallas", ref.targets);
  out.journal = writer.merged();
  return out;
}

void expect_same_journal(const std::string& reference, const std::string& got,
                         const std::string& what) {
  // EXPECT_EQ would dump both multi-hundred-KB journals on failure; report
  // the first differing byte instead.
  if (reference == got) return;
  std::size_t at = 0;
  while (at < reference.size() && at < got.size() && reference[at] == got[at])
    ++at;
  ADD_FAILURE() << what << ": journals diverge at byte " << at << " ("
                << reference.size() << " vs " << got.size() << " bytes)";
}

TEST(TraceDeterminism, SessionJournalByteIdenticalAcrossJobsAndWindow) {
  for (const bool geant : {false, true}) {
    const topo::ReferenceTopology ref =
        geant ? topo::geant_like(43) : topo::internet2_like(42);
    const std::string name = geant ? "geant" : "internet2";
    // Lossy runs are the hard case: retries, fallback sessions and shared
    // caches all get exercised, and the journal must still match the
    // serial-window-1 reference byte for byte.
    const TracedRun reference =
        traced_run(ref, 0.2, 1, 1, trace::Level::kSession);
    ASSERT_FALSE(reference.journal.empty());
    for (const auto& [jobs, window] :
         std::vector<std::pair<int, int>>{{4, 1}, {1, 16}, {4, 16}}) {
      const TracedRun run =
          traced_run(ref, 0.2, jobs, window, trace::Level::kSession);
      expect_same_journal(reference.journal, run.journal,
                          name + " jobs=" + std::to_string(jobs) +
                              " window=" + std::to_string(window));
    }
  }
}

TEST(TraceDeterminism, CleanRunJournalEquallyInvariant) {
  const topo::ReferenceTopology ref = topo::internet2_like(42);
  const TracedRun serial = traced_run(ref, 0.0, 1, 1, trace::Level::kSession);
  const TracedRun wide = traced_run(ref, 0.0, 4, 16, trace::Level::kSession);
  expect_same_journal(serial.journal, wide.journal, "clean jobs=4 window=16");
}

TEST(TraceDeterminism, ProbeJournalReplaysByteIdenticallyWhenSerial) {
  const topo::ReferenceTopology ref = topo::internet2_like(42);
  const TracedRun first = traced_run(ref, 0.2, 1, 16, trace::Level::kProbe);
  const TracedRun second = traced_run(ref, 0.2, 1, 16, trace::Level::kProbe);
  expect_same_journal(first.journal, second.journal, "probe replay");
  // The probe level actually captures the decorator stack.
  EXPECT_NE(first.journal.find("\"ev\":\"probe\""), std::string::npos);
  EXPECT_NE(first.journal.find("\"ev\":\"wave\""), std::string::npos);
  EXPECT_NE(first.journal.find("\"ev\":\"retry\""), std::string::npos);
}

TEST(TraceDeterminism, StopReasonsReconstructibleWithTheFiringHeuristic) {
  const topo::ReferenceTopology ref = topo::internet2_like(42);
  const TracedRun run = traced_run(ref, 0.2, 4, 16, trace::Level::kSession);

  std::istringstream in(run.journal);
  const std::vector<trace::JournalEvent> events = trace::read_journal(in);
  std::map<std::string, std::vector<const trace::JournalEvent*>> by_target;
  for (const trace::JournalEvent& event : events)
    by_target[event.target].push_back(&event);

  // Walking each target's stream in order, every shrink-stopped subnet must
  // be preceded (within its own exploration) by the heur event that fired.
  const std::set<std::string> known_stops = {"shrink", "under-utilized",
                                             "prefix-floor"};
  std::size_t shrink_stops = 0, other_stops = 0;
  for (const auto& [target, stream] : by_target) {
    if (target == "campaign") continue;
    std::string last_shrink_fired;
    for (const trace::JournalEvent* event : stream) {
      if (event->type == "heur" &&
          event->str("verdict") == std::string("shrink")) {
        last_shrink_fired = event->str("fired").value_or("");
        EXPECT_NE(last_shrink_fired, "") << target;
      } else if (event->type == "subnet") {
        const std::string stop = event->str("stop").value_or("?");
        EXPECT_TRUE(known_stops.contains(stop)) << stop;
        if (stop == "shrink") {
          ++shrink_stops;
          EXPECT_EQ(event->str("fired"), last_shrink_fired) << target;
          EXPECT_NE(last_shrink_fired, "") << target;
        } else {
          ++other_stops;
          EXPECT_EQ(event->str("fired"), std::string("none")) << target;
        }
        last_shrink_fired.clear();
      }
    }
  }
  EXPECT_GT(shrink_stops, 0u);
  EXPECT_GT(other_stops, 0u);

  // Cross-check against the structured report: every accepted session's
  // subnets appear in its journal stream with the same stop reason,
  // heuristic code and member count.
  std::size_t checked = 0;
  for (const core::SessionResult& session : run.report.sessions) {
    const auto stream = by_target.find(session.path.destination.to_string());
    ASSERT_NE(stream, by_target.end()) << session.path.destination.to_string();
    for (const core::ObservedSubnet& subnet : session.subnets) {
      bool found = false;
      for (const trace::JournalEvent* event : stream->second) {
        if (event->type != "subnet") continue;
        if (event->str("prefix") != subnet.prefix.to_string()) continue;
        if (event->str("stop") != core::to_string(subnet.stop)) continue;
        if (event->str("fired") !=
            std::string(core::heuristic_code(subnet.stopped_by)))
          continue;
        if (event->num("members") !=
            static_cast<std::int64_t>(subnet.members.size()))
          continue;
        found = true;
        break;
      }
      EXPECT_TRUE(found) << session.path.destination.to_string() << " "
                         << subnet.to_string();
      ++checked;
    }
  }
  EXPECT_GT(checked, 100u);  // the reference campaign grows plenty of subnets
}

TEST(TraceDeterminism, CampaignStreamReportsPhases) {
  test::Fig3Topology f;
  const std::vector<net::Ipv4Addr> targets = {f.pivot4, f.pivot3,
                                              test::ip("10.0.4.2")};
  sim::Network net(f.topo);
  runtime::RuntimeConfig config;
  config.jobs = 2;
  trace::JsonlTraceWriter writer(trace::Level::kSession);
  config.trace_sink = &writer;
  runtime::CampaignRuntime runtime(net, f.vantage, config);
  const runtime::CampaignReport report = runtime.run("V", targets);

  std::istringstream in(writer.merged());
  const auto events = trace::read_journal(in);
  const trace::JournalEvent* campaign = nullptr;
  const trace::JournalEvent* done = nullptr;
  std::vector<std::string> phases;
  for (const auto& event : events) {
    if (event.target != "campaign") continue;
    if (event.type == "campaign") campaign = &event;
    if (event.type == "campaign_done") done = &event;
    if (event.type == "span") {
      phases.push_back(event.str("phase").value_or("?"));
      // Wall-clock numbers are opt-in; the default journal must stay
      // deterministic.
      EXPECT_EQ(event.num("us"), std::nullopt);
    }
  }
  ASSERT_NE(campaign, nullptr);
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(campaign->num("targets"),
            static_cast<std::int64_t>(targets.size()));
  EXPECT_EQ(campaign->str("level"), std::string("session"));
  EXPECT_EQ(phases, (std::vector<std::string>{"probe", "merge"}));
  EXPECT_EQ(done->num("sessions"),
            static_cast<std::int64_t>(report.sessions.size()));
  EXPECT_EQ(done->num("subnets"),
            static_cast<std::int64_t>(report.observations.subnets.size()));
}

TEST(TraceDeterminism, TimingsAreOptIn) {
  test::Fig3Topology f;
  sim::Network net(f.topo);
  runtime::RuntimeConfig config;
  trace::JsonlTraceWriter writer(trace::Level::kSession, /*with_timings=*/true);
  config.trace_sink = &writer;
  runtime::CampaignRuntime runtime(net, f.vantage, config);
  runtime.run("V", {f.pivot3});

  std::istringstream in(writer.merged());
  std::size_t spans = 0;
  for (const auto& event : trace::read_journal(in)) {
    if (event.type != "span") continue;
    ++spans;
    const auto us = event.num("us");
    ASSERT_TRUE(us.has_value());
    EXPECT_GE(*us, 0);
  }
  EXPECT_EQ(spans, 2u);
}

TEST(TraceDeterminism, DisabledTracingChangesNothing) {
  test::Fig3Topology f;
  const std::vector<net::Ipv4Addr> targets = {f.pivot4, f.pivot3,
                                              test::ip("10.0.4.2")};
  const auto run = [&](trace::JsonlTraceWriter* sink) {
    sim::Network net(f.topo);
    runtime::RuntimeConfig config;
    config.jobs = 2;
    config.trace_sink = sink;
    return runtime::run_campaign(net, f.vantage, "V", targets, config);
  };

  const eval::VantageObservations plain = run(nullptr);
  trace::JsonlTraceWriter off_writer(trace::Level::kOff);
  const eval::VantageObservations with_off = run(&off_writer);
  trace::JsonlTraceWriter on_writer(trace::Level::kProbe);
  const eval::VantageObservations with_on = run(&on_writer);

  EXPECT_EQ(eval::subnets_csv(plain), eval::subnets_csv(with_off));
  EXPECT_EQ(eval::subnets_csv(plain), eval::subnets_csv(with_on));
  EXPECT_EQ(off_writer.merged(), "");
  EXPECT_NE(on_writer.merged(), "");
}

}  // namespace
}  // namespace tn
