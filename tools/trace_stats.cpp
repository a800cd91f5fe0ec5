// trace_stats — flight-recorder journal reader.
//
// Reconstructs per-subnet growth timelines from a --trace-out journal
// (docs/TRACING.md): for every traced target, the trace-collection outcome,
// then each exploration as pivot -> growth levels -> heuristic verdicts ->
// final subnet with its stop reason and the heuristic that fired. With a
// probe-level journal it also accounts cache hits, waves and retries.
//
//   trace_stats JOURNAL            per-target timelines + aggregate summary
//   trace_stats --summary JOURNAL  aggregate summary only
//   trace_stats --verdicts JOURNAL per-heuristic verdict-count table (how
//                                  often each of H2-H8 added, skipped or
//                                  shrank a growth level) plus the subnet
//                                  stop-reason x fired-heuristic breakdown
//   trace_stats --target T JOURNAL limit timelines to target T
//   trace_stats --virtual JOURNAL  prefix a [vt N] column with the simulated
//                                  microsecond each event was recorded at
//                                  (journals written with --trace-vtime)
#include <array>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "trace/reader.h"
#include "util/args.h"
#include "util/table.h"

using namespace tn;

namespace {

int usage(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: trace_stats [--summary] [--verdicts] [--target T] "
               "[--virtual] JOURNAL\n"
               "       (JOURNAL is a tracenet_cli --trace-out file; - reads "
               "stdin)\n");
  return 2;
}

struct Aggregates {
  std::size_t targets = 0;
  std::size_t sessions = 0;
  std::size_t subnets = 0;
  std::size_t hops = 0;
  std::size_t heur_evals = 0;
  std::size_t shrinks = 0;
  std::size_t h9_splits = 0;
  std::size_t probes = 0;
  std::size_t cache_hits = 0;
  std::size_t waves = 0;
  std::size_t retries = 0;
  std::map<std::string, std::size_t> stop_reasons;
  std::map<std::string, std::size_t> fired;
};

std::string field(const trace::JournalEvent& event, const char* key) {
  return event.str(key).value_or("?");
}

std::int64_t number(const trace::JournalEvent& event, const char* key) {
  return event.num(key).value_or(0);
}

void print_event(const trace::JournalEvent& e) {
  if (e.type == "session") {
    std::printf("%s (proto %s)\n", e.target.c_str(),
                field(e, "proto").c_str());
  } else if (e.type == "hop") {
    const auto from = e.str("from");
    std::printf("  ttl %2lld  %s\n", static_cast<long long>(number(e, "ttl")),
                from ? from->c_str() : "*");
  } else if (e.type == "trace_done") {
    std::printf("  trace: %lld hops, %s (%s)\n",
                static_cast<long long>(number(e, "hops")),
                e.boolean("reached").value_or(false) ? "reached"
                                                     : "not reached",
                field(e, "reason").c_str());
  } else if (e.type == "hop_skip") {
    std::printf("  hop %s: covered, skipped\n", field(e, "addr").c_str());
  } else if (e.type == "position") {
    std::printf("  position hop %s (d=%lld): pivot %s at jh=%lld%s\n",
                field(e, "v").c_str(), static_cast<long long>(number(e, "d")),
                field(e, "pivot").c_str(),
                static_cast<long long>(number(e, "jh")),
                e.boolean("on_path").value_or(true) ? "" : " [off-path]");
  } else if (e.type == "explore") {
    std::printf("  explore pivot %s (jh=%lld):\n", field(e, "pivot").c_str(),
                static_cast<long long>(number(e, "jh")));
  } else if (e.type == "heur") {
    const auto fired = e.str("fired");
    std::printf("    /%lld %s -> %s%s%s\n",
                static_cast<long long>(number(e, "m")),
                field(e, "l").c_str(), field(e, "verdict").c_str(),
                fired ? " by " : "", fired ? fired->c_str() : "");
  } else if (e.type == "level") {
    std::printf("    /%lld complete: %lld members\n",
                static_cast<long long>(number(e, "m")),
                static_cast<long long>(number(e, "members")));
  } else if (e.type == "h9") {
    std::printf("    h9 boundary split -> %s\n", field(e, "prefix").c_str());
  } else if (e.type == "subnet") {
    const auto contra = e.str("contra");
    std::printf("    => %s, %lld members, stop=%s fired=%s%s%s\n",
                field(e, "prefix").c_str(),
                static_cast<long long>(number(e, "members")),
                field(e, "stop").c_str(), field(e, "fired").c_str(),
                contra ? ", contra " : "", contra ? contra->c_str() : "");
  } else if (e.type == "session_done") {
    std::printf("  session: %lld subnets over %lld hops\n",
                static_cast<long long>(number(e, "subnets")),
                static_cast<long long>(number(e, "hops")));
  } else if (e.type == "span") {
    const auto us = e.num("us");
    if (us)
      std::printf("  span %s: %lld us\n", field(e, "phase").c_str(),
                  static_cast<long long>(*us));
  } else if (e.type == "campaign_done") {
    std::printf("campaign: %lld sessions, %lld subnets\n",
                static_cast<long long>(number(e, "sessions")),
                static_cast<long long>(number(e, "subnets")));
  }
  // probe / wave / retry / campaign events are aggregate-only.
}

// True when print_event emits a line for this event (so the --virtual
// timestamp column never prints a dangling prefix).
bool prints(const trace::JournalEvent& e) {
  if (e.type == "span") return e.num("us").has_value();
  for (const char* type :
       {"session", "hop", "trace_done", "hop_skip", "position", "explore",
        "heur", "level", "h9", "subnet", "session_done", "campaign_done"})
    if (e.type == type) return true;
  return false;
}

// --verdicts: the heuristic scoreboard. Every "heur" event carries the
// growth level, the verdict (add/skip/shrink) and, when a heuristic made
// the call, its code (H2..H8); every "subnet" event carries the stop reason
// and the heuristic that fired last. The two tables say which heuristics
// actually carry the inference on this journal — the per-journal view of
// what bench_ablation_heuristics measures over whole campaigns.
int print_verdicts(const std::vector<trace::JournalEvent>& events) {
  std::map<std::string, std::array<std::size_t, 3>> by_heuristic;
  std::size_t heur_events = 0;
  std::map<std::string, std::map<std::string, std::size_t>> stop_by_fired;
  std::size_t subnets = 0;
  for (const trace::JournalEvent& e : events) {
    if (e.type == "heur") {
      ++heur_events;
      const std::string verdict = field(e, "verdict");
      const int index = verdict == "add"      ? 0
                        : verdict == "skip"   ? 1
                        : verdict == "shrink" ? 2
                                              : -1;
      if (index >= 0) ++by_heuristic[e.str("fired").value_or("none")][index];
    } else if (e.type == "subnet") {
      ++subnets;
      ++stop_by_fired[field(e, "fired")][field(e, "stop")];
    }
  }
  if (heur_events == 0 && subnets == 0) {
    std::fprintf(stderr,
                 "no heuristic or subnet events in this journal (was it "
                 "recorded with tracing on?)\n");
    return 1;
  }

  util::Table verdicts({"heuristic", "add", "skip", "shrink", "total"});
  for (const auto& [code, counts] : by_heuristic)
    verdicts.add_row({code, std::to_string(counts[0]),
                      std::to_string(counts[1]), std::to_string(counts[2]),
                      std::to_string(counts[0] + counts[1] + counts[2])});
  std::printf("heuristic verdicts (%zu evaluations)\n%s\n", heur_events,
              verdicts.render().c_str());

  util::Table stops({"fired", "stop", "subnets"});
  for (const auto& [fired, reasons] : stop_by_fired)
    for (const auto& [stop, count] : reasons)
      stops.add_row({fired, stop, std::to_string(count)});
  std::printf("subnet outcomes (%zu subnets)\n%s", subnets,
              stops.render().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args({"summary", "verdicts", "virtual"}, {"target"});
  if (!args.parse(argc, argv)) return usage(args.error().c_str());
  if (args.positional().size() != 1) return usage("want exactly one JOURNAL");
  const std::string path = args.positional().front();

  std::ifstream file;
  if (path != "-") {
    file.open(path);
    if (!file.good()) return usage(("cannot open " + path).c_str());
  }
  std::istream& in = path == "-" ? std::cin : file;

  std::vector<trace::JournalEvent> events;
  try {
    events = trace::read_journal(in);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.what());
    return 1;
  }

  if (args.flag("verdicts")) return print_verdicts(events);

  const bool summary_only = args.flag("summary");
  const bool show_vtime = args.flag("virtual");
  const auto only_target = args.option("target");

  Aggregates agg;
  std::optional<std::int64_t> vt_first, vt_last;
  std::string current_target;
  for (const trace::JournalEvent& e : events) {
    if (e.target != current_target && e.target != "campaign") {
      current_target = e.target;
      ++agg.targets;
    }
    if (e.type == "session") ++agg.sessions;
    else if (e.type == "hop") ++agg.hops;
    else if (e.type == "heur") {
      ++agg.heur_evals;
      if (field(e, "verdict") == "shrink") ++agg.shrinks;
    } else if (e.type == "h9") ++agg.h9_splits;
    else if (e.type == "subnet") {
      ++agg.subnets;
      ++agg.stop_reasons[field(e, "stop")];
      ++agg.fired[field(e, "fired")];
    } else if (e.type == "probe") {
      ++agg.probes;
      if (e.boolean("cached").value_or(false)) ++agg.cache_hits;
    } else if (e.type == "wave") ++agg.waves;
    else if (e.type == "retry") ++agg.retries;
    if (const auto vt = e.num("vt")) {
      if (!vt_first || *vt < *vt_first) vt_first = *vt;
      if (!vt_last || *vt > *vt_last) vt_last = *vt;
    }

    if (summary_only) continue;
    if (only_target && e.target != *only_target && e.target != "campaign")
      continue;
    if (show_vtime && prints(e)) {
      if (const auto vt = e.num("vt"))
        std::printf("[vt %8lld] ", static_cast<long long>(*vt));
      else
        std::printf("[vt        ?] ");
    }
    print_event(e);
  }

  std::printf("---\n");
  std::printf("targets %zu, sessions %zu, hops %zu, subnets %zu\n",
              agg.targets, agg.sessions, agg.hops, agg.subnets);
  std::printf("heuristic evaluations %zu (%zu shrinks), h9 splits %zu\n",
              agg.heur_evals, agg.shrinks, agg.h9_splits);
  for (const auto& [reason, count] : agg.stop_reasons)
    std::printf("  stop %-15s %zu\n", reason.c_str(), count);
  for (const auto& [code, count] : agg.fired)
    if (code != "none") std::printf("  fired %-14s %zu\n", code.c_str(), count);
  if (agg.probes > 0)
    std::printf("probe level: %zu probes (%zu cached), %zu waves, %zu "
                "retries\n",
                agg.probes, agg.cache_hits, agg.waves, agg.retries);
  if (vt_first)
    std::printf("virtual time: %lld..%lld us (%lld us simulated)\n",
                static_cast<long long>(*vt_first),
                static_cast<long long>(*vt_last),
                static_cast<long long>(*vt_last - *vt_first));
  return 0;
}
