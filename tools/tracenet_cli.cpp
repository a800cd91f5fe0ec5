// tracenet — the command-line topology collector.
//
// Modes:
//   --demo internet2|geant|internet   run on a generated reference network
//                                     (internet: the §4.2 four-ISP network
//                                     with its ICMP rate-limit plan)
//   --topology FILE                   run on a serialized topology
//                                     (see topo/serialize.h for the format)
//   --live                            raw-socket ICMP probing (CAP_NET_RAW)
//
// Common options:
//   --targets FILE      newline-separated destination list ('#' comments)
//   --vantage NAME      vantage host name for simulated topologies
//   --protocol P        icmp (default) | udp | tcp
//   --max-ttl N         trace depth (default 32)
//   --retries N         re-probes on silence (default 1)
//   --multipath         enumerate ECMP diamonds and explore every branch
//                       (not with --retries, --window, --dot or --trace-out)
//   --jobs N            concurrent campaign runtime with N workers
//                       (simulated single-path mode; campaign semantics:
//                       targets covered by an observed subnet are skipped)
//   --fast              with --jobs: eager stop-set skipping, hop-level
//                       included; trades the determinism contract for probes
//   --window N|auto     in-flight probe window: waves of up to N probes
//                       overlap their round trips within each session
//                       (1 = sequential probing; see docs/PROBING.md).
//                       "auto" enables the adaptive policy: a per-session
//                       feedback controller sizes the window, budgets
//                       speculative prescans and paces against drop
//                       signals, with output byte-identical to --window 1
//                       (docs/PROBING.md "Adaptive policy")
//   --rtt-us N          emulated round-trip time per wire probe on the
//                       simulator (NetworkConfig::wall_rtt_us), so campaign
//                       runs and --metrics reflect RTT-bound profiles
//   --virtual-time      discrete-event simulation: emulated RTTs elapse on a
//                       simulated clock instead of real sleeps, so RTT-bound
//                       campaigns finish in milliseconds of wall time with
//                       byte-identical output (see docs/SIMULATION.md)
//   --link-delay-us N   per-link one-way delay added to the emulated RTT
//                       (each probe pays 2*N per link crossed); simulator only
//   --jitter-us N       deterministic per-probe jitter bound on the emulated
//                       delay, keyed off probe content; simulator only
//   --pps N             aggregate probe budget, probes/second (0 = no cap)
//   --loss P            simulated end-to-end probe loss probability (0..1)
//   --fault-seed N      seed for the fault draws (default 0)
//   --fault-spec FILE   full fault scenario: per-node loss, anonymous mode,
//                       black-holed TTL ranges, ICMP rate limits, reply
//                       reordering (see docs/FAULTS.md); simulator only
//   --metrics text|json dump the runtime metrics registry after the run
//   --trace-out FILE    write the flight-recorder journal (JSONL, one event
//                       per probe/decision; see docs/TRACING.md)
//   --trace-level L     off | session (default with --trace-out) | probe
//   --trace-times       include wall-clock span timings in the journal
//                       (breaks byte-determinism across runs; off by default)
//   --trace-vtime       stamp every journal event with the simulated clock
//                       ("vt" attribute, microseconds); needs --virtual-time
//                       (schedule-dependent, so off by default)
//   --csv FILE          write collected subnets as CSV, one row per prefix
//   --dot FILE          write the inferred router-level map as Graphviz DOT
//   --verbose           per-hop / per-subnet diagnostics on stderr
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/multipath.h"
#include "core/session.h"
#include "eval/campaign.h"
#include "eval/mapbuilder.h"
#include "eval/report.h"
#include "probe/raw.h"
#include "probe/sim_engine.h"
#include "runtime/campaign.h"
#include "runtime/metrics.h"
#include "runtime/pacer.h"
#include "sim/network.h"
#include "sim/vtime/scheduler.h"
#include "topo/isp.h"
#include "topo/reference.h"
#include "topo/serialize.h"
#include "trace/journal.h"
#include "util/args.h"
#include "util/log.h"
#include "util/strings.h"

using namespace tn;

namespace {

int usage(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: tracenet_cli [--demo internet2|geant|internet | "
               "--topology FILE | --live]\n"
               "                    [--targets FILE] [--vantage NAME] "
               "[--protocol icmp|udp|tcp]\n"
               "                    [--max-ttl N] [--retries N] [--multipath]\n"
               "                    [--jobs N] [--fast] [--window N|auto] "
               "[--rtt-us N] [--pps N]\n"
               "                    [--virtual-time] [--link-delay-us N] "
               "[--jitter-us N]\n"
               "                    [--loss P] [--fault-seed N] "
               "[--fault-spec FILE]\n"
               "                    [--metrics text|json]\n"
               "                    [--trace-out FILE] "
               "[--trace-level off|session|probe] [--trace-times] "
               "[--trace-vtime]\n"
               "                    [--csv FILE] [--dot FILE] [--verbose] "
               "[targets...]\n");
  return 2;
}

std::vector<net::Ipv4Addr> load_targets(const std::string& path, bool& ok) {
  std::vector<net::Ipv4Addr> out;
  std::ifstream file(path);
  ok = file.good();
  std::string line;
  while (std::getline(file, line)) {
    const auto trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const auto addr = net::Ipv4Addr::parse(trimmed);
    if (!addr) {
      std::fprintf(stderr, "warning: skipping bad target %.*s\n",
                   static_cast<int>(trimmed.size()), trimmed.data());
      continue;
    }
    out.push_back(*addr);
  }
  return out;
}

struct SimWorld {
  sim::Topology topo;
  sim::NodeId vantage = sim::kInvalidId;
  std::vector<net::Ipv4Addr> default_targets;
  // The §4.2 ICMP rate-limit plan (--demo internet only): per-router pps,
  // installed on the Network as the benches install it.
  std::vector<std::pair<sim::NodeId, double>> rate_limit_plan;
};

std::optional<SimWorld> make_world(const util::Args& args) {
  SimWorld world;
  if (const auto demo = args.option("demo")) {
    if (*demo == "internet2") {
      auto ref = topo::internet2_like(42);
      world.topo = std::move(ref.topo);
      world.vantage = ref.vantage;
      world.default_targets = std::move(ref.targets);
    } else if (*demo == "geant") {
      auto ref = topo::geant_like(43);
      world.topo = std::move(ref.topo);
      world.vantage = ref.vantage;
      world.default_targets = std::move(ref.targets);
    } else if (*demo == "internet") {
      auto inet = topo::build_internet(topo::default_isp_profiles(), 7);
      world.default_targets = inet.all_targets();
      world.vantage = inet.vantages.front();
      world.rate_limit_plan = std::move(inet.rate_limit_plan);
      world.topo = std::move(inet.topo);
    } else {
      std::fprintf(stderr, "unknown demo '%s'\n", demo->c_str());
      return std::nullopt;
    }
  } else if (const auto path = args.option("topology")) {
    std::ifstream file(*path);
    if (!file.good()) {
      std::fprintf(stderr, "cannot open topology file %s\n", path->c_str());
      return std::nullopt;
    }
    try {
      auto loaded = topo::read_topology(file);
      world.topo = std::move(loaded.topo);
      for (const auto& truth : loaded.registry.all())
        if (!truth.suggested_target.is_unset())
          world.default_targets.push_back(truth.suggested_target);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s\n", error.what());
      return std::nullopt;
    }
  }

  // Vantage: by name, else the first host.
  const auto vantage_name = args.option("vantage");
  for (sim::NodeId id = 0; id < world.topo.node_count(); ++id) {
    const sim::Node& node = world.topo.node(id);
    if (vantage_name ? node.name == *vantage_name : node.is_host) {
      world.vantage = id;
      break;
    }
  }
  if (world.vantage == sim::kInvalidId) {
    std::fprintf(stderr, "no vantage host found%s\n",
                 vantage_name ? (" named " + *vantage_name).c_str() : "");
    return std::nullopt;
  }
  return world;
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args({"live", "multipath", "verbose", "fast", "trace-times",
                   "virtual-time", "trace-vtime"},
                  {"demo", "topology", "targets", "vantage", "protocol",
                   "max-ttl", "retries", "csv", "dot", "jobs", "pps",
                   "metrics", "window", "rtt-us", "loss", "fault-seed",
                   "fault-spec", "trace-out", "trace-level", "link-delay-us",
                   "jitter-us"});
  if (!args.parse(argc, argv)) return usage(args.error().c_str());
  if (args.flag("verbose")) util::set_log_level(util::LogLevel::kDebug);

  net::ProbeProtocol protocol = net::ProbeProtocol::kIcmp;
  const std::string protocol_name = args.option_or("protocol", "icmp");
  if (protocol_name == "udp") protocol = net::ProbeProtocol::kUdp;
  else if (protocol_name == "tcp") protocol = net::ProbeProtocol::kTcp;
  else if (protocol_name != "icmp") return usage("bad --protocol");

  std::uint64_t max_ttl = 32, retries = 1, jobs = 0, pps = 0;
  if (!util::parse_u64(args.option_or("max-ttl", "32"), max_ttl) ||
      max_ttl == 0 || max_ttl > 64)
    return usage("bad --max-ttl");
  if (!util::parse_u64(args.option_or("retries", "1"), retries) || retries > 8)
    return usage("bad --retries");
  if (!util::parse_u64(args.option_or("jobs", "0"), jobs) || jobs > 256)
    return usage("bad --jobs");
  if (!util::parse_u64(args.option_or("pps", "0"), pps))
    return usage("bad --pps");
  std::uint64_t window = 1, rtt_us = 0;
  bool adaptive_window = false;
  if (const std::string window_text = args.option_or("window", "1");
      window_text == "auto") {
    adaptive_window = true;
  } else if (!util::parse_u64(window_text, window) || window == 0 ||
             window > 1024) {
    return usage("bad --window (want 1..1024 or auto)");
  }
  if (!util::parse_u64(args.option_or("rtt-us", "0"), rtt_us) ||
      rtt_us > 10'000'000)
    return usage("bad --rtt-us");
  if (rtt_us > 0 && args.flag("live"))
    return usage("--rtt-us emulates RTT on the simulator; drop it for --live");
  std::uint64_t link_delay_us = 0, jitter_us = 0;
  if (!util::parse_u64(args.option_or("link-delay-us", "0"), link_delay_us) ||
      link_delay_us > 10'000'000)
    return usage("bad --link-delay-us");
  if (!util::parse_u64(args.option_or("jitter-us", "0"), jitter_us) ||
      jitter_us > 10'000'000)
    return usage("bad --jitter-us");
  const bool virtual_time = args.flag("virtual-time");
  if ((virtual_time || link_delay_us > 0 || jitter_us > 0) &&
      args.flag("live"))
    return usage("--virtual-time/--link-delay-us/--jitter-us drive the "
                 "simulator; drop them for --live");
  double loss = 0.0;
  if (const auto text = args.option("loss");
      text && (!util::parse_double(*text, loss) || loss > 1.0))
    return usage("bad --loss (want a probability in [0,1])");
  std::uint64_t fault_seed = 0;
  if (!util::parse_u64(args.option_or("fault-seed", "0"), fault_seed))
    return usage("bad --fault-seed");
  const bool wants_faults = loss > 0.0 || args.option("fault-spec") ||
                            args.option("fault-seed");
  if (wants_faults && args.flag("live"))
    return usage("--loss/--fault-seed/--fault-spec inject faults into the "
                 "simulator; drop them for --live");
  // Flight-recorder tracing (docs/TRACING.md): --trace-out selects the file,
  // --trace-level how much to record. The default level with a file is
  // "session"; without --trace-out tracing stays entirely off.
  const auto trace_out = args.option("trace-out");
  trace::Level trace_level = trace_out ? trace::Level::kSession
                                       : trace::Level::kOff;
  if (const auto text = args.option("trace-level")) {
    if (!trace_out) return usage("--trace-level needs --trace-out");
    const auto parsed = trace::parse_level(*text);
    if (!parsed) return usage("bad --trace-level (want off, session or probe)");
    trace_level = *parsed;
  }
  if (args.flag("trace-times") && !trace_out)
    return usage("--trace-times needs --trace-out");
  if (args.flag("trace-vtime") && (!trace_out || !virtual_time))
    return usage("--trace-vtime needs --trace-out and --virtual-time");
  // The multipath session keeps its own retry count and one-probe waves,
  // and records neither a journal nor the sessions a router map needs.
  if (args.flag("multipath"))
    for (const char* option : {"trace-out", "retries", "window", "dot"})
      if (args.option(option))
        return usage(("--" + std::string(option) +
                      " is not supported with --multipath").c_str());
  const std::string metrics_format = args.option_or("metrics", "");
  if (!metrics_format.empty() && metrics_format != "text" &&
      metrics_format != "json")
    return usage("bad --metrics (want text or json)");
  // --jobs / --metrics / --fast engage the concurrent campaign runtime,
  // which needs the simulated single-path pipeline.
  const bool use_runtime = jobs > 0 || !metrics_format.empty() || args.flag("fast");
  if (use_runtime && (args.flag("live") || args.flag("multipath")))
    return usage("--jobs/--metrics/--fast need simulated single-path mode");

  // Targets: positional + --targets file.
  std::vector<net::Ipv4Addr> targets;
  for (const std::string& positional : args.positional()) {
    const auto addr = net::Ipv4Addr::parse(positional);
    if (!addr) return usage(("bad target " + positional).c_str());
    targets.push_back(*addr);
  }
  if (const auto path = args.option("targets")) {
    bool ok = false;
    auto from_file = load_targets(*path, ok);
    if (!ok) return usage(("cannot open targets file " + *path).c_str());
    targets.insert(targets.end(), from_file.begin(), from_file.end());
  }

  // Engine selection. The virtual-time scheduler (if any) must outlive the
  // network, which keeps a raw pointer to it.
  std::optional<sim::vtime::Scheduler> scheduler;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<probe::ProbeEngine> engine;
  std::optional<SimWorld> world;
  if (args.flag("live")) {
    if (!probe::RawSocketProbeEngine::available()) {
      std::fprintf(stderr, "--live needs CAP_NET_RAW (or root)\n");
      return 1;
    }
    if (targets.empty()) return usage("--live needs at least one target");
    engine = std::make_unique<probe::RawSocketProbeEngine>();
  } else {
    if (!args.option("demo") && !args.option("topology"))
      return usage("pick a mode: --demo, --topology or --live");
    world = make_world(args);
    if (!world) return 1;
    sim::NetworkConfig net_config;
    net_config.wall_rtt_us = rtt_us;
    net_config.link_delay_us = link_delay_us;
    net_config.jitter_us = jitter_us;
    if (virtual_time) {
      scheduler.emplace();
      net_config.scheduler = &*scheduler;
    }
    network = std::make_unique<sim::Network>(world->topo, net_config);
    topo::install_rate_limit_plan(*network, world->rate_limit_plan);
    if (wants_faults) {
      sim::FaultSpec spec;
      if (const auto path = args.option("fault-spec")) {
        std::ifstream file(*path);
        if (!file.good()) {
          std::fprintf(stderr, "cannot open fault spec %s\n", path->c_str());
          return 1;
        }
        try {
          spec = sim::parse_fault_spec(file, world->topo, *path);
        } catch (const std::exception& error) {
          std::fprintf(stderr, "%s\n", error.what());
          return 1;
        }
      }
      // The flags layer on top of the file: --loss sets (or overrides) the
      // end-to-end default loss, --fault-seed the seed.
      if (loss > 0.0) spec.default_policy.probe_loss = loss;
      if (args.option("fault-seed")) spec.seed = fault_seed;
      network->set_faults(std::move(spec));
    }
    engine = std::make_unique<probe::SimProbeEngine>(*network, world->vantage);
    if (targets.empty()) targets = world->default_targets;
  }
  if (targets.empty()) return usage("no targets");

  // Optional sender-side pacing for the serial paths; the campaign runtime
  // paces internally via RuntimeConfig::pps.
  std::optional<runtime::ProbePacer> pacer;
  std::unique_ptr<probe::ProbeEngine> paced;
  probe::ProbeEngine* active = engine.get();
  if (pps > 0 && !use_runtime) {
    pacer.emplace(static_cast<double>(pps), scheduler ? &*scheduler : nullptr);
    paced = std::make_unique<runtime::PacedProbeEngine>(*engine, *pacer);
    active = paced.get();
  }

  // Flight recorder: one writer shared by whichever pipeline runs below.
  std::optional<trace::JsonlTraceWriter> tracer;
  if (trace_out && trace_level != trace::Level::kOff)
    tracer.emplace(trace_level, args.flag("trace-times"),
                   args.flag("trace-vtime") ? &scheduler->clock().raw()
                                            : nullptr);

  // Run.
  std::vector<core::SessionResult> sessions;
  eval::VantageObservations observations;

  if (use_runtime) {
    runtime::RuntimeConfig config;
    config.campaign.session.protocol = protocol;
    config.campaign.session.trace.max_ttl = static_cast<int>(max_ttl);
    config.campaign.session.retry_attempts = static_cast<int>(retries) + 1;
    config.campaign.session.probe_window = static_cast<int>(window);
    config.campaign.session.adaptive.enabled = adaptive_window;
    config.jobs = static_cast<int>(jobs == 0 ? 1 : jobs);
    config.pps = static_cast<double>(pps);
    config.deterministic = !args.flag("fast");
    if (tracer) config.trace_sink = &*tracer;
    runtime::MetricsRegistry registry;
    runtime::CampaignRuntime rt(*network, world->vantage, config, &registry);
    runtime::CampaignReport report = rt.run("cli", targets);
    observations = std::move(report.observations);
    sessions = std::move(report.sessions);
    for (const auto& session : sessions)
      std::printf("%s\n", session.to_string().c_str());
    std::printf("campaign: %zu subnets, %zu un-subnetized, %llu wire probes, "
                "%zu/%zu targets traced (%zu covered), %llu stop-set skips, "
                "%llu fallbacks\n",
                observations.subnets.size(), observations.unsubnetized.size(),
                static_cast<unsigned long long>(report.wire_probes),
                observations.targets_traced, observations.targets_total,
                observations.targets_covered,
                static_cast<unsigned long long>(report.stop_set_skips),
                static_cast<unsigned long long>(report.fallback_sessions));
    if (!metrics_format.empty())
      std::printf("%s", metrics_format == "json"
                            ? (registry.to_json() + "\n").c_str()
                            : registry.to_text().c_str());
  } else if (args.flag("multipath")) {
    core::MultipathConfig config;
    config.protocol = protocol;
    config.max_ttl = static_cast<int>(max_ttl);
    core::MultipathTracenetSession session(*active, config);
    // Every target is traced; the accumulator only merges what they saw.
    eval::CampaignAccumulator acc("cli", targets.size());
    for (std::size_t index = 0; index < targets.size(); ++index) {
      const net::Ipv4Addr target = targets[index];
      // Routing-churn epochs by schedule position, as on the serial path.
      if (network) session.set_epoch(network->faults().epoch_of(index));
      auto result = session.run(target);
      std::printf("multipath tracenet to %s: %zu subnets over %zu diamonds, "
                  "%llu probes\n",
                  target.to_string().c_str(), result.subnets.size(),
                  result.paths.diamond_count(),
                  static_cast<unsigned long long>(result.wire_probes));
      for (const auto& subnet : result.subnets)
        std::printf("  %s\n", subnet.to_string().c_str());
      core::SessionResult merged;
      merged.path.destination_reached = result.paths.destination_reached;
      merged.subnets = std::move(result.subnets);
      acc.add(merged);
    }
    observations = acc.finalize();
  } else {
    core::SessionConfig config;
    config.protocol = protocol;
    config.trace.max_ttl = static_cast<int>(max_ttl);
    config.retry_attempts = static_cast<int>(retries) + 1;
    config.probe_window = static_cast<int>(window);
    config.adaptive.enabled = adaptive_window;
    if (scheduler) config.clock = &*scheduler;
    core::TracenetSession session(*active, config);
    // Every target is traced; the accumulator only merges what they saw.
    eval::CampaignAccumulator acc("cli", targets.size());
    for (std::size_t index = 0; index < targets.size(); ++index) {
      const net::Ipv4Addr target = targets[index];
      // The routing-churn epoch by schedule position, stamped as the
      // campaign drivers stamp it (sim/faults.h); --live has no network.
      if (network) session.set_epoch(network->faults().epoch_of(index));
      if (tracer) session.set_recorder(tracer->open(index, target.to_string()));
      sessions.push_back(session.run(target));
      std::printf("%s\n", sessions.back().to_string().c_str());
      acc.add(sessions.back());
    }
    observations = acc.finalize();
  }

  if (trace_out) {
    std::ofstream out(*trace_out, std::ios::binary);
    if (!out.good()) {
      std::fprintf(stderr, "cannot open trace file %s\n", trace_out->c_str());
      return 1;
    }
    if (tracer) tracer->write(out);  // --trace-level off writes an empty journal
    std::fprintf(stderr, "wrote %s\n", trace_out->c_str());
  }
  if (const auto path = args.option("csv")) {
    std::ofstream out(*path);
    out << eval::subnets_csv(observations);
    std::fprintf(stderr, "wrote %s\n", path->c_str());
  }
  if (const auto path = args.option("dot")) {
    std::ofstream out(*path);
    out << eval::build_router_map(sessions).to_dot();
    std::fprintf(stderr, "wrote %s\n", path->c_str());
  }
  return 0;
}
