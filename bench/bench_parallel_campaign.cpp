// Measures the concurrent campaign runtime (src/runtime/): wall-clock
// speedup over one worker for jobs in {1, 2, 4, 8}, and the wire
// probes saved by the Doubletree-style shared stop set — on the largest
// simulated ISP (SprintLink-like, the paper's biggest in Table 3). Prints a
// table and writes BENCH_parallel_campaign.json for downstream tooling.
//
// Live probing is RTT-bound, not CPU-bound — a serial collector spends its
// wall clock waiting out round trips — so the campaign runs with the
// simulator's emulated RTT (NetworkConfig::wall_rtt_us): every wire probe
// blocks its worker like a live probe would, and the speedup measures how
// well workers overlap those waits, independent of host core count.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "runtime/campaign.h"
#include "util/strings.h"

namespace {

using namespace tn;
using Clock = std::chrono::steady_clock;

struct Run {
  int jobs = 1;
  bool stop_set = true;
  bool cache = true;  // campaign-wide shared reply cache
  bool fast = false;  // eager stop-set skipping, hop-level included
  double wall_ms = 0.0;
  double speedup = 1.0;  // vs jobs=1 with the same stop-set/mode setting
  std::uint64_t wire_probes = 0;
  std::uint64_t sessions_run = 0;
  std::uint64_t stop_set_skips = 0;
  std::size_t subnets = 0;
};

constexpr std::uint64_t kEmulatedRttUs = 300;  // a fast continental RTT

Run run_once(const topo::SimulatedInternet& internet,
             const std::vector<net::Ipv4Addr>& targets, int jobs,
             bool stop_set, bool cache, bool fast) {
  sim::NetworkConfig net_config;
  net_config.wall_rtt_us = kEmulatedRttUs;
  sim::Network net(internet.topo, net_config);
  topo::install_rate_limit_plan(net, internet.rate_limit_plan);

  runtime::RuntimeConfig config;
  config.jobs = jobs;
  config.share_stop_set = stop_set;
  config.share_probe_cache = cache;
  config.deterministic = !fast;
  runtime::CampaignRuntime campaign(net, internet.vantages.front(), config);

  const auto start = Clock::now();
  const runtime::CampaignReport report = campaign.run("Rice", targets);
  const std::chrono::duration<double, std::milli> elapsed =
      Clock::now() - start;

  Run out;
  out.jobs = jobs;
  out.stop_set = stop_set;
  out.cache = cache;
  out.fast = fast;
  out.wall_ms = elapsed.count();
  out.wire_probes = report.wire_probes;
  out.sessions_run = report.sessions_run;
  out.stop_set_skips = report.stop_set_skips;
  out.subnets = report.observations.subnets.size();
  return out;
}

std::string ms(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.1f", value);
  return buffer;
}

std::string ratio(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.2fx", value);
  return buffer;
}

}  // namespace

int main() {
  std::printf("== Parallel campaign runtime: speedup and stop-set savings ==\n\n");

  // The largest of the paper's four ISPs, alone so the campaign is pure
  // intra-ISP work (no transit targets diluting the stop set).
  const topo::IspProfile isp = topo::default_isp_profiles().front();
  const topo::SimulatedInternet internet =
      topo::build_internet({isp}, tn::bench::kInternetSeed);
  const std::vector<net::Ipv4Addr> targets = internet.all_targets();
  std::printf("ISP %s, %zu targets, vantage %s, emulated RTT %llu us\n\n",
              isp.name.c_str(), targets.size(),
              internet.vantage_names.front().c_str(),
              static_cast<unsigned long long>(kEmulatedRttUs));

  // The speedup sweep runs the default configuration (everything shared,
  // deterministic) over jobs {1, 2, 4, 8}. The ablation rows isolate the
  // wire-probe effects at jobs {1, 4}: the shared stop set's savings are
  // masked by the shared reply cache (a skipped session's probes would have
  // been cache hits anyway), so the stop-set ablation runs cache-off; fast
  // mode adds eager Doubletree-style hop skipping on top.
  struct Config {
    bool stop_set;
    bool cache;
    bool fast;
    std::vector<int> jobs;
  };
  const std::vector<Config> configs = {
      {true, true, false, {1, 2, 4, 8}},   // default: the speedup sweep
      {false, true, false, {1, 4}},        // no stop set (cache still on)
      {true, false, false, {1, 4}},        // stop set alone, cache off
      {false, false, false, {1, 4}},       // neither: the raw baseline
      {true, true, true, {1, 4}},          // fast mode, everything shared
      {true, false, true, {1, 4}},         // fast mode, cache off
  };

  std::vector<Run> runs;
  for (const Config& c : configs) {
    double base = 0.0;
    for (const int jobs : c.jobs) {
      Run run = run_once(internet, targets, jobs, c.stop_set, c.cache, c.fast);
      if (jobs == 1) base = run.wall_ms;
      run.speedup = run.wall_ms > 0.0 ? base / run.wall_ms : 1.0;
      runs.push_back(run);
    }
  }

  util::Table table({"mode", "stop set", "cache", "jobs", "wall ms", "speedup",
                     "wire probes", "sessions", "skips", "subnets"});
  for (const Run& run : runs)
    table.add_row({run.fast ? "fast" : "det", run.stop_set ? "on" : "off",
                   run.cache ? "on" : "off", std::to_string(run.jobs),
                   ms(run.wall_ms), ratio(run.speedup),
                   std::to_string(run.wire_probes),
                   std::to_string(run.sessions_run),
                   std::to_string(run.stop_set_skips),
                   std::to_string(run.subnets)});
  std::printf("%s", table.render().c_str());

  const Run& det_j4 = runs[2];            // default, jobs=4
  const Run& cache_only_j1 = runs[4];     // stop off / cache on, jobs=1
  const Run& neither_j1 = runs[8];        // stop off / cache off, jobs=1
  const Run& neither_j4 = runs[9];        // stop off / cache off, jobs=4
  const Run& fast_nocache_j4 = runs[13];  // fast, cache off, jobs=4
  std::printf(
      "\nexpected: >1.5x wall-clock speedup at jobs=4 (workers overlap their\n"
      "RTT waits; got %.2fx). Cross-session sharing sheds wire probes two\n"
      "ways: the campaign-wide reply cache absorbs re-probes of shared path\n"
      "hops (%llu -> %llu at jobs=1), and the stop set skips covered targets\n"
      "— and, in fast mode, covered hops — cutting the cache-off probe count\n"
      "%llu -> %llu at jobs=4. Deterministic-mode skips are deliberately\n"
      "conservative (only provably serial-equivalent ones), so their savings\n"
      "sit within flakiness noise; fast mode is the probe-budget mode.\n"
      "SprintLink is flaky and rate-limited, so subnet counts vary a little\n"
      "with the probe schedule — the byte-identical determinism contract is\n"
      "pinned by ctest on the clean topologies (campaign_runtime_test.cpp).\n",
      det_j4.speedup,
      static_cast<unsigned long long>(neither_j1.wire_probes),
      static_cast<unsigned long long>(cache_only_j1.wire_probes),
      static_cast<unsigned long long>(neither_j4.wire_probes),
      static_cast<unsigned long long>(fast_nocache_j4.wire_probes));

  std::string json = "{\"bench\":\"parallel_campaign\",\"isp\":\"" + isp.name +
                     "\",\"targets\":" + std::to_string(targets.size()) +
                     ",\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    if (i != 0) json += ",";
    json += "{\"jobs\":" + std::to_string(run.jobs) +
            ",\"mode\":\"" + (run.fast ? "fast" : "det") + "\"" +
            ",\"stop_set\":" + (run.stop_set ? "true" : "false") +
            ",\"share_cache\":" + (run.cache ? "true" : "false") +
            ",\"wall_ms\":" + ms(run.wall_ms) +
            ",\"speedup\":" + ms(run.speedup) +
            ",\"wire_probes\":" + std::to_string(run.wire_probes) +
            ",\"sessions\":" + std::to_string(run.sessions_run) +
            ",\"stop_set_skips\":" + std::to_string(run.stop_set_skips) +
            ",\"subnets\":" + std::to_string(run.subnets) + "}";
  }
  json += "]}";
  if (std::FILE* f = std::fopen("BENCH_parallel_campaign.json", "w")) {
    std::fputs(json.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nwrote BENCH_parallel_campaign.json\n");
  }
  return 0;
}
