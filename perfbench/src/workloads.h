// The three campaign workloads and the round that runs one of them.
//
// A round is what a CLI user pays for one invocation: it builds every
// topology and sim::Network afresh (setup), then runs each campaign through
// runtime::CampaignRuntime (the timed part). All workloads are closed loop:
// a worker claims its next target only after its previous session returned.
//
//   internet_serial  the §4.2 campaign: the four-ISP simulated internet with
//                    its rate-limit plan, 895 targets from each of Rice,
//                    UMass and UOregon (flow ids 1-3) on one Network; jobs 1,
//                    window 1, no emulated RTT, no journal.
//   internet_live    the same inputs at jobs 4 and window auto, with a 2 ms
//                    RTT, 100 us link delay and 500 us jitter elapsing on the
//                    virtual-time scheduler.
//   refs_lossy       20 cells alternating Internet2-like and GEANT-like, each
//                    with its own topology, Network and 20% uniform loss
//                    (per-cell fault seed); jobs 1 and a session-level
//                    journal kept in memory, then written to a file.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/campaign.h"
#include "sim/network.h"
#include "sim/vtime/scheduler.h"
#include "spans.h"
#include "topo/isp.h"
#include "topo/reference.h"
#include "trace/journal.h"
#include "util/clock.h"

namespace perfbench {

// Inputs derived from the workload seed; seed 0 reproduces the
// repository's own campaigns.
//   * Internet workloads: the §4.2 topology (seed 7) with its targets in a
//     seeded order (all_targets() order for seed 0). The topology is pinned
//     because one internet topology's campaign cost differs from the next
//     seed's by 8% (serial) to 20% (live), more than an affordable round
//     can average out.
//   * refs_lossy: cell k of workload seed s is the Internet2-like (even k)
//     or GEANT-like (odd k) topology of seed base + s * 10 + k / 2, with
//     fault seed 7 + s * 20 + k; seed 0's first pair is Internet2 42 and
//     GEANT 43.
struct Seeds {
  static constexpr std::uint64_t kInternet = 7;
  static constexpr std::uint64_t kInternet2 = 42;
  static constexpr std::uint64_t kGeant = 43;
  static constexpr std::uint64_t kFault = 7;

  std::uint64_t workload = 0;

  // Seed of instance k when every workload seed draws `instances` of them.
  static std::uint64_t derive(std::uint64_t base, std::uint64_t workload,
                              std::size_t instances, std::size_t k) noexcept {
    return base + workload * instances + k;
  }
};

// The internet workloads' target order: unchanged for seed 0, else
// shuffled by util::Rng(seed).
void order_targets(std::vector<tn::net::Ipv4Addr>& targets,
                   std::uint64_t seed);

struct WorkloadSpec {
  std::string_view name;
  bool internet = false;    // else the Internet2/GEANT reference cells
  std::size_t cells = 1;    // topologies (each with its Network) per round
  int jobs = 1;
  bool adaptive_window = false;
  bool virtual_time = false;  // 2 ms RTT + link delay + jitter on vtime
  double loss = 0.0;          // FaultSpec::uniform_loss probability
  bool journal = false;       // session-level journal, written per cell
  // The subnets are a pure function of the inputs, so their subnets_csv
  // hash must repeat across rounds (and between traced and untraced runs).
  bool deterministic = false;
};

// nullptr for an unknown name.
const WorkloadSpec* find_workload(std::string_view name) noexcept;

// How the traced run varies a round. The default is the workload as
// specified.
struct RoundConfig {
  // Journal level for every campaign; nullopt keeps the workload's own
  // (session level with a journal, none without).
  std::optional<tn::trace::Level> journal_level;
  bool journal_timings = false;  // wall-clock "us" on the runtime's spans
  // Overrides whether the campaigns run on the virtual-time scheduler with
  // internet_live's delay model (the vtime.overhead_s pair). A workload that
  // normally runs on the scheduler lets session sleeps elapse on an instant
  // clock without it.
  std::optional<bool> virtual_time;
  std::string journal_path;  // where journals are written out
  SpanLog* spans = nullptr;  // traced run only
};

struct CampaignRun {
  std::string vantage_name;
  tn::sim::NodeId vantage = tn::sim::kInvalidId;
  tn::runtime::RuntimeConfig config;
  std::unique_ptr<tn::runtime::MetricsRegistry> metrics;
  std::unique_ptr<tn::trace::JsonlTraceWriter> journal;
  tn::runtime::CampaignReport report;
  double wall_s = 0.0;   // runtime run + journal write
  double cpu_s = 0.0;    // process CPU over the same interval
  double write_s = 0.0;  // JsonlTraceWriter::write
  std::uint64_t journal_bytes = 0;
  std::string error;  // what() of an exception out of the campaign
};

// One topology with its Network and the campaigns run on it.
struct Cell {
  std::unique_ptr<tn::topo::SimulatedInternet> internet;
  std::unique_ptr<tn::topo::ReferenceTopology> reference;
  std::vector<tn::net::Ipv4Addr> targets;
  std::vector<const tn::topo::SubnetRegistry*> registries;

  tn::sim::NetworkConfig net_config;  // scheduler left null
  tn::sim::FaultSpec faults;
  std::unique_ptr<tn::sim::vtime::Scheduler> scheduler;
  std::unique_ptr<tn::util::ManualClock> instant_clock;
  std::unique_ptr<tn::sim::Network> network;
  std::vector<CampaignRun> campaigns;

  double topo_build_s = 0.0;
  double setup_s = 0.0;  // topology + Network + faults and rate limits
  tn::sim::NetworkStats stats;  // counted over the campaigns only

  const tn::sim::Topology& topology() const noexcept {
    return internet ? internet->topo : reference->topo;
  }

  // Installs this cell's faults and rate-limit plan on `network`.
  void install_impairments(tn::sim::Network& network) const;
};

struct Round {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t targets = 0;      // traced plus covered
  std::uint64_t unreached = 0;    // traced, destination never reached
  std::uint64_t threw = 0;        // targets of campaigns that threw
  std::uint64_t wire_probes = 0;
  double makespan_s = 0.0;
  std::uint64_t csv_hash = 0;     // over every campaign's subnets_csv
  std::vector<std::string> problems;  // failed output checks

  std::uint64_t failed() const noexcept { return threw + unreached; }
};

// Called with each cell once its campaigns are done, outside the timed
// region; the cell is destroyed afterwards, so a round holds one topology
// at a time.
using CellVisitor = std::function<void(Cell&)>;

// Builds and runs one round of `spec`. Output checks run after the timed
// region; their failures land in Round::problems.
Round run_round(const WorkloadSpec& spec, const Seeds& seeds,
                const RoundConfig& config, const CellVisitor& visit = {});

// Ground-truth subnets of `cell` recovered exactly, over every campaign
// and every registry of the cell (eval::classify, audited through the
// cell's network after the campaigns).
struct ExactCount {
  std::uint64_t exact = 0;
  std::uint64_t truths = 0;
};
void count_exact(const Cell& cell, ExactCount& count);

}  // namespace perfbench
