// Golden journal pins: FNV-1a64 hash and byte count of whole merged
// journals, captured from the attribute-string journal that preceded the
// in-place event builder. determinism_test.cpp compares journals within one
// build (jobs, window, clock); these pins compare them across commits, so a
// formatting change anywhere in the trace points, the address and prefix
// formatters or the JSON escaper shows up as a failed pin.
//
// Each run mirrors a tracenet_cli invocation with `--loss 0.2 --fault-seed 7
// --jobs 1 --trace-out`, and the pins equal the hashes of those CLI files:
//   * `--demo internet2` and `--demo geant` (session level, window 1);
//   * `--demo internet2 --trace-level probe --window 16` (probe level);
//   * `--demo internet2 --rtt-us 2000 --virtual-time --trace-vtime`
//     (session level with simulated-microsecond `vt` stamps).
// Probe-level journals replay byte-identically only when serial
// (docs/TRACING.md), so every pin runs at jobs 1.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "runtime/campaign.h"
#include "sim/faults.h"
#include "sim/network.h"
#include "sim/vtime/scheduler.h"
#include "topo/reference.h"
#include "trace/journal.h"

namespace tn {
namespace {

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

struct Pin {
  std::uint64_t hash;
  std::size_t bytes;
};

struct Run {
  bool geant = false;
  trace::Level level = trace::Level::kSession;
  int window = 1;
  bool virtual_time = false;
};

// The merged journal of one lossy jobs-1 campaign on a pinned reference.
std::string journal_of(const Run& run) {
  const topo::ReferenceTopology ref =
      run.geant ? topo::geant_like(43) : topo::internet2_like(42);
  sim::vtime::Scheduler scheduler;
  sim::NetworkConfig net_config;
  if (run.virtual_time) {
    net_config.wall_rtt_us = 2000;
    net_config.scheduler = &scheduler;
  }
  sim::Network net(ref.topo, net_config);
  net.set_faults(sim::FaultSpec::uniform_loss(0.2, 7));
  trace::JsonlTraceWriter writer(
      run.level, /*with_timings=*/false,
      run.virtual_time ? &scheduler.clock().raw() : nullptr);
  runtime::RuntimeConfig config;
  config.jobs = 1;
  config.campaign.session.probe_window = run.window;
  config.trace_sink = &writer;
  runtime::CampaignRuntime runtime(net, ref.vantage, config);
  runtime.run("cli", ref.targets);
  return writer.merged();
}

void expect_pin(const Run& run, const Pin& pin) {
  const std::string journal = journal_of(run);
  EXPECT_EQ(journal.size(), pin.bytes);
  EXPECT_EQ(fnv1a64(journal), pin.hash)
      << std::hex << "got 0x" << fnv1a64(journal);
}

TEST(TraceGolden, SessionJournalInternet2) {
  expect_pin({}, {0x5DF1BFD1906940E9ULL, 1578966});
}

TEST(TraceGolden, SessionJournalGeant) {
  expect_pin({.geant = true}, {0x2358F72B74ADDD88ULL, 2726665});
}

TEST(TraceGolden, ProbeJournalInternet2Window16) {
  expect_pin({.level = trace::Level::kProbe, .window = 16},
             {0x6E50D544D803EEB3ULL, 5564838});
}

TEST(TraceGolden, VirtualTimeStampedJournalInternet2) {
  expect_pin({.virtual_time = true}, {0xE2E53416D326D57FULL, 1807503});
}

}  // namespace
}  // namespace tn
