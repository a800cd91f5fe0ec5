#include "runtime/pacer.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "probe/sim_engine.h"
#include "sim/vtime/scheduler.h"
#include "testutil.h"
#include "util/clock.h"

namespace tn::runtime {
namespace {

using Clock = std::chrono::steady_clock;

TEST(Pacer, DisabledAdmitsImmediately) {
  ProbePacer pacer;
  EXPECT_FALSE(pacer.enabled());
  const auto start = Clock::now();
  for (int i = 0; i < 10'000; ++i) pacer.acquire();
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(1));
  EXPECT_EQ(pacer.throttle_waits(), 0u);
}

TEST(Pacer, BurstGoesThroughUnthrottled) {
  ProbePacer pacer(10.0);
  EXPECT_EQ(kPacerBurst, 8.0);
  const auto start = Clock::now();
  for (int i = 0; i < 8; ++i) pacer.acquire();  // spends the initial burst
  EXPECT_LT(Clock::now() - start, std::chrono::milliseconds(50));
  EXPECT_EQ(pacer.throttle_waits(), 0u);
}

TEST(Pacer, ThrottlesPastTheBurst) {
  // 200/s sustained, burst 8: the two probes past the burst need >= ~10 ms
  // of refill.
  ProbePacer pacer(200.0);
  const auto start = Clock::now();
  for (int i = 0; i < 10; ++i) pacer.acquire();
  EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(5));
  EXPECT_GE(pacer.throttle_waits(), 1u);
}

TEST(Pacer, OverBurstWaveAdmitsImmediatelyAndLeavesDebt) {
  // A wave larger than the burst capacity must go out as soon as the bucket
  // is full — waiting for 100 tokens that can never accumulate would
  // deadlock — and drive the token count negative.
  ProbePacer pacer(1000.0);
  const auto start = Clock::now();
  pacer.acquire(100);
  EXPECT_LT(Clock::now() - start, std::chrono::milliseconds(50));
  EXPECT_EQ(pacer.throttle_waits(), 0u);

  // The debt (~92 tokens at 1000/s) throttles the next probe for ~93 ms.
  const auto debt_start = Clock::now();
  pacer.acquire(1);
  EXPECT_GE(Clock::now() - debt_start, std::chrono::milliseconds(50));
  EXPECT_EQ(pacer.throttle_waits(), 1u);
}

TEST(Pacer, ThrottledWaveCountsOneWaitHoweverLongItSpins) {
  // A single throttled acquire may lap its wait loop several times before
  // the refill covers the shortfall; it is still one throttled wave. With
  // per-lap counting this reported 2-3 "waits" for one 31-token debt.
  ProbePacer pacer(1000.0);
  pacer.acquire(39);  // immediate, tokens now -31
  pacer.acquire(1);   // one throttled wave, ~32 ms of wait-loop laps
  EXPECT_EQ(pacer.throttle_waits(), 1u);
}

TEST(Pacer, ConcurrentWaitsNeverExceedAcquires) {
  // Contending workers can steal each other's refill and re-lap the wait
  // loop; the throttle counter must still be bounded by one per acquire.
  ProbePacer pacer(400.0);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) pacer.acquire();
    });
  for (auto& thread : pool) thread.join();
  EXPECT_LE(pacer.throttle_waits(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_GE(pacer.throttle_waits(), 1u);
}

TEST(Pacer, WallAndVirtualClocksDecideIdentically) {
  // The pacer's throttle decisions are a pure function of the timestamp
  // sequence its clock serves. Drive one pacer on a ManualClock (the wall
  // stand-in: sleeps elapse exactly) and one on the virtual-time scheduler
  // (serial, so sleeps advance the simulated clock immediately) through the
  // same wave sequence: after every acquire both clocks must agree on the
  // time and both pacers on the cumulative throttle count.
  const std::size_t waves[] = {1, 1, 5, 1, 2, 8, 1, 3, 3, 1};

  util::ManualClock manual;
  sim::vtime::Scheduler scheduler;
  ProbePacer wall_pacer(500.0, &manual);
  ProbePacer virtual_pacer(500.0, &scheduler);

  std::vector<std::pair<std::uint64_t, std::uint64_t>> wall_trace;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> virtual_trace;
  for (const std::size_t n : waves) {
    wall_pacer.acquire(n);
    wall_trace.emplace_back(manual.now_us(), wall_pacer.throttle_waits());
    virtual_pacer.acquire(n);
    virtual_trace.emplace_back(scheduler.now_us(),
                               virtual_pacer.throttle_waits());
  }
  EXPECT_EQ(wall_trace, virtual_trace);
  // The sequence was chosen to actually throttle — agreement on an
  // all-immediate schedule would prove nothing.
  EXPECT_GE(wall_pacer.throttle_waits(), 3u);
}

TEST(Pacer, PacedEngineCountsWireProbes) {
  test::Fig3Topology f;
  sim::Network net(f.topo);
  probe::SimProbeEngine wire(net, f.vantage);
  ProbePacer pacer;  // disabled: behaviour must be a pure pass-through
  MetricsRegistry registry;
  Counter& counter = registry.counter("probe.wire");
  PacedProbeEngine paced(wire, pacer, &counter);
  EXPECT_EQ(paced.direct(f.pivot3).type, net::ResponseType::kEchoReply);
  paced.indirect(f.pivot3, 2);
  EXPECT_EQ(counter.value(), 2u);
  EXPECT_EQ(wire.probes_issued(), 2u);
  EXPECT_EQ(paced.probes_issued(), 2u);
}

}  // namespace
}  // namespace tn::runtime
