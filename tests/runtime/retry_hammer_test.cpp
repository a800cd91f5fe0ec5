// RetryingProbeEngine under concurrency: the retry counter must stay exact
// when several campaign workers hammer one shared engine; the CI TSan job
// runs it with -fsanitize=thread.
#include "probe/retry.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "probe/engine.h"
#include "testutil.h"

namespace tn::probe {
namespace {

// Never answers: every probe wants the full retry schedule, so the retry
// counter is bumped on every call.
class SilentEngine final : public ProbeEngine {
 private:
  net::ProbeReply do_probe(const net::Probe&) override { return {}; }
};

net::Probe probe_to(net::Ipv4Addr target, int ttl) {
  net::Probe probe;
  probe.target = target;
  probe.ttl = static_cast<std::uint8_t>(ttl);
  return probe;
}

TEST(RetryEngine, UnlimitedBudgetCountsEveryRetryLosslessly) {
  SilentEngine wire;
  RetryingProbeEngine retry(wire, 3);  // 2 retries per silent probe

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 2'000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        retry.probe(probe_to(test::ip("10.0." + std::to_string(t) + ".1"), 1));
    });
  for (auto& thread : pool) thread.join();

  EXPECT_EQ(retry.retries_used(), kThreads * kPerThread * 2);
  EXPECT_EQ(wire.probes_issued(), kThreads * kPerThread * 3);
}

}  // namespace
}  // namespace tn::probe
