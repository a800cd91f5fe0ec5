#include "probe/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "probe/cache.h"
#include "probe/retry.h"
#include "probe/sim_engine.h"
#include "testutil.h"

namespace tn::probe {
namespace {

using net::ProbeProtocol;
using net::ResponseType;
using test::ip;

class ProbeEngineTest : public ::testing::Test {
 protected:
  test::Fig3Topology f;
  sim::Network net{f.topo};
};

TEST_F(ProbeEngineTest, SimEngineDirectProbe) {
  SimProbeEngine engine(net, f.vantage);
  const auto reply = engine.direct(f.pivot3);
  EXPECT_EQ(reply.type, ResponseType::kEchoReply);
  EXPECT_EQ(engine.probes_issued(), 1u);
}

TEST_F(ProbeEngineTest, SimEngineIndirectProbe) {
  SimProbeEngine engine(net, f.vantage);
  const auto reply = engine.indirect(f.pivot3, 2);
  EXPECT_EQ(reply.type, ResponseType::kTtlExceeded);
  EXPECT_EQ(reply.responder, ip("10.0.1.1"));
}

TEST_F(ProbeEngineTest, CacheAvoidsDuplicateWireProbes) {
  SimProbeEngine wire(net, f.vantage);
  CachingProbeEngine cached(wire);
  const auto first = cached.direct(f.pivot3);
  const auto second = cached.direct(f.pivot3);
  EXPECT_EQ(first.type, second.type);
  EXPECT_EQ(first.responder, second.responder);
  EXPECT_EQ(wire.probes_issued(), 1u);
  EXPECT_EQ(cached.probes_issued(), 2u);
  EXPECT_EQ(cached.hits(), 1u);
  EXPECT_EQ(cached.misses(), 1u);
}

TEST_F(ProbeEngineTest, CacheKeyIncludesTtlAndProtocol) {
  SimProbeEngine wire(net, f.vantage);
  CachingProbeEngine cached(wire);
  cached.indirect(f.pivot3, 2);
  cached.indirect(f.pivot3, 3);             // different ttl -> miss
  cached.direct(f.pivot3);                  // different ttl -> miss
  cached.direct(f.pivot3, ProbeProtocol::kUdp);  // different protocol -> miss
  EXPECT_EQ(cached.hits(), 0u);
  EXPECT_EQ(wire.probes_issued(), 4u);
}

TEST_F(ProbeEngineTest, CacheKeyIncludesFlowId) {
  // ECMP can answer the same (target, ttl) differently per flow; caching
  // across flows would blind multipath discovery.
  SimProbeEngine wire(net, f.vantage);
  CachingProbeEngine cached(wire);
  cached.indirect(f.pivot3, 2, ProbeProtocol::kIcmp, /*flow_id=*/1);
  cached.indirect(f.pivot3, 2, ProbeProtocol::kIcmp, /*flow_id=*/2);
  EXPECT_EQ(cached.hits(), 0u);
  cached.indirect(f.pivot3, 2, ProbeProtocol::kIcmp, /*flow_id=*/1);
  EXPECT_EQ(cached.hits(), 1u);
}

TEST_F(ProbeEngineTest, CacheClearForgets) {
  SimProbeEngine wire(net, f.vantage);
  CachingProbeEngine cached(wire);
  cached.direct(f.pivot3);
  cached.clear();
  cached.direct(f.pivot3);
  EXPECT_EQ(wire.probes_issued(), 2u);
}

TEST_F(ProbeEngineTest, RetryRepeatsOnlyOnSilence) {
  SimProbeEngine wire(net, f.vantage);
  RetryingProbeEngine retrying(wire, 3);
  // Responsive target: no retries.
  retrying.direct(f.pivot3);
  EXPECT_EQ(wire.probes_issued(), 1u);
  EXPECT_EQ(retrying.retries_used(), 0u);
  // Silent target: full retry budget burned.
  retrying.direct(ip("192.168.1.9"));
  EXPECT_EQ(wire.probes_issued(), 4u);  // 1 + 3 attempts
  EXPECT_EQ(retrying.retries_used(), 2u);
}

TEST_F(ProbeEngineTest, RetryRecoversRateLimitedReply) {
  sim::NetworkConfig config;
  config.inter_probe_gap_us = 20'000;  // 20 ms between probes
  sim::Network limited_net(f.topo, config);
  // 50/s sustained: a burst-exhausted bucket refills within one retry gap.
  limited_net.set_rate_limiter(f.r3, sim::RateLimiter(50.0, 1.0));
  SimProbeEngine wire(limited_net, f.vantage);
  RetryingProbeEngine retrying(wire, 2);
  int answered = 0;
  for (int i = 0; i < 20; ++i) answered += !retrying.direct(f.pivot3).is_none();
  // Without retries roughly half the replies are dropped at this rate; with
  // them nearly all succeed.
  EXPECT_GE(answered, 18);
}

// Exposes the base class's serial do_probe_batch fallback: forwards single
// probes only, like an engine written before the batch seam existed
// (RawSocketProbeEngine's position).
class SerialOnlyEngine final : public ProbeEngine {
 public:
  explicit SerialOnlyEngine(ProbeEngine& inner) noexcept : inner_(inner) {}

 private:
  net::ProbeReply do_probe(const net::Probe& request) override {
    return inner_.probe(request);
  }
  ProbeEngine& inner_;
};

net::Probe direct_probe(net::Ipv4Addr target) {
  net::Probe p;
  p.target = target;
  return p;
}

net::Probe indirect_probe(net::Ipv4Addr target, std::uint8_t ttl) {
  net::Probe p;
  p.target = target;
  p.ttl = ttl;
  return p;
}

TEST_F(ProbeEngineTest, BatchSerialFallbackMatchesOverlappedBatch) {
  // An engine without a batch override answers waves through the serial
  // fallback — same replies, same accounting, as the simulator's true
  // overlapped batch.
  SimProbeEngine wire(net, f.vantage);
  SerialOnlyEngine serial(wire);
  const std::vector<net::Probe> wave = {
      direct_probe(f.pivot3), indirect_probe(f.pivot3, 2),
      direct_probe(ip("192.168.1.9"))};

  const auto fallback = serial.probe_batch(wave);
  sim::Network net2(f.topo);
  SimProbeEngine wire2(net2, f.vantage);
  const auto overlapped = wire2.probe_batch(wave);

  ASSERT_EQ(fallback.size(), wave.size());
  ASSERT_EQ(overlapped.size(), wave.size());
  for (std::size_t i = 0; i < wave.size(); ++i) {
    EXPECT_EQ(fallback[i].type, overlapped[i].type) << i;
    EXPECT_EQ(fallback[i].responder, overlapped[i].responder) << i;
  }
  EXPECT_EQ(serial.probes_issued(), wave.size());
  EXPECT_EQ(wire.probes_issued(), wave.size());
}

TEST_F(ProbeEngineTest, SimBatchMatchesSerialProbing) {
  // replies[i] answers requests[i], bit-identical to probing one by one.
  SimProbeEngine engine(net, f.vantage);
  const std::vector<net::Probe> wave = {
      indirect_probe(f.pivot3, 1), indirect_probe(f.pivot3, 2),
      indirect_probe(f.pivot3, 3), direct_probe(f.pivot3),
      direct_probe(f.pivot4)};
  const auto batched = engine.probe_batch(wave);

  sim::Network net2(f.topo);
  SimProbeEngine engine2(net2, f.vantage);
  ASSERT_EQ(batched.size(), wave.size());
  for (std::size_t i = 0; i < wave.size(); ++i) {
    const auto serial = engine2.probe(wave[i]);
    EXPECT_EQ(batched[i].type, serial.type) << i;
    EXPECT_EQ(batched[i].responder, serial.responder) << i;
  }
  EXPECT_EQ(engine.probes_issued(), wave.size());
}

TEST_F(ProbeEngineTest, CacheBatchForwardsOnlyMisses) {
  SimProbeEngine wire(net, f.vantage);
  CachingProbeEngine cached(wire);
  cached.direct(f.pivot3);  // warm one entry
  EXPECT_EQ(wire.probes_issued(), 1u);

  // Wave of: a hit, a fresh miss, and an intra-batch duplicate of the miss.
  const std::vector<net::Probe> wave = {direct_probe(f.pivot3),
                                        direct_probe(f.pivot4),
                                        direct_probe(f.pivot4)};
  const auto replies = cached.probe_batch(wave);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(wire.probes_issued(), 2u);  // only the miss crossed the wire
  EXPECT_EQ(cached.hits(), 2u);         // warm hit + intra-batch duplicate
  EXPECT_EQ(replies[1].type, replies[2].type);
  EXPECT_EQ(replies[1].responder, replies[2].responder);
  // The duplicate's reply is now cached: re-asking costs no wire probe.
  cached.direct(f.pivot4);
  EXPECT_EQ(wire.probes_issued(), 2u);
}

TEST_F(ProbeEngineTest, CacheForwardsSilenceItDoesNotKeep) {
  SimProbeEngine wire(net, f.vantage);
  CachingProbeEngine cached(wire);
  const net::Ipv4Addr silent = ip("192.168.1.9");
  cached.set_cache_unresponsive(false);
  EXPECT_TRUE(cached.direct(silent).is_none());
  EXPECT_TRUE(cached.direct(silent).is_none());
  EXPECT_EQ(wire.probes_issued(), 2u);
  EXPECT_EQ(cached.misses(), 2u);
  // Kept silence answers the next repeat from memory.
  cached.set_cache_unresponsive(true);
  cached.direct(silent);
  cached.direct(silent);
  EXPECT_EQ(wire.probes_issued(), 3u);
  EXPECT_EQ(cached.hits(), 1u);
}

// After clear() no entry answers, singly or in a wave, and the hit/miss
// counters restart from zero.
TEST_F(ProbeEngineTest, CacheClearAnswersNothingAndZeroesCounters) {
  SimProbeEngine wire(net, f.vantage);
  CachingProbeEngine cached(wire);
  std::vector<net::Probe> wave;
  for (std::uint8_t ttl = 1; ttl <= 6; ++ttl)
    for (const net::Ipv4Addr target : {f.pivot3, f.pivot4, f.far_fringe})
      wave.push_back(indirect_probe(target, ttl));
  cached.probe_batch(wave);
  cached.probe_batch(wave);
  EXPECT_EQ(cached.hits(), wave.size());
  cached.clear();
  EXPECT_EQ(cached.hits(), 0u);
  EXPECT_EQ(cached.misses(), 0u);
  const std::uint64_t wire_before = wire.probes_issued();
  for (const net::Probe& probe : wave) cached.probe(probe);
  EXPECT_EQ(cached.hits(), 0u);
  EXPECT_EQ(cached.misses(), wave.size());
  EXPECT_EQ(wire.probes_issued() - wire_before, wave.size());
  cached.clear();
  cached.probe_batch(wave);
  EXPECT_EQ(cached.hits(), 0u);
  EXPECT_EQ(cached.misses(), wave.size());
}

// Many threads share one cache, as the campaign workers do: overlapping
// single probes and waves (duplicates inside a wave included) must each get
// the reply an uncached network gives, and every request is scored exactly
// once as a hit or a miss. Returns how many distinct probes were asked for.
std::size_t hammer(const test::Fig3Topology& f, CachingProbeEngine& cached,
                   const SimProbeEngine& wire) {
  std::vector<net::Probe> pool;
  for (const char* addr : {"192.168.1.2", "192.168.1.3", "192.168.1.4",
                           "192.168.1.9", "10.0.3.2", "10.0.4.1", "10.0.4.2"})
    for (std::uint16_t flow = 0; flow < 2; ++flow)
      for (std::uint8_t ttl = 1; ttl <= 7; ++ttl) {
        net::Probe p = ttl == 7 ? direct_probe(ip(addr))
                                : indirect_probe(ip(addr), ttl);
        p.flow_id = flow;
        pool.push_back(p);
      }
  sim::Network reference_net(f.topo);
  SimProbeEngine reference(reference_net, f.vantage);
  std::vector<net::ProbeReply> want;
  for (const net::Probe& p : pool) want.push_back(reference.probe(p));

  constexpr int kThreads = 8;
  std::atomic<std::uint64_t> requests{0};
  std::atomic<int> wrong{0};
  std::vector<std::atomic<bool>> asked(pool.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::size_t next = static_cast<std::size_t>(t) * 7;
      for (int round = 0; round < 200; ++round) {
        const std::size_t n = 1 + (next + round) % 5;
        std::vector<std::size_t> picks;
        for (std::size_t i = 0; i < n; ++i)
          picks.push_back((next + i * 13 + (i % 2) * round) % pool.size());
        picks.push_back(picks.front());  // a duplicate within the wave
        next = (next * 31 + 17) % pool.size();
        std::vector<net::ProbeReply> got;
        if (round % 3 == 0) {
          for (const std::size_t pick : picks)
            got.push_back(cached.probe(pool[pick]));
        } else {
          std::vector<net::Probe> wave;
          for (const std::size_t pick : picks) wave.push_back(pool[pick]);
          got = cached.probe_batch(wave);
        }
        requests.fetch_add(picks.size());
        for (std::size_t i = 0; i < picks.size(); ++i) {
          asked[picks[i]].store(true);
          if (got[i].type != want[picks[i]].type ||
              got[i].responder != want[picks[i]].responder)
            wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(cached.probes_issued(), requests.load());
  EXPECT_EQ(cached.hits() + cached.misses(), requests.load());
  EXPECT_EQ(wire.probes_issued(), cached.misses());
  EXPECT_GT(cached.hits(), 0u);
  return static_cast<std::size_t>(
      std::count_if(asked.begin(), asked.end(),
                    [](const std::atomic<bool>& a) { return a.load(); }));
}

// The CacheHammer cases run under TSan via tools/check.sh.
TEST_F(ProbeEngineTest, CacheHammerMatchesUncachedReplies) {
  SimProbeEngine wire(net, f.vantage);
  CachingProbeEngine cached(wire);
  hammer(f, cached, wire);
}

// Under single flight a thread asking for a probe another thread has out
// waits for its reply, so each distinct probe crosses the wire once. The
// round trip is slow enough that without single flight the threads would
// race on the first probes of the pool.
TEST_F(ProbeEngineTest, CacheHammerSingleFlightSendsEachProbeOnce) {
  sim::NetworkConfig slow;
  slow.wall_rtt_us = 200;
  sim::Network slow_net(f.topo, slow);
  SimProbeEngine wire(slow_net, f.vantage);
  CachingProbeEngine cached(wire, /*single_flight=*/true);
  const std::size_t distinct = hammer(f, cached, wire);
  EXPECT_EQ(wire.probes_issued(), distinct);
}

// A silence the cache does not keep answers the waiters' claim on nothing:
// each waiter then probes the key itself, as it would without single flight.
TEST_F(ProbeEngineTest, CacheHammerSingleFlightReprobesUnkeptSilence) {
  sim::NetworkConfig slow;
  slow.wall_rtt_us = 50;
  sim::Network slow_net(f.topo, slow);
  SimProbeEngine wire(slow_net, f.vantage);
  CachingProbeEngine cached(wire, /*single_flight=*/true);
  cached.set_cache_unresponsive(false);
  const std::size_t distinct = hammer(f, cached, wire);
  EXPECT_GT(wire.probes_issued(), distinct);
}

TEST_F(ProbeEngineTest, RetryBatchReprobesOnlySilentSubset) {
  SimProbeEngine wire(net, f.vantage);
  RetryingProbeEngine retrying(wire, 3);
  const std::vector<net::Probe> wave = {direct_probe(f.pivot3),
                                        direct_probe(ip("192.168.1.9")),
                                        direct_probe(f.pivot4)};
  const auto replies = retrying.probe_batch(wave);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].type, ResponseType::kEchoReply);
  EXPECT_TRUE(replies[1].is_none());
  EXPECT_EQ(replies[2].type, ResponseType::kEchoReply);
  // Responsive probes paid once; only the silent one burned the retry budget.
  EXPECT_EQ(wire.probes_issued(), 3u + 2u);
  EXPECT_EQ(retrying.retries_used(), 2u);
}

TEST_F(ProbeEngineTest, RetryAttemptsClampToTheAttemptOrdinalSpace) {
  // Probe::attempt is a uint8_t fault-draw key: a 257th try would wrap the
  // ordinal back to 0 and re-roll the first probe's fate instead of drawing
  // a fresh one. The constructor must clamp, not wrap.
  SimProbeEngine wire(net, f.vantage);
  RetryingProbeEngine excessive(wire, 1000);
  EXPECT_EQ(excessive.attempts(), 256);
  RetryingProbeEngine none(wire, 0);
  EXPECT_EQ(none.attempts(), 1);
}

TEST_F(ProbeEngineTest, StackedDecorators) {
  SimProbeEngine wire(net, f.vantage);
  RetryingProbeEngine retrying(wire, 2);
  CachingProbeEngine cached(retrying);
  // A silent address costs the retry budget once, then caches the silence.
  cached.direct(ip("192.168.1.9"));
  cached.direct(ip("192.168.1.9"));
  EXPECT_EQ(wire.probes_issued(), 2u);  // 2 attempts, once
  EXPECT_EQ(cached.hits(), 1u);
}

}  // namespace
}  // namespace tn::probe
