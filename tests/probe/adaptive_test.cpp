// AdaptiveController decision table (docs/PROBING.md, "Adaptive policy").
// observe() is a pure function of one wave's (probes, replies, fresh-count)
// plus controller state, so every rule is pinned here without any engine or
// network: window growth/shrink/hold, drop-signal pacing, and reset.
#include "probe/adaptive.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/packet.h"
#include "util/clock.h"

namespace tn::probe {
namespace {

net::Probe probe_to(std::uint32_t target) {
  net::Probe probe;
  probe.target = net::Ipv4Addr(target);
  return probe;
}

net::ProbeReply echo_from(std::uint32_t responder) {
  net::ProbeReply reply;
  reply.type = net::ResponseType::kEchoReply;
  reply.responder = net::Ipv4Addr(responder);
  return reply;
}

net::ProbeReply ttl_exceeded_from(std::uint32_t responder) {
  net::ProbeReply reply;
  reply.type = net::ResponseType::kTtlExceeded;
  reply.responder = net::Ipv4Addr(responder);
  return reply;
}

// A wave of `n` distinct probes starting at `base`, answered per `replies`.
std::vector<net::Probe> wave_of(std::uint32_t base, std::size_t n) {
  std::vector<net::Probe> wave;
  for (std::size_t i = 0; i < n; ++i)
    wave.push_back(probe_to(base + static_cast<std::uint32_t>(i)));
  return wave;
}

std::vector<net::ProbeReply> all_echo(std::uint32_t base, std::size_t n) {
  std::vector<net::ProbeReply> replies;
  for (std::size_t i = 0; i < n; ++i)
    replies.push_back(echo_from(base + static_cast<std::uint32_t>(i)));
  return replies;
}

std::vector<net::ProbeReply> all_silent(std::size_t n) {
  return std::vector<net::ProbeReply>(n, net::ProbeReply::none());
}

TEST(AdaptiveController, GrowsWhileWavesFillTheWindowWithFreshProbes) {
  AdaptiveController ctrl;  // kInitialWindow 8, kMaxWindow 64
  std::vector<int> windows;
  for (int wave = 0; wave < 4; ++wave) {
    const std::size_t n = static_cast<std::size_t>(ctrl.window());
    ctrl.observe(wave_of(0x0A000000, n), all_echo(0x0A000000, n),
                 /*fresh=*/n);
    windows.push_back(ctrl.window());
  }
  EXPECT_EQ(windows, (std::vector<int>{16, 32, 64, 64}));  // max-clamped
  EXPECT_EQ(ctrl.window_resizes(), 3u);
}

TEST(AdaptiveController, ShrinksWhenWavesResolveFromCache) {
  AdaptiveController ctrl;  // kInitialWindow 8, kMinWindow 1
  std::vector<int> windows;
  for (int wave = 0; wave < 5; ++wave) {
    const std::size_t n = static_cast<std::size_t>(ctrl.window());
    // Every probe answered out of the session cache: fresh = 0.
    ctrl.observe(wave_of(0x0A000000, n), all_echo(0x0A000000, n),
                 /*fresh=*/0);
    windows.push_back(ctrl.window());
  }
  EXPECT_EQ(windows, (std::vector<int>{4, 2, 1, 1, 1}));  // min-clamped
  EXPECT_EQ(ctrl.window_resizes(), 3u);
}

TEST(AdaptiveController, HoldsOnPartialOrMixedWaves) {
  AdaptiveController ctrl;  // grow needs occupancy >= 0.9
  // Half-full wave, all fresh: not RTT-bound evidence, hold.
  ctrl.observe(wave_of(0x0A000000, 4), all_echo(0x0A000000, 4), 4);
  EXPECT_EQ(ctrl.window(), 8);
  // Full wave but a mid hit rate (5/8 cached, between grow 0.5 and
  // shrink 0.9): hold.
  ctrl.observe(wave_of(0x0A000000, 8), all_echo(0x0A000000, 8), 3);
  EXPECT_EQ(ctrl.window(), 8);
  EXPECT_EQ(ctrl.window_resizes(), 0u);
}

TEST(AdaptiveController, BacksOffOnlyOnSilenceFromKnownAliveAddresses) {
  util::ManualClock clock;
  AdaptiveController ctrl(nullptr, &clock);
  const auto probes = wave_of(0x0A000000, 4);

  // Silence from never-seen addresses is unused space, not a drop signal.
  ctrl.observe(probes, all_silent(4), 4);
  EXPECT_EQ(ctrl.pause_us(), 0u);

  // The addresses answer: they are now known alive.
  ctrl.observe(probes, all_echo(0x0A000000, 4), 4);
  EXPECT_EQ(ctrl.pause_us(), 0u);

  // Silence from them again is loss/rate limiting: exponential backoff...
  std::vector<std::uint64_t> pauses;
  for (int wave = 0; wave < 7; ++wave) {
    ctrl.observe(probes, all_silent(4), 4);
    pauses.push_back(ctrl.pause_us());
  }
  EXPECT_EQ(pauses, (std::vector<std::uint64_t>{500, 1000, 2000, 4000, 8000,
                                                16000, 16000}));  // capped

  // pace() burns the pause on the injected clock, before the next wave.
  ctrl.pace();
  EXPECT_EQ(clock.now_us(), 16000u);

  // ...and calm waves reopen: halve until at the base, then drop to zero.
  std::vector<std::uint64_t> reopening;
  for (int wave = 0; wave < 7; ++wave) {
    ctrl.observe(probes, all_echo(0x0A000000, 4), 4);
    reopening.push_back(ctrl.pause_us());
  }
  EXPECT_EQ(reopening, (std::vector<std::uint64_t>{8000, 4000, 2000, 1000, 500,
                                                   0, 0}));
  // Every pause *change* above counted as one adjustment: 6 up + 6 down.
  EXPECT_EQ(ctrl.pace_adjustments(), 12u);
  ctrl.pace();
  EXPECT_EQ(clock.now_us(), 16000u);  // open pacing sleeps nothing
}

TEST(AdaptiveController, TtlExceededResponderCountsAsAlive) {
  AdaptiveController ctrl;
  // A TTL-exceeded reply does not prove the *target* alive, but the
  // responding router is an address that demonstrably answers.
  ctrl.observe(wave_of(0x0A000000, 4),
               std::vector<net::ProbeReply>(4, ttl_exceeded_from(0x0B000001)),
               4);
  // Silence from the router's address now reads as drops; silence from the
  // original targets still does not.
  const auto to_router = std::vector<net::Probe>(4, probe_to(0x0B000001));
  ctrl.observe(to_router, all_silent(4), 4);
  EXPECT_EQ(ctrl.pause_us(), 500u);

  AdaptiveController fresh_ctrl;
  fresh_ctrl.observe(wave_of(0x0A000000, 4),
                     std::vector<net::ProbeReply>(4,
                                                  ttl_exceeded_from(0x0B000001)),
                     4);
  fresh_ctrl.observe(wave_of(0x0A000000, 4), all_silent(4), 4);
  EXPECT_EQ(fresh_ctrl.pause_us(), 0u);
}

TEST(AdaptiveController, ResetRestoresTheInitialState) {
  AdaptiveController ctrl;
  const auto probes = wave_of(0x0A000000, 8);
  ctrl.observe(probes, all_echo(0x0A000000, 8), 8);   // grow to 16
  ctrl.observe(probes, all_silent(8), 8);             // drop signal: pause
  ASSERT_NE(ctrl.window(), 8);
  ASSERT_NE(ctrl.pause_us(), 0u);

  ctrl.reset();
  EXPECT_EQ(ctrl.window(), 8);
  EXPECT_EQ(ctrl.pause_us(), 0u);
  EXPECT_EQ(ctrl.pace_adjustments(), 0u);
  EXPECT_EQ(ctrl.window_resizes(), 0u);
  // The liveness set was cleared too: silence from the old addresses is
  // back to being unused space.
  ctrl.observe(probes, all_silent(8), 8);
  EXPECT_EQ(ctrl.pause_us(), 0u);
}

TEST(AdaptiveController, IgnoresEmptyOrMismatchedWaves) {
  AdaptiveController ctrl;
  ctrl.observe({}, {}, 0);
  ctrl.observe(wave_of(0x0A000000, 4), all_echo(0x0A000000, 2), 4);
  EXPECT_EQ(ctrl.window(), 8);
  EXPECT_EQ(ctrl.pause_us(), 0u);
  EXPECT_EQ(ctrl.window_resizes(), 0u);
  EXPECT_EQ(ctrl.pace_adjustments(), 0u);
}

}  // namespace
}  // namespace tn::probe
