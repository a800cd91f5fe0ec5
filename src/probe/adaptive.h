// AdaptiveController: per-session feedback control over windowed probing.
//
// Fixed windows buy wall time with wire probes (BENCH_async_probe: 3291 ->
// 10134 probes from window 1 to 64) because a wide window speculates the full
// prescan whether or not the level needs it. Donnet et al.'s "Efficient Route
// Tracing from a Single Source" argues probing cost should react to what
// earlier probes learned; this controller is that feedback loop for one
// session:
//
//   * window sizing  — grows the in-flight window while waves fill it with
//     probes that actually cross the wire, shrinks it when waves resolve
//     mostly from the session probe cache (speculation is outrunning demand);
//   * prescan budgets — SubnetExplorer::adaptive_prescan spends at most
//     kLevelBudget speculative probes per growth level, and only phase-B
//     follow-ups for candidates phase A proved alive;
//   * pacing — silence from addresses this session has already seen alive is
//     treated as a drop signal (loss or ICMP rate limiting); the controller
//     backs off exponentially between waves and re-opens when replies flow.
//
// Every wave of a session goes out through core::Prober::send, which reads
// the window before each chunk, paces it and observes its replies. Only the
// switch is settable (AdaptivePolicy); the window bounds and the thresholds
// are the named constants below.
//
// Determinism contract (docs/PROBING.md): every input is schedule-invariant.
// Reply outcomes are pure functions of probe content under the fault layer's
// content-keyed draws; the cached-vs-fresh split is measured against the
// *per-worker* local engine (never a shared cache, whose hit pattern depends
// on worker interleaving); and the controller is reset at the start of every
// session run, so no state leaks across targets claimed in schedule-dependent
// order. Controller decisions therefore replay identically across
// --jobs/--window and wall-vs-virtual clocks — and since prescans only warm
// the probe cache while the unchanged serial walk consumes the replies, the
// collected subnets are byte-identical to window 1 however the controller
// behaves. The controller is per-session state driven by one worker; it is
// not thread-safe and never needs to be.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_set>

#include "net/packet.h"
#include "probe/engine.h"
#include "util/clock.h"

namespace tn::probe {

struct AdaptivePolicy {
  // Master switch: SessionConfig copies this struct, so `enabled` is what
  // "--window auto" toggles.
  bool enabled = false;
};

// The feedback loop's window bounds and thresholds (docs/PROBING.md
// "Adaptive policy").
//
// The controller starts every session at kInitialWindow and doubles/halves
// the in-flight window within [kMinWindow, kMaxWindow].
inline constexpr int kInitialWindow = 8;
inline constexpr int kMinWindow = 1;
inline constexpr int kMaxWindow = 64;

// Grow the window when a wave fills at least kGrowOccupancy of it AND at
// most kGrowHitRate of the wave resolved from cache — the session is
// genuinely RTT-bound, so more overlap buys wall time at no wire cost.
inline constexpr double kGrowOccupancy = 0.9;
inline constexpr double kGrowHitRate = 0.5;

// Shrink the window when at least kShrinkHitRate of a wave resolved from
// cache: speculation is outrunning what the serial walk consumes.
inline constexpr double kShrinkHitRate = 0.9;

// Back off (double the inter-wave pause from kBackoffBaseUs, capped at
// kBackoffMaxUs) when at least kBackoffDropRate of a wave's probes were
// silent *to addresses this session already saw alive* — the signature of
// loss or rate limiting, as opposed to the legitimate silence of unused
// addresses. Halve the pause again on every calmer wave.
inline constexpr double kBackoffDropRate = 0.25;
inline constexpr std::uint64_t kBackoffBaseUs = 500;
inline constexpr std::uint64_t kBackoffMaxUs = 16'000;

// Speculative-prescan budget per growth level in SubnetExplorer. When a
// level's budget is spent, the rest of the level falls back to the serial
// walk — slower, never different output.
inline constexpr std::uint32_t kLevelBudget = 96;

class AdaptiveController {
 public:
  // `local_engine` is the engine whose probes_issued() delta tells cached
  // from fresh probes — the per-worker wire scope (nullptr for pure decision
  // tests, which call observe() directly). `clock` is the pacing clock: wall
  // by default, the virtual-time scheduler under --virtual-time.
  explicit AdaptiveController(ProbeEngine* local_engine = nullptr,
                              util::Clock* clock = nullptr) noexcept
      : local_engine_(local_engine),
        clock_(clock != nullptr ? clock : &util::WallClock::instance()) {}

  // Back to the initial state. MUST be called at the start of every session
  // run: carrying window/pause/liveness state across targets would make
  // decisions depend on which targets a worker happened to claim earlier.
  void reset() {
    window_ = kInitialWindow;
    pause_us_ = 0;
    pace_adjustments_ = 0;
    window_resizes_ = 0;
    alive_addrs_.clear();
  }

  int window() const noexcept { return window_; }
  std::uint64_t pause_us() const noexcept { return pause_us_; }

  // Pacing/window decision changes so far this session (`pace.adjustments`
  // and the window half of the same story in the metrics registry).
  std::uint64_t pace_adjustments() const noexcept { return pace_adjustments_; }
  std::uint64_t window_resizes() const noexcept { return window_resizes_; }

  // Blocks on the clock for the current inter-wave pause (no-op while the
  // pause is zero). Callers pace *before* each wave so the backoff decided on
  // wave N delays wave N+1.
  void pace() const {
    if (pause_us_ > 0) clock_->sleep_us(pause_us_);
  }

  // Marks the local engine's wire position before a wave; end_wave() turns
  // the delta into the wave's fresh-probe count.
  std::uint64_t begin_wave() const noexcept {
    return local_engine_ != nullptr ? local_engine_->probes_issued() : 0;
  }

  void end_wave(std::uint64_t mark, std::span<const net::Probe> probes,
                std::span<const net::ProbeReply> replies) {
    const std::uint64_t fresh =
        local_engine_ != nullptr ? local_engine_->probes_issued() - mark : 0;
    observe(probes, replies, fresh);
  }

  // The pure decision step: one wave's probes, their replies, and how many
  // actually reached the local engine (the rest were session-cache hits).
  // Exposed so tests can pin the decision table without any engine.
  void observe(std::span<const net::Probe> probes,
               std::span<const net::ProbeReply> replies, std::uint64_t fresh) {
    const std::size_t sent = probes.size();
    if (sent == 0 || replies.size() != sent) return;

    std::size_t suspected_drops = 0;
    for (std::size_t i = 0; i < sent; ++i) {
      const net::ProbeReply& reply = replies[i];
      if (reply.is_none()) {
        // Silence from an address this session saw alive is loss or rate
        // limiting; silence from a never-seen address is probably an unused
        // address doing what unused addresses do.
        if (alive_addrs_.contains(probes[i].target.value()))
          ++suspected_drops;
        continue;
      }
      if (net::is_alive_reply(probes[i].protocol, reply.type))
        alive_addrs_.insert(probes[i].target.value());
      alive_addrs_.insert(reply.responder.value());
    }

    // Pacing: exponential backoff on drops, fast re-open when replies flow.
    const double drop_rate =
        static_cast<double>(suspected_drops) / static_cast<double>(sent);
    std::uint64_t pause = pause_us_;
    if (drop_rate >= kBackoffDropRate) {
      pause = pause == 0 ? kBackoffBaseUs : std::min(pause * 2, kBackoffMaxUs);
    } else if (pause > 0) {
      pause = pause <= kBackoffBaseUs ? 0 : pause / 2;
    }
    if (pause != pause_us_) {
      pause_us_ = pause;
      ++pace_adjustments_;
    }

    // Window sizing. Hit rate is measured against the per-worker local
    // engine, so it is schedule-invariant; a shared cache's hits are not.
    const std::uint64_t cached = fresh < sent ? sent - fresh : 0;
    const double hit_rate =
        static_cast<double>(cached) / static_cast<double>(sent);
    const double occupancy =
        static_cast<double>(sent) / static_cast<double>(window_);
    int resized = window_;
    if (hit_rate >= kShrinkHitRate) {
      resized = std::max(kMinWindow, window_ / 2);
    } else if (occupancy >= kGrowOccupancy && hit_rate <= kGrowHitRate) {
      resized = std::min(kMaxWindow, window_ * 2);
    }
    if (resized != window_) {
      window_ = resized;
      ++window_resizes_;
    }
  }

 private:
  ProbeEngine* local_engine_ = nullptr;
  util::Clock* clock_ = nullptr;

  int window_ = kInitialWindow;
  std::uint64_t pause_us_ = 0;
  std::uint64_t pace_adjustments_ = 0;
  std::uint64_t window_resizes_ = 0;
  // Addresses seen alive this session: targets of alive replies plus every
  // responder. Purely content-derived, so schedule-invariant.
  std::unordered_set<std::uint32_t> alive_addrs_;
};

}  // namespace tn::probe
