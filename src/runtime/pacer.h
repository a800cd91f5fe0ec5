// ProbePacer: wall-clock token bucket bounding the aggregate probe rate.
//
// The simulator's sim::RateLimiter models a *router* suppressing replies on
// virtual time; this is its sender-side cousin, shared by every worker of a
// campaign so the whole process never exceeds the configured probes/second
// however many threads are probing (the politeness knob a distributed
// deployment needs — cf. Donnet et al.'s Doubletree deployment, which paces
// precisely because redundancy elimination concentrates probes at the
// source).
//
// acquire() blocks the calling worker until a token is available; refills
// accrue continuously so the long-run rate converges to `pps` with bursts of
// up to kPacerBurst back-to-back probes after idle periods.
//
// Time comes from a util::Clock (util/clock.h): wall by default, so the
// RawSocketProbeEngine path is untouched, or the virtual-time scheduler
// under --virtual-time so pacing elapses in simulated microseconds instead
// of stalling the simulation with real sleeps. The throttle decisions are a
// pure function of the timestamp sequence the clock serves, so wall and
// virtual pacing behave identically at the same simulated instants (the
// Pacer.WallAndVirtualClocksDecideIdentically test pins this).
#pragma once

#include <cmath>
#include <cstdint>
#include <mutex>

#include "probe/engine.h"
#include "runtime/metrics.h"
#include "util/clock.h"

namespace tn::runtime {

// Back-to-back probes a pacer admits after an idle period: the bucket's
// capacity, and its fill when the pacer starts.
inline constexpr double kPacerBurst = 8.0;

class ProbePacer {
 public:
  // A default-constructed pacer admits everything immediately.
  ProbePacer() = default;

  // Sustained `pps` probes per second, bursts up to kPacerBurst, timed by
  // `clock` (nullptr = the shared wall clock).
  explicit ProbePacer(double pps, util::Clock* clock = nullptr) noexcept
      : clock_(clock != nullptr ? clock : &util::WallClock::instance()),
        rate_(pps > 0.0 ? pps : 0.0),
        enabled_(pps > 0.0) {}

  bool enabled() const noexcept { return enabled_; }

  // Blocks until `n` probes may be sent — a whole wave costs n tokens in a
  // single lock acquisition, not n round trips through the bucket. Waves
  // larger than the burst capacity are admitted once the bucket is full and
  // drive the token count negative, so the debt throttles subsequent waves
  // and the long-run rate still converges to `pps`. Throttle waits are
  // counted so the metrics can answer "did the pacer actually bite".
  void acquire(std::size_t n = 1) {
    if (!enabled_ || n == 0) return;
    const double want = static_cast<double>(n);
    bool counted_wait = false;
    for (;;) {
      double shortfall_s = 0.0;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        const std::uint64_t now_us = clock_->now_us();
        if (primed_ && now_us > last_us_) {
          tokens_ += static_cast<double>(now_us - last_us_) * 1e-6 * rate_;
          if (tokens_ > kPacerBurst) tokens_ = kPacerBurst;
        }
        last_us_ = now_us;
        primed_ = true;
        const double need = want < kPacerBurst ? want : kPacerBurst;
        if (tokens_ >= need) {
          tokens_ -= want;
          return;
        }
        shortfall_s = (need - tokens_) / rate_;
      }
      // One throttled *wave*, however many times the wait loop spins before
      // the wave is admitted (contending workers can steal the refill and
      // force another lap).
      if (!counted_wait) {
        throttle_waits_.fetch_add(1, std::memory_order_relaxed);
        counted_wait = true;
      }
      // Round the wait up so a sub-microsecond shortfall still sleeps (a
      // zero-length lap would busy-spin on a manual or virtual clock).
      const auto wait_us =
          static_cast<std::uint64_t>(std::ceil(shortfall_s * 1e6));
      clock_->sleep_us(wait_us > 0 ? wait_us : 1);
    }
  }

  std::uint64_t throttle_waits() const noexcept {
    return throttle_waits_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex mutex_;
  util::Clock* clock_ = &util::WallClock::instance();
  double rate_ = 0.0;
  double tokens_ = kPacerBurst;
  std::uint64_t last_us_ = 0;
  bool primed_ = false;
  bool enabled_ = false;
  std::atomic<std::uint64_t> throttle_waits_{0};
};

// Decorator applying a (shared) pacer to every probe crossing it. Sits
// directly above the wire engine so cache hits and skipped work are never
// charged against the budget; its own probes_issued() counts paced probes.
// Optional batch instruments, recorded per wave crossing the paced engine:
// waves fired, probes carried by waves, and the in-flight window occupancy
// distribution (wave size). Any may be null.
struct WaveInstruments {
  Counter* waves = nullptr;
  Counter* batched_probes = nullptr;
  Histogram* occupancy = nullptr;
};

class PacedProbeEngine final : public probe::ProbeEngine {
 public:
  // `wire_counter`, when given, mirrors the paced probe count into a
  // metrics registry counter.
  PacedProbeEngine(probe::ProbeEngine& inner, ProbePacer& pacer,
                   Counter* wire_counter = nullptr,
                   WaveInstruments waves = {}) noexcept
      : inner_(inner), pacer_(pacer), wire_counter_(wire_counter),
        waves_(waves) {}

 private:
  net::ProbeReply do_probe(const net::Probe& request) override {
    pacer_.acquire();
    if (wire_counter_ != nullptr) wire_counter_->add();
    return inner_.probe(request);
  }

  std::vector<net::ProbeReply> do_probe_batch(
      std::span<const net::Probe> requests) override {
    pacer_.acquire(requests.size());
    if (wire_counter_ != nullptr) wire_counter_->add(requests.size());
    if (waves_.waves != nullptr) waves_.waves->add();
    if (waves_.batched_probes != nullptr)
      waves_.batched_probes->add(requests.size());
    if (waves_.occupancy != nullptr) waves_.occupancy->record(requests.size());
    return inner_.probe_batch(requests);
  }

  probe::ProbeEngine& inner_;
  ProbePacer& pacer_;
  Counter* wire_counter_;
  WaveInstruments waves_;
};

}  // namespace tn::runtime
