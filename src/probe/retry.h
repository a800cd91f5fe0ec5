// RetryingProbeEngine: re-probes on silence.
//
// §3.8: "In our implementation we re-probe an IP address if we do not get a
// response for the first probe."  Silence on the real Internet is often loss
// rather than unresponsiveness; in the simulator it can be rate limiting or
// injected probe loss (sim/faults.h). Each retry goes out with a bumped
// Probe::attempt ordinal so the simulator rolls it an independent fate, the
// way a fresh packet would dodge the loss that ate its predecessor.
#pragma once

#include <atomic>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "probe/engine.h"
#include "util/clock.h"

namespace tn::probe {

// Growth of the retry backoff per further retry (RetryConfig).
inline constexpr double kBackoffMultiplier = 2.0;

struct RetryConfig {
  // Total tries per probe (first probe + retries); clamped to [1, 256].
  // The upper clamp matters: Probe::attempt is a uint8_t fault-draw key, so
  // more than 256 tries would wrap the ordinal and re-roll fates already
  // drawn — retry 256 would collide with the first probe.
  int attempts = 2;

  // Exponential backoff between tries: sleep backoff_base_us before retry 1,
  // then multiply by kBackoffMultiplier per further retry, capped at
  // backoff_max_us. 0 base (the default) disables sleeping entirely, which
  // keeps simulator runs instant; live engines set a real base to ride out
  // transient congestion and rate-limiting windows.
  std::uint64_t backoff_base_us = 0;
  std::uint64_t backoff_max_us = 1'000'000;

  // Lifetime cap on retries charged to one target address, across all its
  // probes through this engine (0 = unlimited). Keeps a black-holed or
  // heavily rate-limited target from consuming attempts_-1 extra probes on
  // every single TTL of every trace sent its way.
  std::uint64_t per_target_budget = 0;

  // Clock the backoff sleeps elapse on: wall by default, the virtual-time
  // scheduler under --virtual-time (the same seam ProbePacer uses). A wall
  // sleep here would stall a simulation whose clock only advances while
  // every worker is blocked on it.
  util::Clock* clock = nullptr;
};

class RetryingProbeEngine final : public ProbeEngine {
 public:
  RetryingProbeEngine(ProbeEngine& inner, RetryConfig config) noexcept
      : inner_(inner), config_(config) {
    if (config_.attempts < 1) config_.attempts = 1;
    if (config_.attempts > 256) config_.attempts = 256;
    if (config_.clock == nullptr) config_.clock = &util::WallClock::instance();
  }
  RetryingProbeEngine(ProbeEngine& inner, int attempts = 2) noexcept
      : RetryingProbeEngine(inner, RetryConfig{.attempts = attempts}) {}

  std::uint64_t retries_used() const noexcept {
    return retries_.load(std::memory_order_relaxed);
  }
  const RetryConfig& config() const noexcept { return config_; }

  // Journal destination for probe-level retry events. Owned by the session
  // currently above this engine; may be nullptr (tracing off).
  void set_recorder(trace::Recorder* recorder) noexcept {
    recorder_ = recorder;
  }

 private:
  // Whether target may still be charged a retry; charges it when yes. The
  // budget map and total live behind a mutex / relaxed atomic: the engine is
  // usually per-session, but nothing stops callers from stacking one engine
  // under several campaign workers, and the retry path is rare enough that a
  // lock costs nothing measurable.
  bool charge_retry(net::Ipv4Addr target) {
    if (config_.per_target_budget != 0) {
      const std::lock_guard<std::mutex> lock(budget_mutex_);
      std::uint64_t& used = per_target_retries_[target.value()];
      if (used >= config_.per_target_budget) return false;
      ++used;
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  void backoff(int retry_number) const {
    if (config_.backoff_base_us == 0) return;
    double us = static_cast<double>(config_.backoff_base_us);
    for (int i = 1; i < retry_number; ++i) us *= kBackoffMultiplier;
    const auto capped = static_cast<std::uint64_t>(
        us < static_cast<double>(config_.backoff_max_us)
            ? us
            : static_cast<double>(config_.backoff_max_us));
    config_.clock->sleep_us(capped);
  }

  void trace_retry(const net::Probe& probe, const net::ProbeReply& reply) {
    if (!trace::on(recorder_, trace::Level::kProbe)) return;
    trace::Event event = recorder_->event("retry");
    append_reply_attrs(event.addr("dst", probe.target)
                           .num("ttl", probe.ttl)
                           .num("attempt", probe.attempt),
                       reply);
  }

  void trace_retry_stop(const net::Probe& probe) {
    if (!trace::on(recorder_, trace::Level::kProbe)) return;
    recorder_->event("retry_stop")
        .addr("dst", probe.target)
        .num("ttl", probe.ttl);
  }

  net::ProbeReply do_probe(const net::Probe& request) override {
    net::ProbeReply reply = inner_.probe(request);
    for (int attempt = 1; attempt < config_.attempts && reply.is_none();
         ++attempt) {
      if (!charge_retry(request.target)) {
        trace_retry_stop(request);
        break;
      }
      backoff(attempt);
      net::Probe again = request;
      again.attempt = static_cast<std::uint8_t>(attempt);
      reply = inner_.probe(again);
      trace_retry(again, reply);
    }
    return reply;
  }

  // The whole wave goes out once; only the silent subset is re-probed, as a
  // smaller second wave, up to the attempt budget. Per-probe attempt counts
  // and attempt ordinals match the serial path exactly.
  std::vector<net::ProbeReply> do_probe_batch(
      std::span<const net::Probe> requests) override {
    std::vector<net::ProbeReply> replies = inner_.probe_batch(requests);
    for (int attempt = 1; attempt < config_.attempts; ++attempt) {
      std::vector<net::Probe> again;
      std::vector<std::size_t> again_request;
      for (std::size_t i = 0; i < replies.size(); ++i) {
        if (!replies[i].is_none()) continue;
        if (!charge_retry(requests[i].target)) {
          trace_retry_stop(requests[i]);
          continue;
        }
        net::Probe retry = requests[i];
        retry.attempt = static_cast<std::uint8_t>(attempt);
        again.push_back(retry);
        again_request.push_back(i);
      }
      if (again.empty()) break;
      backoff(attempt);
      const std::vector<net::ProbeReply> fresh = inner_.probe_batch(again);
      for (std::size_t j = 0; j < again.size(); ++j) {
        replies[again_request[j]] = fresh[j];
        trace_retry(again[j], fresh[j]);
      }
    }
    return replies;
  }

  ProbeEngine& inner_;
  RetryConfig config_;
  std::atomic<std::uint64_t> retries_{0};
  std::mutex budget_mutex_;
  std::unordered_map<std::uint32_t, std::uint64_t> per_target_retries_;
  trace::Recorder* recorder_ = nullptr;
};

}  // namespace tn::probe
