// RetryingProbeEngine: re-probes on silence.
//
// §3.8: "In our implementation we re-probe an IP address if we do not get a
// response for the first probe."  Silence on the real Internet is often loss
// rather than unresponsiveness; in the simulator it can be rate limiting or
// injected probe loss (sim/faults.h). Each retry goes out with a bumped
// Probe::attempt ordinal so the simulator rolls it an independent fate, the
// way a fresh packet would dodge the loss that ate its predecessor.
#pragma once

#include <algorithm>
#include <atomic>
#include <vector>

#include "probe/engine.h"

namespace tn::probe {

class RetryingProbeEngine final : public ProbeEngine {
 public:
  // `attempts` is the total tries per probe (first probe + retries), clamped
  // to [1, 256]. The upper clamp matters: Probe::attempt is a uint8_t
  // fault-draw key, so more than 256 tries would wrap the ordinal and re-roll
  // fates already drawn — retry 256 would collide with the first probe.
  RetryingProbeEngine(ProbeEngine& inner, int attempts = 2) noexcept
      : inner_(inner), attempts_(std::clamp(attempts, 1, 256)) {}

  // Re-probes sent so far. A relaxed atomic: the engine is usually
  // per-session, but nothing stops callers from stacking one engine under
  // several campaign workers.
  std::uint64_t retries_used() const noexcept {
    return retries_.load(std::memory_order_relaxed);
  }
  int attempts() const noexcept { return attempts_; }

  // Journal destination for probe-level retry events. Owned by the session
  // currently above this engine; may be nullptr (tracing off).
  void set_recorder(trace::Recorder* recorder) noexcept {
    recorder_ = recorder;
  }

 private:
  void trace_retry(const net::Probe& probe, const net::ProbeReply& reply) {
    if (!trace::on(recorder_, trace::Level::kProbe)) return;
    trace::Event event = recorder_->event("retry");
    append_reply_attrs(event.addr("dst", probe.target)
                           .num("ttl", probe.ttl)
                           .num("attempt", probe.attempt),
                       reply);
  }

  net::ProbeReply do_probe(const net::Probe& request) override {
    net::ProbeReply reply = inner_.probe(request);
    for (int attempt = 1; attempt < attempts_ && reply.is_none(); ++attempt) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      net::Probe again = request;
      again.attempt = static_cast<std::uint8_t>(attempt);
      reply = inner_.probe(again);
      trace_retry(again, reply);
    }
    return reply;
  }

  // The whole wave goes out once; only the silent subset is re-probed, as a
  // smaller second wave, up to the attempt count. Per-probe attempt counts
  // and attempt ordinals match the serial path exactly.
  std::vector<net::ProbeReply> do_probe_batch(
      std::span<const net::Probe> requests) override {
    std::vector<net::ProbeReply> replies = inner_.probe_batch(requests);
    for (int attempt = 1; attempt < attempts_; ++attempt) {
      std::vector<net::Probe> again;
      std::vector<std::size_t> again_request;
      for (std::size_t i = 0; i < replies.size(); ++i) {
        if (!replies[i].is_none()) continue;
        net::Probe retry = requests[i];
        retry.attempt = static_cast<std::uint8_t>(attempt);
        again.push_back(retry);
        again_request.push_back(i);
      }
      if (again.empty()) break;
      retries_.fetch_add(again.size(), std::memory_order_relaxed);
      const std::vector<net::ProbeReply> fresh = inner_.probe_batch(again);
      for (std::size_t j = 0; j < again.size(); ++j) {
        replies[again_request[j]] = fresh[j];
        trace_retry(again[j], fresh[j]);
      }
    }
    return replies;
  }

  ProbeEngine& inner_;
  const int attempts_;
  std::atomic<std::uint64_t> retries_{0};
  trace::Recorder* recorder_ = nullptr;
};

}  // namespace tn::probe
