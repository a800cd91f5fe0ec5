// Spans and timers of the traced run, recorded from the benchmark's own
// code around each call it makes into a layer's public functions (the
// program itself carries no spans yet). Spans stay in memory and are written
// out as JSONL when the run ends.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "probe/engine.h"

namespace perfbench {

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU seconds of the whole process (every thread).
inline double process_cpu_s() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // the campaign the span belongs to
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  // Opens a span; ids start at 1 so 0 can mean "no parent".
  std::uint32_t open(std::string name, std::uint32_t parent,
                     std::uint64_t request) {
    Span span;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.request = request;
    span.name = std::move(name);
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }
  void close(std::uint32_t id) { spans_.at(id - 1).end_ns = now_ns(); }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  // Per span name: total seconds, and self seconds (duration minus the part
  // its child spans cover).
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Totals> totals() const {
    std::vector<std::int64_t> child_ns(spans_.size() + 1, 0);
    for (const Span& span : spans_)
      if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
    std::map<std::string, Totals> out;
    for (const Span& span : spans_) {
      Totals& t = out[span.name];
      const std::int64_t duration = span.end_ns - span.start_ns;
      t.total_s += static_cast<double>(duration) * 1e-9;
      t.self_s += static_cast<double>(duration - child_ns[span.id]) * 1e-9;
      ++t.count;
    }
    return out;
  }

  void write_jsonl(std::ostream& out) const {
    for (const Span& span : spans_)
      out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
          << ",\"request\":" << span.request << ",\"name\":\"" << span.name
          << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
          << "}\n";
  }

 private:
  std::vector<Span> spans_;
};

// Opens a span for the enclosing scope; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::uint32_t parent = 0,
             std::uint64_t request = 0)
      : log_(log),
        id_(log != nullptr ? log->open(std::move(name), parent, request) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  std::uint32_t id_;
};

// Pass-through decorator that times every call into the engine below it and
// keeps the probes it forwarded, in the repo's decorator idiom
// (probe::ForwardingProbeEngine). A session built on top of it splits its
// run time into time spent in the wire engine and its own.
class TimingProbeEngine final : public tn::probe::ProbeEngine {
 public:
  explicit TimingProbeEngine(tn::probe::ProbeEngine& inner) noexcept
      : inner_(inner) {}

  std::int64_t busy_ns() const noexcept { return busy_ns_; }
  const std::vector<tn::net::Probe>& kept() const noexcept { return kept_; }

 private:
  tn::net::ProbeReply do_probe(const tn::net::Probe& request) override {
    kept_.push_back(request);
    const std::int64_t started = now_ns();
    tn::net::ProbeReply reply = inner_.probe(request);
    busy_ns_ += now_ns() - started;
    return reply;
  }

  std::vector<tn::net::ProbeReply> do_probe_batch(
      std::span<const tn::net::Probe> requests) override {
    kept_.insert(kept_.end(), requests.begin(), requests.end());
    const std::int64_t started = now_ns();
    std::vector<tn::net::ProbeReply> replies = inner_.probe_batch(requests);
    busy_ns_ += now_ns() - started;
    return replies;
  }

  tn::probe::ProbeEngine& inner_;
  std::int64_t busy_ns_ = 0;
  std::vector<tn::net::Probe> kept_;
};

}  // namespace perfbench
