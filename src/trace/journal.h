// Flight-recorder event journal: per-probe / per-decision provenance.
//
// The campaign runtime only exposes aggregates (MetricsRegistry), so a wrong
// /29-vs-/30 call is undebuggable after the fact. The journal records one
// JSONL event per interesting decision — trace hops, heuristic verdicts,
// cache hits, retries — into per-target `Recorder` buffers that are merged
// deterministically by (target ordinal, sequence number), exactly like
// `eval::CampaignAccumulator` merges session results. Because session-level
// instrumentation sits on the serial heuristic walk (which PRs 2-4 pinned to
// be schedule- and window-invariant) the merged session journal is
// byte-identical across --jobs and --window for the same (topology, seed,
// fault spec); probe-level events additionally expose the decorator stack's
// wire view, which is reproducible for serial runs at a fixed window but
// intentionally schedule-dependent otherwise (shared-cache hits and retry
// patterns depend on what other workers probed first, and prescan waves are
// the point of windowing).
//
// Cost model: disabled tracing is one null-pointer branch per would-be event
// (every instrumentation point starts with `if (trace::on(rec, level))`).
// Enabled tracing formats each event in place: `Recorder::event` writes the
// line's head straight into a plain std::string owned by exactly one worker,
// each typed appender adds one attribute there (numbers through
// std::to_chars, addresses and prefixes through net's fixed-size
// formatters, trusted words unescaped), and no per-attribute string is
// built. No locks on the hot path; the writer's mutex only guards the rare
// open/drop of whole per-target buffers, and `write` streams the buffers
// without first copying the journal. On the perfbench refs_lossy round
// (4,500 targets, 451,883 session-level events, 41.9 MB) recording costs
// about 0.11 s, 0.23 us per event, against 0.31 s when each site assembled
// an attribute string (docs/TRACING.md, "Cost").
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "net/ipv4.h"
#include "net/prefix.h"

namespace tn::trace {

// How much to record. kSession captures the decision narrative (hops,
// positioning, heuristic verdicts, stop reasons); kProbe additionally
// captures the decorator stack (cache hits/misses, waves, retries).
enum class Level : std::uint8_t { kOff = 0, kSession = 1, kProbe = 2 };

std::string to_string(Level level);
std::optional<Level> parse_level(std::string_view text);

// One journal line under construction. Recorder::event writes its head,
// `{"target":…,"seq":N[,"vt":T],"ev":"type"`; each appender adds one
// `,"key":value` attribute; the destructor closes the line with `}\n`. Keys
// are trusted literals at the call sites. An event writes into its
// recorder's buffer, so a recorder has at most one event open at a time:
// build it after the work it describes, not around it.
class Event {
 public:
  Event(Event&& other) noexcept : out_(other.out_) { other.out_ = nullptr; }
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;
  Event& operator=(Event&&) = delete;
  ~Event() {
    if (out_ != nullptr) out_->append("}\n", 2);
  }

  Event& num(std::string_view key, std::int64_t value);
  Event& flag(std::string_view key, bool value);
  Event& addr(std::string_view key, net::Ipv4Addr value);
  Event& prefix(std::string_view key, const net::Prefix& value);
  // A trusted token, written as is: enum names, heuristic codes, stop
  // reasons — anything whose bytes never need JSON escaping.
  Event& word(std::string_view key, std::string_view value);
  // Any other string: JSON-escaped.
  Event& text(std::string_view key, std::string_view value);

 private:
  friend class Recorder;
  explicit Event(std::string& out) noexcept : out_(&out) {}

  // Appends `,"key":`.
  void put_key(std::string_view key);

  std::string* out_;
};

// One target's event buffer. NOT thread-safe: a recorder is owned by the one
// worker currently running that target's session, which is also what makes
// its bytes deterministic — events land in program order of the serial walk.
class Recorder {
 public:
  // `sim_now`, when given, is a simulated clock to sample (the virtual-time
  // scheduler's VirtualClock, docs/SIMULATION.md): every event then carries
  // a `vt` attribute with the simulated microsecond it was recorded at.
  // Simulated timestamps are schedule-dependent (they observe the shared
  // clock), so like with_timings they are opt-in and absent from the
  // default byte-identical journal.
  Recorder(std::string_view label, Level level, bool with_timings,
           const std::atomic<std::uint64_t>* sim_now = nullptr);

  // True when events of `level` should be recorded.
  bool wants(Level level) const noexcept {
    return level != Level::kOff &&
           static_cast<std::uint8_t>(level) <= static_cast<std::uint8_t>(level_);
  }

  // True when wall-clock fields (inherently non-deterministic) are wanted.
  bool with_timings() const noexcept { return with_timings_; }

  // Starts the next line, `{"target":<label>,"seq":N[,"vt":T],"ev":<type>`,
  // and returns the event that appends its attributes and closes it.
  // `type` is a trusted literal.
  Event event(std::string_view type);

  const std::string& bytes() const noexcept { return buffer_; }
  std::uint64_t events() const noexcept { return seq_; }

 private:
  std::string prefix_;  // precomputed `{"target":"...","seq":`
  std::string buffer_;
  std::uint64_t seq_ = 0;
  Level level_;
  bool with_timings_;
  const std::atomic<std::uint64_t>* sim_now_;
};

// True when `rec` is live and records events of `level`. The whole cost of
// disabled tracing: one branch.
inline bool on(const Recorder* rec, Level level) noexcept {
  return rec != nullptr && rec->wants(level);
}

// Ordinal reserved for the campaign-wide stream (span events); sorts after
// every target so the journal ends with the campaign summary.
inline constexpr std::uint64_t kCampaignOrdinal = ~0ULL;

// Where recorders come from, and the journal they make: one buffer per
// target, merged by (ordinal, seq). Disabled tracing is no writer at all
// (a null pointer), or a writer at Level::kOff, which opens nothing.
class JsonlTraceWriter {
 public:
  // `sim_now` threads a simulated clock into every recorder this writer
  // opens (see Recorder); nullptr records no vt timestamps.
  explicit JsonlTraceWriter(Level level, bool with_timings = false,
                            const std::atomic<std::uint64_t>* sim_now = nullptr);

  Level level() const noexcept { return level_; }

  // Returns the recorder for `ordinal` (creating or replacing it), or
  // nullptr when tracing is off. Thread-safe: workers call it concurrently.
  // The pointer stays valid until the same ordinal is re-opened or dropped.
  Recorder* open(std::uint64_t ordinal, std::string_view label);

  // Discards the buffer opened under `ordinal`, if any: the session the
  // deterministic merge rejected.
  void drop(std::uint64_t ordinal);

  // The merged journal: every live buffer concatenated in ordinal order.
  std::string merged() const;
  // Writes the same bytes as merged() without building that copy: the
  // buffers go out in ordinal order, small ones coalesced into large writes.
  void write(std::ostream& out) const;

 private:
  Level level_;
  bool with_timings_;
  const std::atomic<std::uint64_t>* sim_now_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::unique_ptr<Recorder>> shards_;
};

}  // namespace tn::trace
