// CachingProbeEngine: memoizes replies per (target, flow, ttl, protocol,
// epoch).
//
// §3.5 notes the real tracenet "is optimized to collect the subnets with the
// least number of probes and some of the rules are merged together": several
// heuristics re-issue identical probes (H2's <l, jh> is H7's <mate31(l'), jh>
// for l = mate31(l'), the H3/H6 probe <l, jh-1> is shared, ...).  Responses
// on the timescale of one subnet exploration are stable, so a small cache
// recovers the paper's probe-count optimization without entangling the
// heuristic implementations.
//
// The concurrent campaign runtime also puts one instance under all of its
// workers: most redundancy there is *across* sessions, since every trace
// toward the same ISP re-walks the same first hops and re-tests the same
// infrastructure subnets (the observation behind Doubletree's shared stop
// set). So the table is thread-safe: one flat open-addressing ReplyTable
// (probe/reply_table.h) under one mutex, and the inner engine is probed
// outside the lock. A session-private instance takes that lock uncontended.
// Replies are assumed stable for the lifetime of the cache — the trade
// Doubletree makes; clear() drops everything.
//
// With single flight on, a caller claims the keys it is about to probe, and
// a caller asking for a claimed key waits for that reply instead of probing
// it again: the wire sees each distinct probe once, however the callers
// interleave. A caller only waits while it holds no claim of its own, and
// a claim's holder only waits on the wire, so callers cannot wait on each
// other in a cycle.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "probe/engine.h"
#include "probe/reply_table.h"
#include "util/flat_table.h"

namespace tn::probe {

class CachingProbeEngine final : public ProbeEngine {
 public:
  // `single_flight` is for a cache several threads probe through at once,
  // and only where a caller may block on another's probe: not under the
  // virtual-time scheduler, whose clock stalls while a registered worker
  // waits on anything but the clock (sim/vtime/scheduler.h).
  explicit CachingProbeEngine(ProbeEngine& inner,
                              bool single_flight = false) noexcept
      : inner_(inner), single_flight_(single_flight) {}

  std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }

  // Whether silence (kNone) is memoized. On a clean network silence means
  // "genuinely unresponsive" and caching it saves probes; under loss or rate
  // limiting it is often transient, and a cached kNone would turn one lost
  // probe into a permanently dead address for the rest of the session — or,
  // in the campaign-wide cache, for every other session. Safe to flip at any
  // time; in practice it is set before probing starts.
  void set_cache_unresponsive(bool cache) noexcept {
    cache_unresponsive_.store(cache, std::memory_order_relaxed);
  }
  bool cache_unresponsive() const noexcept {
    return cache_unresponsive_.load(std::memory_order_relaxed);
  }

  // Forget everything, hit/miss counters included, so per-phase statistics
  // read between clears agree with the MetricsRegistry's per-phase counters.
  // Only meaningful while nothing is probing through this engine.
  void clear() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      replies_.clear();
    }
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
  }

  // Journal destination for probe-level events. The recorder belongs to the
  // session currently running on top of this (per-worker) engine; sessions
  // swap it per target. May be nullptr (tracing off), and stays so on the
  // campaign-wide instance, whose events would interleave sessions.
  void set_recorder(trace::Recorder* recorder) noexcept {
    recorder_ = recorder;
  }

 private:
  // A key already missed in the current wave, and its place among the
  // wave's misses.
  struct WaveMiss {
    using Key = ReplyKey;

    ReplyKey probe;
    std::uint32_t index = 0;
    bool used = false;

    bool empty() const noexcept { return !used; }
    ReplyKey key() const noexcept { return probe; }
    static std::uint64_t hash(const ReplyKey& key) noexcept {
      return key.hash();
    }
  };

  std::optional<net::ProbeReply> lookup(const ReplyKey& key) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const ReplySlot* slot = replies_.find(key);
    if (slot == nullptr) return std::nullopt;
    return slot->reply();
  }

  // Without single flight, two workers racing on one key probe twice and
  // agree on whichever reply lands last — identical on stable networks.
  void publish(const ReplyKey& key, const net::ProbeReply& reply) {
    if (reply.is_none() && !cache_unresponsive()) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    replies_.insert_or_assign(ReplySlot::of(key, reply));
  }

  net::ProbeReply do_probe(const net::Probe& request) override {
    if (!single_flight_) return probe_one(request);
    const ReplyKey key = ReplyKey::of(request);
    bool claimed_here = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      landed_.wait(lock, [&] { return !claimed(key); });
      if (replies_.find(key) == nullptr) {
        in_flight_.push_back(key);
        claimed_here = true;
      }
    }
    const net::ProbeReply reply = probe_one(request);
    if (claimed_here) release({&key, 1});
    return reply;
  }

  // Single flight over a wave: claims the keys that are neither memoized nor
  // claimed, and sends the wave through probe_wave(), which probes exactly
  // those keys, once each, and memoizes them; then drops the claims. The
  // requests for keys other callers hold wait, with no claim held, until
  // those probes land, and then go as a wave of their own: hits by then,
  // unless the reply was a silence the cache does not keep.
  std::vector<net::ProbeReply> do_probe_batch(
      std::span<const net::Probe> requests) override {
    if (!single_flight_) return probe_wave(requests);
    std::vector<net::Probe> wave;
    std::vector<std::size_t> wave_request;  // request index per wave probe
    std::vector<std::size_t> awaited;       // requests other callers hold
    std::vector<ReplyKey> claims;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      // Claims before `mine` are other callers'; this wave's follow.
      const auto held = [&](auto from, auto to, const ReplyKey& key) {
        return std::find(from, to, key) != to;
      };
      const std::size_t mine = in_flight_.size();
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const ReplyKey key = ReplyKey::of(requests[i]);
        if (held(in_flight_.begin(), in_flight_.begin() + mine, key)) {
          awaited.push_back(i);
          continue;
        }
        if (replies_.find(key) == nullptr &&
            !held(in_flight_.begin() + mine, in_flight_.end(), key))
          in_flight_.push_back(key);
        wave.push_back(requests[i]);
        wave_request.push_back(i);
      }
      claims.assign(in_flight_.begin() + mine, in_flight_.end());
    }
    std::vector<net::ProbeReply> replies(requests.size());
    if (!wave.empty()) {
      const std::vector<net::ProbeReply> sent = probe_wave(wave);
      for (std::size_t j = 0; j < wave.size(); ++j)
        replies[wave_request[j]] = sent[j];
    }
    if (!claims.empty()) release(claims);
    if (!awaited.empty()) {
      std::vector<net::Probe> later;
      for (const std::size_t i : awaited) later.push_back(requests[i]);
      {
        std::unique_lock<std::mutex> lock(mutex_);
        landed_.wait(lock, [&] {
          return std::none_of(later.begin(), later.end(),
                              [&](const net::Probe& probe) {
                                return claimed(ReplyKey::of(probe));
                              });
        });
      }
      const std::vector<net::ProbeReply> resolved = do_probe_batch(later);
      for (std::size_t j = 0; j < awaited.size(); ++j)
        replies[awaited[j]] = resolved[j];
    }
    return replies;
  }

  // Single flight's bookkeeping: whether a caller holds `key`, and dropping
  // a caller's claims once their replies are memoized.
  bool claimed(const ReplyKey& key) const {
    return std::find(in_flight_.begin(), in_flight_.end(), key) !=
           in_flight_.end();
  }
  void release(std::span<const ReplyKey> claims) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (const ReplyKey& key : claims) {
        *std::find(in_flight_.begin(), in_flight_.end(), key) =
            in_flight_.back();
        in_flight_.pop_back();
      }
    }
    landed_.notify_all();
  }

  // The plain paths, which single flight wraps: look up, probe the misses
  // outside the lock, memoize.
  net::ProbeReply probe_one(const net::Probe& request) {
    const ReplyKey key = ReplyKey::of(request);
    std::optional<net::ProbeReply> reply = lookup(key);
    const bool cached = reply.has_value();
    if (cached) {
      hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Probe outside the lock: the wire blocks (pacing, simulator mutex)
      // and holding the table meanwhile would serialize every worker.
      misses_.fetch_add(1, std::memory_order_relaxed);
      reply = inner_.probe(request);
      publish(key, *reply);
    }
    if (trace::on(recorder_, trace::Level::kProbe)) {
      trace::Event event = recorder_->event("probe");
      append_reply_attrs(event.addr("dst", request.target)
                             .num("ttl", request.ttl)
                             .flag("cached", cached),
                         *reply);
    }
    return *reply;
  }

  // Partitions the wave into hits and misses and forwards only the misses,
  // as one inner wave probed outside the lock. A key repeated within
  // the wave is probed once; later occurrences count as hits, exactly as a
  // serial walk would score them.
  std::vector<net::ProbeReply> probe_wave(
      std::span<const net::Probe> requests) {
    std::vector<net::ProbeReply> replies(requests.size());
    std::vector<net::Probe> misses;
    std::vector<std::size_t> miss_request;  // request index per miss
    util::FlatTable<WaveMiss, 50> pending;
    std::vector<std::pair<std::size_t, std::size_t>> duplicates;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const ReplyKey key = ReplyKey::of(requests[i]);
      if (const WaveMiss* seen = pending.find(key)) {
        duplicates.emplace_back(i, seen->index);
      } else if (const auto hit = lookup(key)) {
        replies[i] = *hit;
      } else {
        pending.insert_or_assign(
            WaveMiss{key, static_cast<std::uint32_t>(misses.size()), true});
        miss_request.push_back(i);
        misses.push_back(requests[i]);
      }
    }
    hits_.fetch_add(requests.size() - misses.size(), std::memory_order_relaxed);
    misses_.fetch_add(misses.size(), std::memory_order_relaxed);
    if (!misses.empty()) {
      const std::vector<net::ProbeReply> fresh = inner_.probe_batch(misses);
      for (std::size_t j = 0; j < misses.size(); ++j) {
        replies[miss_request[j]] = fresh[j];
        publish(ReplyKey::of(misses[j]), fresh[j]);
      }
      for (const auto& [request_index, miss_index] : duplicates)
        replies[request_index] = fresh[miss_index];
    }
    if (trace::on(recorder_, trace::Level::kProbe))
      recorder_->event("wave")
          .num("n", static_cast<std::int64_t>(requests.size()))
          .num("hits",
               static_cast<std::int64_t>(requests.size() - misses.size()))
          .num("misses", static_cast<std::int64_t>(misses.size()));
    return replies;
  }

  ProbeEngine& inner_;
  const bool single_flight_;
  std::mutex mutex_;
  ReplyTable replies_;  // guarded by mutex_
  // Keys whose probe some caller has out, under single flight: at most the
  // misses of one wave per caller. Guarded by mutex_; landed_ signals each
  // release.
  std::vector<ReplyKey> in_flight_;
  std::condition_variable landed_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<bool> cache_unresponsive_{true};
  trace::Recorder* recorder_ = nullptr;
};

}  // namespace tn::probe
