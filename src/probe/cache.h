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
// set). So the table is thread-safe: sharded by key hash, one mutex per
// shard, and the inner engine is probed outside every lock. A session-private
// instance pays a few uncontended locks per probe for that, which is noise
// against the session's own CPU. Replies are assumed stable for the lifetime
// of the cache — the trade Doubletree makes; clear() drops everything.
#pragma once

#include <array>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "probe/engine.h"

namespace tn::probe {

class CachingProbeEngine final : public ProbeEngine {
 public:
  explicit CachingProbeEngine(ProbeEngine& inner) noexcept : inner_(inner) {}

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
    for (Shard& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      shard.replies.clear();
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
  struct Key {
    std::uint32_t target;
    std::uint16_t flow_id;  // ECMP can answer differently per flow
    std::uint8_t ttl;
    std::uint8_t protocol;
    std::uint8_t epoch;  // routing churn: epochs are distinct routing planes
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return std::hash<std::uint64_t>{}(
          ((static_cast<std::uint64_t>(k.target) << 32) |
           (static_cast<std::uint64_t>(k.flow_id) << 16) |
           (static_cast<std::uint64_t>(k.ttl) << 8) | k.protocol) ^
          (static_cast<std::uint64_t>(k.epoch) * 0x9E3779B97F4A7C15ULL));
    }
  };
  struct Shard {
    std::mutex mutex;
    std::unordered_map<Key, net::ProbeReply, KeyHash> replies;
  };

  static constexpr std::size_t kShards = 16;

  static Key key_of(const net::Probe& request) noexcept {
    return Key{request.target.value(), request.flow_id, request.ttl,
               static_cast<std::uint8_t>(request.protocol), request.epoch};
  }

  Shard& shard_of(const Key& key) noexcept {
    return shards_[KeyHash{}(key) % kShards];
  }

  std::optional<net::ProbeReply> lookup(const Key& key) {
    Shard& shard = shard_of(key);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.replies.find(key);
    if (it == shard.replies.end()) return std::nullopt;
    return it->second;
  }

  // Two workers racing on one key probe twice and agree on whichever reply
  // lands last — identical on stable networks.
  void publish(const Key& key, const net::ProbeReply& reply) {
    if (reply.is_none() && !cache_unresponsive()) return;
    Shard& shard = shard_of(key);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.replies.insert_or_assign(key, reply);
  }

  net::ProbeReply do_probe(const net::Probe& request) override {
    const Key key = key_of(request);
    std::optional<net::ProbeReply> reply = lookup(key);
    const bool cached = reply.has_value();
    if (cached) {
      hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Probe outside the shard lock: the wire blocks (pacing, simulator
      // mutex) and holding a shard hostage meanwhile would serialize every
      // worker hashing into it.
      misses_.fetch_add(1, std::memory_order_relaxed);
      reply = inner_.probe(request);
      publish(key, *reply);
    }
    if (trace::on(recorder_, trace::Level::kProbe)) {
      std::string attrs;
      trace::attr_str(attrs, "dst", request.target.to_string());
      trace::attr_num(attrs, "ttl", request.ttl);
      trace::attr_bool(attrs, "cached", cached);
      append_reply_attrs(attrs, *reply);
      recorder_->emit("probe", attrs);
    }
    return *reply;
  }

  // Partitions the wave into hits and misses and forwards only the misses,
  // as one inner wave probed outside every shard lock. A key repeated within
  // the wave is probed once; later occurrences count as hits, exactly as a
  // serial walk would score them.
  std::vector<net::ProbeReply> do_probe_batch(
      std::span<const net::Probe> requests) override {
    std::vector<net::ProbeReply> replies(requests.size());
    std::vector<net::Probe> misses;
    std::vector<std::size_t> miss_request;  // request index per miss
    std::unordered_map<Key, std::size_t, KeyHash> pending;  // key -> miss pos
    std::vector<std::pair<std::size_t, std::size_t>> duplicates;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const Key key = key_of(requests[i]);
      if (const auto it = pending.find(key); it != pending.end()) {
        duplicates.emplace_back(i, it->second);
      } else if (const auto hit = lookup(key)) {
        replies[i] = *hit;
      } else {
        pending.emplace(key, misses.size());
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
        publish(key_of(misses[j]), fresh[j]);
      }
      for (const auto& [request_index, miss_index] : duplicates)
        replies[request_index] = fresh[miss_index];
    }
    if (trace::on(recorder_, trace::Level::kProbe)) {
      std::string attrs;
      trace::attr_num(attrs, "n", static_cast<std::int64_t>(requests.size()));
      trace::attr_num(attrs, "hits",
                      static_cast<std::int64_t>(requests.size() - misses.size()));
      trace::attr_num(attrs, "misses", static_cast<std::int64_t>(misses.size()));
      recorder_->emit("wave", attrs);
    }
    return replies;
  }

  ProbeEngine& inner_;
  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<bool> cache_unresponsive_{true};
  trace::Recorder* recorder_ = nullptr;
};

}  // namespace tn::probe
