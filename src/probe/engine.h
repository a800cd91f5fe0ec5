// ProbeEngine: the single seam between the tracenet algorithm and a network.
//
// Everything above this interface (trace collection, subnet positioning,
// subnet exploration, the heuristics) is network-agnostic: it issues probes
// and inspects replies.  Implementations:
//   * SimProbeEngine     — probes the in-process simulator (experiments, tests)
//   * RawSocketProbeEngine — probes the live Internet over raw ICMP sockets
//   * CachingProbeEngine / RetryingProbeEngine — stacking decorators; the
//     caching one is thread-safe, so a campaign's workers can share one
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "net/ipv4.h"
#include "net/packet.h"
#include "trace/journal.h"

namespace tn::probe {

// Appends the journal attributes describing `reply` to `event`: its response
// type, and the responder address when there is one. Shared by every
// instrumented layer that logs a reply (decorators, trace collection).
inline void append_reply_attrs(trace::Event& event,
                               const net::ProbeReply& reply) {
  event.word("reply", net::to_string(reply.type));
  if (!reply.is_none()) event.addr("from", reply.responder);
}

class ProbeEngine {
 public:
  virtual ~ProbeEngine() = default;

  ProbeEngine() = default;
  ProbeEngine(const ProbeEngine&) = delete;
  ProbeEngine& operator=(const ProbeEngine&) = delete;

  // Issues one probe and blocks until a reply or a definitive silence.
  net::ProbeReply probe(const net::Probe& request) {
    issued_.fetch_add(1, std::memory_order_relaxed);
    return do_probe(request);
  }

  // Issues a wave of probes and blocks until every one has a reply or a
  // definitive silence. replies[i] answers requests[i]. The base
  // implementation probes serially, so every engine is batch-correct by
  // construction; engines that can overlap round trips (the simulator, a
  // future async raw-socket engine) override do_probe_batch so the whole
  // wave pays one RTT. Callers own ordering: waves carry no ordering
  // guarantee among their probes beyond slot claiming in request order
  // (see docs/PROBING.md for the determinism contract).
  std::vector<net::ProbeReply> probe_batch(
      std::span<const net::Probe> requests) {
    if (requests.empty()) return {};
    issued_.fetch_add(requests.size(), std::memory_order_relaxed);
    return do_probe_batch(requests);
  }

  // §3.1(i) direct probing: large TTL, tests liveness of `target`.
  net::ProbeReply direct(net::Ipv4Addr target,
                         net::ProbeProtocol protocol = net::ProbeProtocol::kIcmp,
                         std::uint16_t flow_id = 0, std::uint8_t epoch = 0) {
    net::Probe p;
    p.target = target;
    p.ttl = net::kDirectProbeTtl;
    p.protocol = protocol;
    p.flow_id = flow_id;
    p.epoch = epoch;
    return probe(p);
  }

  // §3.1(ii) indirect probing: small TTL, reveals the router at that hop.
  net::ProbeReply indirect(net::Ipv4Addr target, std::uint8_t ttl,
                           net::ProbeProtocol protocol = net::ProbeProtocol::kIcmp,
                           std::uint16_t flow_id = 0, std::uint8_t epoch = 0) {
    net::Probe p;
    p.target = target;
    p.ttl = ttl;
    p.protocol = protocol;
    p.flow_id = flow_id;
    p.epoch = epoch;
    return probe(p);
  }

  // Probes issued through *this* engine (a caching decorator counts logical
  // requests here while its inner engine counts wire probes). The counter is
  // a relaxed atomic so one engine may sit below several campaign workers.
  std::uint64_t probes_issued() const noexcept {
    return issued_.load(std::memory_order_relaxed);
  }

 private:
  virtual net::ProbeReply do_probe(const net::Probe& request) = 0;

  // Serial fallback: correct for every engine (RawSocketProbeEngine keeps
  // working unmodified). Calls do_probe, not probe(), so the issued counter
  // is bumped exactly once per request.
  virtual std::vector<net::ProbeReply> do_probe_batch(
      std::span<const net::Probe> requests) {
    std::vector<net::ProbeReply> replies;
    replies.reserve(requests.size());
    for (const net::Probe& request : requests)
      replies.push_back(do_probe(request));
    return replies;
  }

  std::atomic<std::uint64_t> issued_{0};
};

// Pass-through decorator: adds no behaviour, only a probes_issued() scope.
// A campaign worker wraps the shared engine stack in one of these so
// per-session probe accounting stays local to the worker while the actual
// probing funnels into shared machinery.
class ForwardingProbeEngine final : public ProbeEngine {
 public:
  explicit ForwardingProbeEngine(ProbeEngine& inner) noexcept : inner_(inner) {}

 private:
  net::ProbeReply do_probe(const net::Probe& request) override {
    return inner_.probe(request);
  }

  std::vector<net::ProbeReply> do_probe_batch(
      std::span<const net::Probe> requests) override {
    return inner_.probe_batch(requests);
  }

  ProbeEngine& inner_;
};

}  // namespace tn::probe
