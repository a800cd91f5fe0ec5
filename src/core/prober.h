// Prober: the engine a tracenet session probes through, and how it probes.
//
// §3.8 keeps one flow identifier per session (after Paris traceroute), so
// every probe of a session — trace collection, positioning, exploration —
// carries one identity: protocol, flow id and routing epoch. A Prober holds
// that identity next to the engine, the wave policy (a fixed in-flight window
// or the adaptive controller, probe/adaptive.h) and the session's journal
// recorder. TracenetSession builds one and hands a copy to each algorithm it
// runs, so the identity is written in one place and read by every send path.
//
// A bare ProbeEngine converts to a Prober that probes ICMP, flow 0, epoch 0,
// one probe at a time, untraced — what tests and benches that drive one
// algorithm directly want.
#pragma once

#include <span>
#include <vector>

#include "net/packet.h"
#include "probe/adaptive.h"
#include "probe/engine.h"
#include "trace/journal.h"

namespace tn::core {

struct Prober {
  // Implicit, so an algorithm can be built straight from an engine
  // (`Traceroute tracer(engine)`); every holder keeps its own copy, so the
  // converted temporary never dangles.
  Prober(probe::ProbeEngine& engine) noexcept : engine(engine) {}

  probe::ProbeEngine& engine;
  net::ProbeProtocol protocol = net::ProbeProtocol::kIcmp;
  std::uint16_t flow_id = 0;
  std::uint8_t epoch = 0;  // routing epoch (net::Probe::epoch)
  // Fixed in-flight window for waves; 1 probes strictly one at a time.
  int window = 1;
  // Adaptive feedback controller, owned by the session; when set it sizes
  // and paces every wave and `window` is unused.
  probe::AdaptiveController* controller = nullptr;
  // Journal destination for session-level events; nullptr = tracing off.
  trace::Recorder* recorder = nullptr;

  // Whether the algorithms batch: trace collection probes TTLs in waves and
  // positioning and exploration prescan theirs. Replies are consumed by the
  // same serial logic either way, so the collected subnets do not change.
  bool windowed() const noexcept {
    return window > 1 || controller != nullptr;
  }

  // The in-flight window the next chunk of a wave goes out with.
  int current_window() const noexcept {
    const int size = controller != nullptr ? controller->window() : window;
    return size < 1 ? 1 : size;
  }

  net::Probe make(net::Ipv4Addr target, int ttl) const noexcept {
    net::Probe probe;
    probe.target = target;
    probe.ttl = static_cast<std::uint8_t>(ttl);
    probe.protocol = protocol;
    probe.flow_id = flow_id;
    probe.epoch = epoch;
    return probe;
  }

  // One probe of `target` scoped to `ttl`; silence for a TTL below 1, which
  // positioning and exploration ask for at the first hops.
  net::ProbeReply at(net::Ipv4Addr target, int ttl) const {
    if (ttl < 1) return net::ProbeReply::none();
    return engine.probe(make(target, ttl));
  }

  bool alive(const net::ProbeReply& reply) const noexcept {
    return net::is_alive_reply(protocol, reply.type);
  }

  // Sends `wave` in chunks of the current window, read again before each
  // chunk. Under the controller each chunk is paced before it goes out and
  // observed after it returns. Returns the replies in wave order.
  std::vector<net::ProbeReply> send(std::span<const net::Probe> wave) const;
};

}  // namespace tn::core
