#include "core/traceroute.h"

#include <algorithm>
#include <vector>

#include "util/log.h"

namespace tn::core {

TracePath Traceroute::run(net::Ipv4Addr destination) {
  TracePath path;
  path.destination = destination;

  // Windowed mode: TTLs are probed in waves of `probe_window` overlapped
  // probes; `wave` holds replies for TTLs wave_base+1 .. wave_base+size.
  // The consuming loop below is the single source of truth for stop logic
  // in both modes — a wave only prefetches replies it may then discard.
  const int window = config_.probe_window < 1 ? 1 : config_.probe_window;
  probe::AdaptiveController* ctrl = config_.adaptive;
  std::vector<net::ProbeReply> wave;
  int wave_base = 0;

  trace::Recorder* rec = config_.recorder;
  const char* stop_reason = "max_ttl";

  int anonymous_run = 0;
  for (int ttl = 1; ttl <= config_.max_ttl; ++ttl) {
    net::ProbeReply reply;
    if (window <= 1 && ctrl == nullptr) {
      reply = engine_.indirect(destination, static_cast<std::uint8_t>(ttl),
                               config_.protocol, config_.flow_id,
                               config_.epoch);
    } else {
      if (ttl > wave_base + static_cast<int>(wave.size())) {
        wave_base = ttl - 1;
        const int limit = ctrl != nullptr ? ctrl->window() : window;
        const int count = std::min(limit, config_.max_ttl - wave_base);
        std::vector<net::Probe> probes(static_cast<std::size_t>(count));
        for (int i = 0; i < count; ++i) {
          probes[static_cast<std::size_t>(i)].target = destination;
          probes[static_cast<std::size_t>(i)].ttl =
              static_cast<std::uint8_t>(wave_base + 1 + i);
          probes[static_cast<std::size_t>(i)].protocol = config_.protocol;
          probes[static_cast<std::size_t>(i)].flow_id = config_.flow_id;
          probes[static_cast<std::size_t>(i)].epoch = config_.epoch;
        }
        if (ctrl != nullptr) {
          ctrl->pace();
          const std::uint64_t mark = ctrl->begin_wave();
          wave = engine_.probe_batch(probes);
          ctrl->end_wave(mark, probes, wave);
        } else {
          wave = engine_.probe_batch(probes);
        }
      }
      reply = wave[static_cast<std::size_t>(ttl - wave_base - 1)];
    }
    path.hops.push_back(TraceHop{ttl, reply});
    if (trace::on(rec, trace::Level::kSession)) {
      trace::Event event = rec->event("hop");
      probe::append_reply_attrs(event.num("ttl", ttl), reply);
    }

    // An alive-type reply to a TTL-scoped probe can only mean the probe was
    // delivered — the destination answered, possibly from another of its
    // interfaces (shortest-path / default direct policies). Any reply sourced
    // from the destination address itself also terminates the walk.
    if (net::is_alive_reply(config_.protocol, reply.type) ||
        (!reply.is_none() && reply.responder == destination)) {
      path.destination_reached = true;
      stop_reason = "destination";
      break;
    }

    if (reply.is_none()) {
      if (++anonymous_run >= config_.anonymous_gap_limit) {
        util::log(util::LogLevel::kDebug, "traceroute",
                  "abandoning trace to ", destination, " after ",
                  anonymous_run, " anonymous hops");
        stop_reason = "gap";
        break;
      }
      continue;
    }
    anonymous_run = 0;

    // Forwarding-loop guard: the same responder at three consecutive hops.
    const std::size_t n = path.hops.size();
    if (n >= 3 && !path.hops[n - 2].anonymous() &&
        !path.hops[n - 3].anonymous() &&
        path.hops[n - 2].reply.responder == reply.responder &&
        path.hops[n - 3].reply.responder == reply.responder) {
      util::log(util::LogLevel::kDebug, "traceroute", "loop detected at ",
                reply.responder);
      stop_reason = "loop";
      break;
    }
  }
  if (trace::on(rec, trace::Level::kSession))
    rec->event("trace_done")
        .num("hops", static_cast<std::int64_t>(path.hops.size()))
        .flag("reached", path.destination_reached)
        .word("reason", stop_reason);
  return path;
}

}  // namespace tn::core
