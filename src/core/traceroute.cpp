#include "core/traceroute.h"

#include <algorithm>
#include <vector>

#include "util/log.h"

namespace tn::core {

TracePath Traceroute::run(net::Ipv4Addr destination) {
  TracePath path;
  path.destination = destination;

  // Windowed mode: `wave` holds replies for TTLs wave_base+1 ..
  // wave_base+size. The consuming loop below is the single source of truth
  // for stop logic in both modes — a wave only prefetches replies it may
  // then discard.
  std::vector<net::ProbeReply> wave;
  int wave_base = 0;

  trace::Recorder* rec = prober_.recorder;
  const char* stop_reason = "max_ttl";

  int anonymous_run = 0;
  for (int ttl = 1; ttl <= config_.max_ttl; ++ttl) {
    net::ProbeReply reply;
    if (!prober_.windowed()) {
      reply = prober_.at(destination, ttl);
    } else {
      if (ttl > wave_base + static_cast<int>(wave.size())) {
        wave_base = ttl - 1;
        const int count =
            std::min(prober_.current_window(), config_.max_ttl - wave_base);
        std::vector<net::Probe> probes;
        probes.reserve(static_cast<std::size_t>(count));
        for (int i = 1; i <= count; ++i)
          probes.push_back(prober_.make(destination, wave_base + i));
        wave = prober_.send(probes);
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
    if (prober_.alive(reply) ||
        (!reply.is_none() && reply.responder == destination)) {
      path.destination_reached = true;
      stop_reason = "destination";
      break;
    }

    if (reply.is_none()) {
      if (++anonymous_run >= kAnonymousGapLimit) {
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
