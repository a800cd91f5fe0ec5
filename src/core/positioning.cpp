#include "core/positioning.h"

#include "util/log.h"

namespace tn::core {

std::optional<int> SubnetPositioner::direct_distance(net::Ipv4Addr addr,
                                                     int hint) {
  // §3.4: "tracenet sends probe packets with increasing (forward) and
  // decreasing (backward) TTL values starting from d until it locates the
  // exact location of l."  The distance is the smallest TTL that elicits an
  // alive reply.
  const net::ProbeReply at_hint = prober_.at(addr, hint);
  if (prober_.alive(at_hint)) {
    // Walk backward while still alive.
    int distance = hint;
    while (distance > 1 && distance > hint - kDistanceSearchRadius) {
      if (!prober_.alive(prober_.at(addr, distance - 1))) break;
      --distance;
    }
    return distance;
  }
  if (at_hint.is_ttl_exceeded()) {
    // Farther than the hint: walk forward until delivered.
    for (int distance = hint + 1;
         distance <= hint + kDistanceSearchRadius; ++distance) {
      const net::ProbeReply reply = prober_.at(addr, distance);
      if (prober_.alive(reply)) return distance;
      if (!reply.is_ttl_exceeded()) return std::nullopt;  // went dark
    }
    return std::nullopt;
  }
  // Silence at the hint: the address does not answer direct probes here.
  return std::nullopt;
}

Position SubnetPositioner::position(std::optional<net::Ipv4Addr> u,
                                    net::Ipv4Addr v, int d) {
  Position result;
  result.trace_entry = u;

  // Line 1: vh <- dst(v). When v is silent to direct probing we fall back to
  // the trace hop distance — the retry engine has already absorbed loss, so
  // silence here usually means a rate-limited router; d is the best estimate.
  const std::optional<int> measured = direct_distance(v, d);
  const int vh = measured.value_or(d);

  // Lines 2-10: on/off-the-trace-path.
  if (vh != d) {
    result.on_trace_path = false;
  } else {
    const net::ProbeReply before = prober_.at(v, vh - 1);
    if (before.is_ttl_exceeded() && u && before.responder == *u) {
      result.on_trace_path = true;
    } else if (before.is_ttl_exceeded() && u && before.responder != *u) {
      // "tracenet probabilistically concludes that the subnet to be explored
      // is off-the-trace-path"
      result.on_trace_path = false;
    } else {
      // Anonymous hop before v (or u unknown): cannot refute; assume on-path.
      result.on_trace_path = true;
    }
  }

  // Lines 11-21: pivot designation via Mate-31 Adjacency. A TTL-exceeded
  // reply to <mate31(v), vh> means the subnet extends beyond v, so the true
  // pivot is v's mate, one hop deeper.
  const net::ProbeReply mate_probe = prober_.at(v.mate31(), vh);
  bool pivot_is_mate = false;
  if (mate_probe.is_ttl_exceeded()) {
    if (prober_.alive(prober_.at(v.mate31(), net::kDirectProbeTtl))) {
      result.pivot = v.mate31();
      pivot_is_mate = true;
    } else if (prober_.alive(prober_.at(v.mate30(), net::kDirectProbeTtl))) {
      result.pivot = v.mate30();
      pivot_is_mate = true;
    }
  }
  if (pivot_is_mate) {
    result.pivot_distance = vh + 1;
  } else {
    result.pivot = v;
    result.pivot_distance = vh;
  }

  // Line 22: ingress designation.
  const net::ProbeReply ingress_probe =
      prober_.at(result.pivot, result.pivot_distance - 1);
  if (ingress_probe.is_ttl_exceeded())
    result.ingress = ingress_probe.responder;

  util::log(util::LogLevel::kDebug, "position", "v=", v, " d=", d,
            " -> pivot=", result.pivot, " jh=", result.pivot_distance,
            result.on_trace_path ? " on" : " off", "-path");
  return result;
}

}  // namespace tn::core
