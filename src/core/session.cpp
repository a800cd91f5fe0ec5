#include "core/session.h"

#include <utility>
#include <vector>

#include "util/log.h"

namespace tn::core {

TracenetSession::TracenetSession(probe::ProbeEngine& wire_engine,
                                 SessionConfig config)
    : wire_engine_(wire_engine),
      config_(std::move(config)),
      retry_(std::make_unique<probe::RetryingProbeEngine>(
          wire_engine_, config_.retry_attempts)),
      cache_(config_.use_probe_cache
                 ? std::make_unique<probe::CachingProbeEngine>(*retry_)
                 : nullptr),
      controller_(config_.adaptive.enabled
                      ? std::make_unique<probe::AdaptiveController>(
                            &wire_engine_, config_.clock)
                      : nullptr),
      prober_(cache_ ? static_cast<probe::ProbeEngine&>(*cache_) : *retry_) {
  prober_.protocol = config_.protocol;
  prober_.flow_id = config_.flow_id;
  prober_.window = config_.probe_window;
  prober_.controller = controller_.get();
}

void TracenetSession::prescan_positioning(const TracePath& path) {
  // Speculative but cheap: positioning's opening probes are fully
  // determined by the trace, so one wave per window amortizes what would
  // otherwise be three sequential round trips per hop. Hops the session
  // later skips as covered cost a few extra wire probes — the documented
  // batched-mode trade (docs/PROBING.md).
  std::vector<net::Probe> wave;
  wave.reserve(path.hops.size() * 3);
  auto queue = [&](net::Ipv4Addr target, int ttl) {
    if (ttl < 1 || ttl > 255) return;
    wave.push_back(prober_.make(target, ttl));
  };
  for (const TraceHop& hop : path.hops) {
    if (hop.anonymous()) continue;
    const net::Ipv4Addr v = hop.reply.responder;
    queue(v, hop.ttl);
    queue(v, hop.ttl - 1);
    queue(v.mate31(), hop.ttl);
  }
  prober_.send(wave);  // replies warm the session cache
}

SessionResult TracenetSession::run(net::Ipv4Addr destination) {
  const std::uint64_t wire_before = wire_engine_.probes_issued();
  // The probe cache must not leak replies across sessions: hop distances and
  // responsiveness are only stable on the timescale of one trace.
  if (cache_) cache_->clear();
  // Neither must adaptive decision state: a window or backoff carried over
  // from an earlier target would depend on which targets this worker
  // happened to claim, breaking schedule invariance.
  if (controller_) controller_->reset();

  SessionResult result;

  trace::Recorder* rec = trace::on(prober_.recorder, trace::Level::kSession)
                             ? prober_.recorder
                             : nullptr;
  if (rec != nullptr)
    rec->event("session").word("proto", net::to_string(prober_.protocol));

  Traceroute tracer(prober_, config_.trace);
  result.path = tracer.run(destination);
  if (prober_.windowed()) prescan_positioning(result.path);

  SubnetPositioner positioner(prober_);
  SubnetExplorer explorer(prober_, config_.explore);

  std::optional<net::Ipv4Addr> previous;  // u: responder at the previous hop
  for (const TraceHop& hop : result.path.hops) {
    if (hop.anonymous()) {
      // No pivot to grow a subnet around; §3.4 requires an address.
      previous.reset();
      continue;
    }
    const net::Ipv4Addr v = hop.reply.responder;

    bool covered = false;
    for (const ObservedSubnet& subnet : result.subnets) {
      if (subnet.contains(v) ||
          (subnet.members.size() == 1 && subnet.members.front() == v)) {
        covered = true;
        break;
      }
    }
    if (!covered && config_.covered_externally && config_.covered_externally(v))
      covered = true;
    if (covered) {
      if (rec != nullptr) rec->event("hop_skip").addr("addr", v);
      previous = v;
      continue;
    }

    const Position position = positioner.position(previous, v, hop.ttl);
    if (rec != nullptr) {
      trace::Event event = rec->event("position");
      event.addr("v", v)
          .num("d", hop.ttl)
          .addr("pivot", position.pivot)
          .num("jh", position.pivot_distance)
          .flag("on_path", position.on_trace_path);
      if (position.ingress) event.addr("ingress", *position.ingress);
      if (position.trace_entry) event.addr("entry", *position.trace_entry);
    }
    result.subnets.push_back(explorer.explore(position));
    previous = v;
  }

  result.wire_probes = wire_engine_.probes_issued() - wire_before;
  result.speculative_spent = explorer.speculative_spent();
  result.speculative_saved = explorer.speculative_saved();
  if (controller_) {
    result.pace_adjustments = controller_->pace_adjustments();
    result.window_resizes = controller_->window_resizes();
  }
  if (rec != nullptr) {
    // wire_probes stays out of the journal: it varies with probe_window
    // (speculative prescan waves), and the session journal is pinned
    // byte-identical across windows.
    rec->event("session_done")
        .num("subnets", static_cast<std::int64_t>(result.subnets.size()))
        .num("hops", static_cast<std::int64_t>(result.path.hops.size()))
        .flag("reached", result.path.destination_reached);
  }
  util::log(util::LogLevel::kInfo, "session", "collected ",
            result.subnets.size(), " subnets toward ",
            destination, " with ", result.wire_probes,
            " wire probes");
  return result;
}

}  // namespace tn::core
