#include "core/session.h"

#include <algorithm>
#include <span>
#include <vector>

#include "util/log.h"

namespace tn::core {

TracenetSession::TracenetSession(probe::ProbeEngine& wire_engine,
                                 SessionConfig config)
    : wire_engine_(wire_engine), config_(config) {
  config_.trace.protocol = config_.protocol;
  config_.trace.flow_id = config_.flow_id;
  config_.explore.protocol = config_.protocol;
  config_.explore.flow_id = config_.flow_id;
  config_.positioning.protocol = config_.protocol;
  config_.positioning.flow_id = config_.flow_id;
  set_epoch(config_.epoch);
  config_.trace.probe_window = config_.probe_window;
  config_.explore.probe_window = config_.probe_window;

  if (config_.adaptive.enabled) {
    controller_ = std::make_unique<probe::AdaptiveController>(
        config_.adaptive, &wire_engine_, config_.clock);
    config_.trace.adaptive = controller_.get();
    config_.explore.adaptive = controller_.get();
  }

  probe::RetryConfig retry_config;
  retry_config.attempts = config_.retry_attempts;
  retry_config.backoff_base_us = config_.retry_backoff_us;
  retry_config.per_target_budget = config_.retry_budget_per_target;
  retry_config.clock = config_.clock;
  retry_ = std::make_unique<probe::RetryingProbeEngine>(wire_engine_,
                                                        retry_config);
  top_ = retry_.get();
  if (config_.use_probe_cache) {
    cache_ = std::make_unique<probe::CachingProbeEngine>(*retry_);
    top_ = cache_.get();
  }
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
    net::Probe probe;
    probe.target = target;
    probe.ttl = static_cast<std::uint8_t>(ttl);
    probe.protocol = config_.protocol;
    probe.flow_id = config_.flow_id;
    probe.epoch = config_.epoch;
    wave.push_back(probe);
  };
  for (const TraceHop& hop : path.hops) {
    if (hop.anonymous()) continue;
    const net::Ipv4Addr v = hop.reply.responder;
    queue(v, hop.ttl);
    queue(v, hop.ttl - 1);
    queue(v.mate31(), hop.ttl);
  }
  std::size_t begin = 0;
  while (begin < wave.size()) {
    const std::size_t window = static_cast<std::size_t>(
        controller_ ? controller_->window() : config_.probe_window);
    const std::size_t count = std::min(window, wave.size() - begin);
    const auto chunk = std::span<const net::Probe>(wave).subspan(begin, count);
    if (controller_) {
      controller_->pace();
      const std::uint64_t mark = controller_->begin_wave();
      const std::vector<net::ProbeReply> replies = top_->probe_batch(chunk);
      controller_->end_wave(mark, chunk, replies);
    } else {
      top_->probe_batch(chunk);
    }
    begin += count;
  }
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

  trace::Recorder* rec =
      trace::on(recorder_, trace::Level::kSession) ? recorder_ : nullptr;
  if (rec != nullptr)
    rec->event("session").word("proto", net::to_string(config_.protocol));

  Traceroute tracer(*top_, config_.trace);
  result.path = tracer.run(destination);
  if (config_.probe_window > 1 || controller_) prescan_positioning(result.path);

  SubnetPositioner positioner(*top_, config_.positioning);
  SubnetExplorer explorer(*top_, config_.explore);

  std::optional<net::Ipv4Addr> previous;  // u: responder at the previous hop
  for (const TraceHop& hop : result.path.hops) {
    if (hop.anonymous()) {
      // No pivot to grow a subnet around; §3.4 requires an address.
      previous.reset();
      continue;
    }
    const net::Ipv4Addr v = hop.reply.responder;

    if (config_.skip_covered_hops) {
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
