#include "core/exploration.h"

#include <bit>
#include <set>
#include <unordered_map>
#include <vector>

#include "util/log.h"

namespace tn::core {

namespace {

// The minimal prefix covering every member (H1 shrinking and the
// half-utilization rule leave S as a member set; the *observed* prefix is
// whatever minimally spans it — this is what makes a /29 utilized only in a
// /30 portion get reported as /30, §4's "observable subnet").
net::Prefix minimal_covering(const std::set<net::Ipv4Addr>& members,
                             net::Ipv4Addr pivot) {
  if (members.size() <= 1) return net::Prefix::covering(pivot, 32);
  const std::uint32_t lo = members.begin()->value();
  const std::uint32_t hi = members.rbegin()->value();
  const int common = std::countl_zero(lo ^ hi);  // 32 only when lo == hi
  return net::Prefix::covering(pivot, common);
}

}  // namespace

ObservedSubnet SubnetExplorer::explore(const Position& position) {
  const std::uint64_t probes_before = prober_.engine.probes_issued();

  Context ctx;
  ctx.pivot = position.pivot;
  ctx.jh = position.pivot_distance;
  ctx.ingress = position.ingress;
  ctx.trace_entry = position.trace_entry;
  ctx.on_trace_path = position.on_trace_path;

  std::set<net::Ipv4Addr> members{ctx.pivot};
  StopReason stop = StopReason::kPrefixFloor;

  trace::Recorder* rec =
      trace::on(prober_.recorder, trace::Level::kSession) ? prober_.recorder
                                                          : nullptr;
  if (rec != nullptr)
    rec->event("explore").addr("pivot", ctx.pivot).num("jh", ctx.jh);

  // Algorithm 1's outer loop: temporary subnets /31, /30, ... around the
  // pivot.
  for (int m = 31; m >= config_.min_prefix_length; --m) {
    const net::Prefix level = net::Prefix::covering(ctx.pivot, m);
    // Level m + 1 either completed, examining all of its addresses, or ended
    // the exploration. So the level's unexamined candidates are its half
    // without the pivot, taken in address order.
    const net::Prefix fresh = level.lower_half().contains(ctx.pivot)
                                  ? level.upper_half()
                                  : level.lower_half();
    bool shrunk = false;

    if (prober_.windowed()) {
      // Prescan the level's candidates with overlapped waves; the serial
      // walk below then consumes the replies in address order out of the
      // probe cache.
      std::vector<net::Ipv4Addr> candidates;
      candidates.reserve(static_cast<std::size_t>(fresh.size()));
      for (std::uint64_t index = 0; index < fresh.size(); ++index)
        candidates.push_back(fresh.at(index));
      if (prober_.controller != nullptr)
        adaptive_prescan(candidates, ctx);
      else
        prescan(candidates, ctx);
    }

    for (std::uint64_t index = 0; index < fresh.size(); ++index) {
      const net::Ipv4Addr candidate = fresh.at(index);
      const Verdict verdict = test_candidate(candidate, ctx);
      if (rec != nullptr) {
        trace::Event event = rec->event("heur");
        event.addr("l", candidate)
            .num("m", m)
            .word("verdict", verdict == Verdict::kAdd    ? "add"
                             : verdict == Verdict::kSkip ? "skip"
                                                         : "shrink");
        if (verdict == Verdict::kShrink)
          event.word("fired", heuristic_code(ctx.fired));
      }
      if (verdict == Verdict::kAdd) {
        members.insert(candidate);
      } else if (verdict == Verdict::kShrink) {
        // H1 prefix reduction: back to the last known valid state, dropping
        // every interface collected at the current level.
        const net::Prefix keep = net::Prefix::covering(ctx.pivot, m + 1);
        std::erase_if(members,
                      [&](net::Ipv4Addr a) { return !keep.contains(a); });
        if (ctx.contra_pivot && !keep.contains(*ctx.contra_pivot))
          ctx.contra_pivot.reset();
        stop = StopReason::kShrink;
        shrunk = true;
        break;
      }
    }
    if (shrunk) break;

    if (rec != nullptr)
      rec->event("level").num("m", m).num(
          "members", static_cast<std::int64_t>(members.size()));

    // Algorithm 1 lines 19-21: stop when at most half the level's address
    // space was collected.
    if (m <= 29 && members.size() <= level.size() / 2) {
      stop = StopReason::kUnderUtilized;
      break;
    }
  }

  // H9 boundary address reduction: a classic subnet never assigns its
  // network/broadcast address; while one is a member, split and keep the
  // pivot's half.
  net::Prefix prefix = minimal_covering(members, ctx.pivot);
  while (prefix.length() < 31 &&
         (members.contains(prefix.network()) ||
          members.contains(prefix.broadcast()))) {
    const net::Prefix half = prefix.lower_half().contains(ctx.pivot)
                                 ? prefix.lower_half()
                                 : prefix.upper_half();
    std::erase_if(members, [&](net::Ipv4Addr a) { return !half.contains(a); });
    if (ctx.contra_pivot && !half.contains(*ctx.contra_pivot))
      ctx.contra_pivot.reset();
    prefix = minimal_covering(members, ctx.pivot);
    if (rec != nullptr) rec->event("h9").prefix("prefix", prefix);
  }

  ObservedSubnet out;
  out.prefix = prefix;
  out.members.assign(members.begin(), members.end());
  out.pivot = ctx.pivot;
  out.contra_pivot = ctx.contra_pivot;
  out.ingress = position.ingress;
  out.trace_entry = position.trace_entry;
  out.pivot_distance = ctx.jh;
  out.on_trace_path = ctx.on_trace_path;
  out.stop = stop;
  out.stopped_by = ctx.fired;
  out.probes_used = prober_.engine.probes_issued() - probes_before;

  if (rec != nullptr) {
    // probes_used is deliberately absent: it counts wire probes, which vary
    // with probe_window (prescan speculation), and the session journal is
    // pinned byte-identical across windows.
    trace::Event event = rec->event("subnet");
    event.prefix("prefix", out.prefix)
        .num("members", static_cast<std::int64_t>(out.members.size()))
        .word("stop", to_string(stop))
        .word("fired", heuristic_code(ctx.fired));
    if (ctx.contra_pivot) event.addr("contra", *ctx.contra_pivot);
  }

  util::log(util::LogLevel::kDebug, "explore", "pivot ", ctx.pivot, " -> ",
            out, " (", stop, ")");
  return out;
}

SubnetExplorer::Verdict SubnetExplorer::test_candidate(net::Ipv4Addr l,
                                                       Context& ctx) {
  // --- H2 upper-bound subnet contiguity -----------------------------------
  // <l, jh>: alive reply required; TTL-exceeded means l is farther than the
  // subnet (overgrown); silence means not in use here.
  const net::ProbeReply r2 = probe_at(l, ctx.jh);
  if (r2.is_ttl_exceeded()) {
    ctx.fired = Heuristic::kH2UpperBoundSubnet;
    return Verdict::kShrink;
  }
  if (!prober_.alive(r2)) return Verdict::kSkip;

  // --- H5 mate-31 subnet contiguity ----------------------------------------
  // The pivot's own mate is on the subnet by Mate-31 Adjacency (§3.2(iv)).
  // The /30 mate inherits the shortcut only when the /31 mate is unused;
  // whether it is in use is known from the /31 level, which was examined
  // first.
  if (l == ctx.pivot.mate31() ||
      (l == ctx.pivot.mate30() && !ctx.mate31_of_pivot_alive)) {
    if (l == ctx.pivot.mate31()) ctx.mate31_of_pivot_alive = true;
    // The mate is often the subnet's contra-pivot (point-to-point links: the
    // pivot's mate sits on the ingress router one hop closer). Designate it
    // now so H3's single-contra-pivot rule and H8's exception stay sound for
    // the rest of the exploration; H4's confidence check still applies.
    if (!ctx.contra_pivot && prober_.alive(probe_at(l, ctx.jh - 1)) &&
        !prober_.alive(probe_at(l, ctx.jh - 2))) {
      ctx.contra_pivot = l;
    }
    return Verdict::kAdd;
  }

  // --- H3 / H6 shared probe <l, jh-1> --------------------------------------
  const net::ProbeReply r36 = probe_at(l, ctx.jh - 1);
  if (prober_.alive(r36)) {
    // Alive one hop closer: contra-pivot candidate (H3).
    if (ctx.contra_pivot) {
      ctx.fired = Heuristic::kH3SingleContraPivot;  // second contra-pivot
      return Verdict::kShrink;
    }
    // H4 lower-bound subnet contiguity: a true contra-pivot is exactly one
    // hop closer, never two.
    if (prober_.alive(probe_at(l, ctx.jh - 2))) {
      ctx.fired = Heuristic::kH4LowerBoundSubnet;
      return Verdict::kShrink;
    }
    ctx.contra_pivot = l;
    return Verdict::kAdd;  // contra-pivot needs no router-contiguity checks
  }
  if (config_.h6_enabled && r36.is_ttl_exceeded()) {
    // H6 fixed entry points: the probe must have entered through one of the
    // (at most two) known ingress interfaces — i from positioning, u from
    // trace collection (§3.7 applies the test against both). Anonymous
    // entries cannot refute a candidate.
    const net::Ipv4Addr k = r36.responder;
    const bool matches_i = ctx.ingress && k == *ctx.ingress;
    const bool matches_u =
        ctx.on_trace_path && ctx.trace_entry && k == *ctx.trace_entry;
    const bool entries_known =
        ctx.ingress || (ctx.on_trace_path && ctx.trace_entry);
    if (entries_known && !matches_i && !matches_u) {
      ctx.fired = Heuristic::kH6FixedEntryPoints;
      return Verdict::kShrink;
    }
  }

  // --- H7 upper-bound router contiguity (far fringe) ------------------------
  if (!far_fringe_check(l, ctx)) {
    ctx.fired = Heuristic::kH7UpperBoundRouter;
    return Verdict::kShrink;
  }

  // --- H8 lower-bound router contiguity (close fringe) ----------------------
  if (!close_fringe_check(l, ctx)) {
    ctx.fired = Heuristic::kH8LowerBoundRouter;
    return Verdict::kShrink;
  }

  return Verdict::kAdd;
}

void SubnetExplorer::prescan(const std::vector<net::Ipv4Addr>& candidates,
                             const Context& ctx) {
  // One speculative wave per level: every probe the serial walk can charge a
  // candidate whose heuristic chain stays inside the level — H2's <l, jh>,
  // the shared H3/H6 probe <l, jh-1>, and the H4/H5 confidence probe
  // <l, jh-2>. The mate probes (H7 at jh, H8 at jh-1, and the mate30
  // fallbacks at both) resolve against the same wave through the probe
  // cache, because a candidate's mates lie inside the level for /30 and
  // wider. Speculation trades wire probes for waves: at RTT-bound timing a
  // wave costs one round trip however many probes it carries, and the probe
  // cache already deduplicates anything an earlier level paid for.
  std::vector<net::Probe> wave;
  wave.reserve(candidates.size() * 3);
  auto queue = [&](net::Ipv4Addr target, int ttl) {
    if (ttl < 1) return;
    if (prescanned_.insert(prescan_key(target, ttl)).second) ++spec_spent_;
    wave.push_back(prober_.make(target, ttl));
  };
  for (const net::Ipv4Addr l : candidates) {
    queue(l, ctx.jh);
    queue(l, ctx.jh - 1);
    queue(l, ctx.jh - 2);
  }
  prober_.send(wave);  // replies warm the session cache
}

void SubnetExplorer::adaptive_prescan(
    const std::vector<net::Ipv4Addr>& candidates, const Context& ctx) {
  std::uint32_t submitted = 0;

  // Budget + dedup gate: false once the level's speculative budget is spent.
  // A key still outstanding from an earlier prescan is admitted for free —
  // its reply already sits in the session cache.
  const auto admit = [&](std::vector<net::Probe>& wave, net::Ipv4Addr target,
                         int ttl) {
    if (ttl < 1) return true;
    if (submitted >= probe::kLevelBudget) return false;
    if (!prescanned_.insert(prescan_key(target, ttl)).second) return true;
    ++submitted;
    ++spec_spent_;
    wave.push_back(prober_.make(target, ttl));
    return true;
  };

  // Phase A: one liveness probe <l, jh> per candidate. Each doubles as the
  // walk's H2 probe for l and as H7's <mate31(l), jh> for l's mate, since a
  // candidate's /31 mate is itself a candidate of the level.
  std::vector<net::Probe> phase_a;
  std::vector<std::size_t> owner;  // phase_a[j] probes candidates[owner[j]]
  phase_a.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const std::size_t before = phase_a.size();
    if (!admit(phase_a, candidates[i], ctx.jh)) break;
    if (phase_a.size() > before) owner.push_back(i);
  }
  const std::vector<net::ProbeReply> replies = prober_.send(phase_a);

  std::vector<const net::ProbeReply*> at_jh(candidates.size(), nullptr);
  std::unordered_map<std::uint32_t, const net::ProbeReply*> reply_of;
  reply_of.reserve(owner.size());
  for (std::size_t j = 0; j < owner.size(); ++j) {
    at_jh[owner[j]] = &replies[j];
    reply_of.emplace(candidates[owner[j]].value(), &replies[j]);
  }

  // Phase B: the rest of the heuristic chain's probes, but only for
  // candidates phase A proved alive — exactly the ones the walk probes past
  // jh (test_candidate skips dead candidates after H2). This is where the
  // adaptive policy beats a fixed window: a mostly-empty level costs one
  // probe per candidate instead of three.
  std::vector<net::Probe> phase_b;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (at_jh[i] == nullptr || !prober_.alive(*at_jh[i])) continue;
    const net::Ipv4Addr l = candidates[i];
    const net::Ipv4Addr mate = l.mate31();
    if (!admit(phase_b, l, ctx.jh - 1) || !admit(phase_b, l, ctx.jh - 2) ||
        !admit(phase_b, mate, ctx.jh - 1))
      break;
    if (config_.mate30_fallback) {
      // H7/H8 only fall back to the /30 mate when the /31 mate looked
      // unusable; warm those probes just for that case.
      const auto it = reply_of.find(mate.value());
      const net::ProbeReply* mate_reply =
          it != reply_of.end() ? it->second : nullptr;
      if (mate_reply != nullptr &&
          (mate_reply->is_none() ||
           mate_reply->type == net::ResponseType::kHostUnreachable)) {
        if (!admit(phase_b, l.mate30(), ctx.jh) ||
            !admit(phase_b, l.mate30(), ctx.jh - 1))
          break;
      }
    }
  }
  prober_.send(phase_b);  // replies warm the session cache
}

bool SubnetExplorer::far_fringe_check(net::Ipv4Addr l, const Context& ctx) {
  // If l were a far-fringe interface (hosted one hop past the ingress router
  // on a subnet the ingress has no direct access to), the probe to its mate
  // would expire one hop early: <mate31(l), jh> -> TTL_EXCEEDED.
  const net::ProbeReply r = probe_at(l.mate31(), ctx.jh);
  if (r.is_ttl_exceeded()) return false;
  if (config_.mate30_fallback &&
      (r.is_none() || r.type == net::ResponseType::kHostUnreachable)) {
    const net::ProbeReply r30 = probe_at(l.mate30(), ctx.jh);
    if (r30.is_ttl_exceeded()) return false;
  }
  return true;
}

bool SubnetExplorer::close_fringe_check(net::Ipv4Addr l, const Context& ctx) {
  if (!config_.h8_enabled) return true;
  // If l were a close-fringe interface (on a LAN the ingress router *is*
  // directly on), its mate would be an ingress-router interface, alive one
  // hop closer: <mate31(l), jh-1> -> alive.  The contra-pivot itself is the
  // legitimate exception.
  const net::Ipv4Addr mate = l.mate31();
  if (ctx.contra_pivot && mate == *ctx.contra_pivot) return true;
  const net::ProbeReply r = probe_at(mate, ctx.jh - 1);
  if (prober_.alive(r)) return false;
  if (config_.mate30_fallback &&
      (r.is_none() || r.type == net::ResponseType::kHostUnreachable)) {
    const net::Ipv4Addr mate30 = l.mate30();
    if (ctx.contra_pivot && mate30 == *ctx.contra_pivot) return true;
    if (prober_.alive(probe_at(mate30, ctx.jh - 1))) return false;
  }
  return true;
}

}  // namespace tn::core
