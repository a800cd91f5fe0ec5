// Subnet exploration — Algorithm 1 and heuristics H1-H9 of the paper (§3.3,
// §3.5).
//
// Starting from the pivot designated by subnet positioning, a temporary
// subnet of /31 is formed and grown one prefix bit at a time.  Every
// candidate address of the current level is direct-probed and pushed through
// the heuristic chain; a violation stops growth and shrinks the subnet to its
// last valid state (H1 prefix reduction).  Growth also stops when a level
// ends with at most half of its address space collected (Algorithm 1 lines
// 19-21) or at the configured prefix floor.
//
// As in the paper's implementation, heuristics sharing a probe are merged:
// the <l, jh-1> probe serves both H3 (contra-pivot detection) and H6 (fixed
// entry points), and repeated probes are absorbed by an optional caching
// engine layered underneath.
//
// With a windowed prober (core/prober.h) each growth level is *prescanned*
// by overlapped waves before the unchanged serial walk consumes the replies
// in address order out of the probe cache. The heuristic chain therefore
// fires identically to window 1; a wave may merely probe candidates past a
// mid-level stop or at depths the walk never asks for (extra wire probes,
// never different subnets). A prescan needs a caching engine above the wire
// to pay off; without one its probes are simply re-issued. Journal events
// sit on the serial walk, so they are identical across windows.
#pragma once

#include <unordered_set>
#include <vector>

#include "core/positioning.h"
#include "core/prober.h"
#include "core/types.h"

namespace tn::core {

struct ExplorerConfig {
  // Growth floor: never grow beyond this prefix length. The paper's loop
  // runs to /0 and relies on the utilization rule to stop; a floor bounds
  // probe cost against pathological topologies. /16 is far below the /20
  // largest subnets the paper observed (Figure 9).
  int min_prefix_length = 16;
  // §3.5 H7/H8: when the /31 mate is silent the heuristic retries with the
  // /30 mate. Disabling is an ablation knob (bench_probe_overhead).
  bool mate30_fallback = true;
  // H6 on: fixed-entry-point enforcement. Ablation knob for §3.7 analysis.
  bool h6_enabled = true;
  // H8 on: close-fringe detection. Ablation knob.
  bool h8_enabled = true;
};

class SubnetExplorer {
 public:
  SubnetExplorer(Prober prober, ExplorerConfig config = {}) noexcept
      : prober_(prober), config_(config) {}

  // Grows and returns the observed subnet around `position`'s pivot.
  ObservedSubnet explore(const Position& position);

  // Speculation ledger across this explorer's lifetime (one session run):
  // prescan probes submitted ahead of demand, and how many of them the
  // serial walk later asked for (probe.speculative_{spent,saved} in the
  // campaign metrics; spent - saved is the speculative waste).
  std::uint64_t speculative_spent() const noexcept { return spec_spent_; }
  std::uint64_t speculative_saved() const noexcept { return spec_saved_; }

 private:
  enum class Verdict { kAdd, kSkip, kShrink };

  struct Context {
    net::Ipv4Addr pivot;
    int jh = 0;
    std::optional<net::Ipv4Addr> ingress;      // i
    std::optional<net::Ipv4Addr> trace_entry;  // u
    bool on_trace_path = true;
    std::optional<net::Ipv4Addr> contra_pivot;
    Heuristic fired = Heuristic::kNone;
    // Whether the pivot's /31 mate answered alive — gates the H5 /30-mate
    // shortcut ("only if mate31(j) is found not to be in use").
    bool mate31_of_pivot_alive = false;
  };

  Verdict test_candidate(net::Ipv4Addr l, Context& ctx);
  bool far_fringe_check(net::Ipv4Addr l, const Context& ctx);    // H7
  bool close_fringe_check(net::Ipv4Addr l, const Context& ctx);  // H8

  // Fixed-window prescan of one growth level: warms the probe cache with
  // overlapped waves so the serial walk resolves from memory instead of
  // paying one RTT per candidate.
  void prescan(const std::vector<net::Ipv4Addr>& candidates,
               const Context& ctx);

  // Feedback prescan of one growth level (the prober's controller): phase A
  // probes every candidate at jh only; phase B sends the follow-up probes
  // only for candidates phase A proved alive — the ones the serial walk's
  // heuristic chain will actually interrogate. Waves are sized and paced by
  // the controller, and total submissions are capped at
  // probe::kLevelBudget; anything not prescanned is simply paid serially by
  // the walk.
  void adaptive_prescan(const std::vector<net::Ipv4Addr>& candidates,
                        const Context& ctx);

  // Ledger key for one (target, ttl) speculation; ttl is 1..255 here.
  static std::uint64_t prescan_key(net::Ipv4Addr target, int ttl) noexcept {
    return (static_cast<std::uint64_t>(target.value()) << 8) |
           static_cast<std::uint64_t>(static_cast<std::uint8_t>(ttl));
  }

  net::ProbeReply probe_at(net::Ipv4Addr target, int ttl) {
    if (ttl >= 1 && !prescanned_.empty() &&
        prescanned_.erase(prescan_key(target, ttl)) > 0)
      ++spec_saved_;
    return prober_.at(target, ttl);
  }

  Prober prober_;
  ExplorerConfig config_;

  // Outstanding speculations: keys prescanned but not yet consumed by the
  // walk. Inserts meter spec_spent_, erases in probe_at meter spec_saved_.
  std::unordered_set<std::uint64_t> prescanned_;
  std::uint64_t spec_spent_ = 0;
  std::uint64_t spec_saved_ = 0;
};

}  // namespace tn::core
