// Subnet positioning — Algorithm 2 of the paper (§3.4).
//
// Given the last two interfaces (u at hop d-1, v at hop d) obtained in trace
// collection mode, positioning:
//   1. measures the *direct* hop distance of v (it can differ from d when the
//      router reported a shortest-path or default interface),
//   2. decides whether the subnet about to be explored lies on the trace
//      path (the indirect probe passed through it) or off it,
//   3. designates the pivot interface: v itself when v is already among the
//      subnet's farthest interfaces, otherwise v's mate-31 / mate-30 (which
//      then sits one hop deeper), exploiting Mate-31 Adjacency (§3.2(iv)),
//   4. designates the ingress interface by expiring a probe one hop short of
//      the pivot.
// Its probes go one at a time through the session's core::Prober, so they
// carry the session's protocol, flow id and epoch; a windowed session has
// already warmed the opening three into its probe cache.
#pragma once

#include <optional>

#include "core/prober.h"
#include "core/types.h"

namespace tn::core {

// How far from the trace hop distance the direct-distance search may roam
// before giving up and trusting the trace distance.
inline constexpr int kDistanceSearchRadius = 5;

struct Position {
  net::Ipv4Addr pivot;
  int pivot_distance = 0;  // jh
  std::optional<net::Ipv4Addr> ingress;       // i; nullopt when anonymous
  std::optional<net::Ipv4Addr> trace_entry;   // u, forwarded for H6
  bool on_trace_path = true;
};

class SubnetPositioner {
 public:
  explicit SubnetPositioner(Prober prober) noexcept : prober_(prober) {}

  // `u`: responder at hop d-1 (nullopt when anonymous or first hop).
  // `v`: responder at hop d.  When v is silent to direct probes the trace
  // distance d is used as its location — exploration can still grow a subnet
  // around a direct-dark pivot from its responsive neighbors.
  Position position(std::optional<net::Ipv4Addr> u, net::Ipv4Addr v, int d);

  // Measures the direct hop distance of `addr`, seeded with the trace hop
  // distance `hint`. Exposed for tests and the post-hoc baseline.
  std::optional<int> direct_distance(net::Ipv4Addr addr, int hint);

 private:
  Prober prober_;
};

}  // namespace tn::core
