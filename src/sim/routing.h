// Hop-count shortest-path routing over the router graph, computed only for
// the region a campaign probes.
//
// Destinations resolve to subnets. A walk from an origin o toward a target
// subnet t only visits routers x with R_o(x) + d_t(x) = D, where R_o(x) is
// the number of forwarding steps from o to x, d_t(x) the router-hop distance
// of x toward t, and D the origin's own distance toward t. The table keeps
// exactly that region, in one plane built on its first query:
//
//   * dense indices for the routers (hosts never forward transit traffic);
//   * the router <-> LAN graph in CSR form: per router, the LANs it shares
//     with other routers, and per such LAN, its routers;
//   * per LAN, its relay interfaces in insertion order: the routers' and
//     those of multi-homed hosts (the only hosts that can carry a path onto
//     another LAN — by delivering onto the target from their own);
//   * one 16-bit row R_o per origin, by a BFS over the CSR seeded at o (0)
//     when o is a router, else at the routers on o's LANs (1). The same BFS
//     seeded at a subnet's attached routers (0) and at the routers beside
//     its attached multi-homed hosts (1) gives the row of a subnet replies
//     are routed toward (shortest_path_egress);
//   * per (origin, target subnet), a route: the shortest-path DAG between
//     them. Its members are the routers with d_t = k and R_o = D - k, level
//     by level from the target, then the origin. A BFS back from t's seeds
//     finds them: it admits a router to level k + 1 only when it shares a
//     LAN with a level-k member and its R_o is D - k - 1, which by the
//     triangle inequality makes its d_t exactly k + 1. Each member stores
//     its next hops, so a forwarding step reads a short list instead of
//     scanning the router's interfaces and their LANs' relays. A route is
//     one contiguous run of 32-bit words, about 150 bytes (8 members, 9
//     next hops on the §4.2 internet), carved from blocks the plane owns
//     and published by compare-and-swap into a per-origin slot array.
//
// Routing memory therefore scales with the routes walked, not with the
// square of the router count. distance, next_hops and shortest_path_egress
// answer for arbitrary nodes with the same machinery, `from` playing the
// origin; they may cache rows for non-origin nodes, which the walk never
// creates. Router distances, host distances and next-hop sets are
// bit-identical to a full-graph BFS from the target subnet; see the
// Routing.RoutesMatchFullGraphBfs* tests. A table routes over a frozen
// Topology, never a TopologyBuilder, so its plane never goes stale; a §3.7
// routing update is a new snapshot with a table of its own.
//
// Next hops are enumerated in deterministic (egress interface, relay)
// order, which per-flow ECMP hashing and per-packet round-robin index into.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "sim/topology.h"

namespace tn::sim {

class RoutingTable {
  class Plane;  // defined in routing.cpp

 public:
  // The second argument, once the capacity of a per-subnet LRU, is unused:
  // everything the plane computes stays as long as the table. It remains so
  // that callers passing a capacity still build.
  explicit RoutingTable(const Topology& topology,
                        std::size_t cache_capacity = 128);
  // A builder cannot be routed: freeze it first.
  explicit RoutingTable(const TopologyBuilder&, std::size_t = 128) = delete;
  ~RoutingTable();

  RoutingTable(const RoutingTable&) = delete;
  RoutingTable& operator=(const RoutingTable&) = delete;

  struct NextHop {
    NodeId node = kInvalidId;
    InterfaceId egress = kInvalidId;   // on the forwarding node
    InterfaceId ingress = kInvalidId;  // on the next-hop node
  };

  static constexpr int kUnreachable = -1;

  // The shortest-path DAG from one origin toward one target subnet. Its
  // members are routers and, last, the origin. A walk starts at member
  // origin() and follows next hops; each hop names the member it leads to.
  // A view of words the table owns, valid as long as the table.
  class Route {
   public:
    struct Hop {
      NodeId node;
      InterfaceId ingress;   // on `node`
      std::uint16_t member;  // kNoMember: a multi-homed host on the target
    };
    static constexpr std::uint16_t kNoMember = 0xFFFF;

    // The origin's member index. A route toward an unreachable target holds
    // the origin alone, with no next hops.
    std::uint16_t origin() const noexcept {
      return static_cast<std::uint16_t>(members() - 1);
    }

    // Whether `member` is attached to the target (local delivery).
    bool delivers(std::uint16_t member) const noexcept {
      return member < (words_[0] >> 16);
    }

    // How many equal-cost next hops `member` has; none when it delivers.
    std::uint32_t hop_count(std::uint16_t member) const noexcept {
      return words_[2 + member] - words_[1 + member];
    }

    // The next hop numbered `index` (below hop_count) in deterministic
    // order.
    Hop hop(std::uint16_t member, std::uint32_t index) const noexcept {
      const std::uint32_t* entry =
          words_ + 2 + members() + 3 * (words_[1 + member] + index);
      return {entry[0], entry[1], static_cast<std::uint16_t>(entry[2])};
    }

   private:
    friend class RoutingTable;
    explicit Route(const std::uint32_t* words) : words_(words) {}

    std::uint32_t members() const noexcept { return words_[0] & 0xFFFF; }

    // words_[0]: the member count, and in its high half how many members,
    // the first ones, deliver; then where each member's next hops begin,
    // plus an end mark; then three words per next hop: node, ingress and
    // member.
    const std::uint32_t* words_;
  };

  // The route from `origin` toward `target`, built on first use and kept as
  // long as the table. Thread-safe; reads of a built route take no lock.
  Route route(NodeId origin, SubnetId target) const;

  // Router-hop distance from `from` to `target` subnet; 0 when attached.
  int distance(NodeId from, SubnetId target) const;

  // Equal-cost next hops of `from` toward `target`, in deterministic order.
  // Empty when `from` is attached to the target (local delivery) or the
  // target is unreachable.
  std::vector<NextHop> next_hops(NodeId from, SubnetId target) const;

  // The egress interface of `from` on a shortest path toward `toward_subnet`
  // — the address a shortest-path-policy router reports (§3.1(iii)).  When
  // several equal-cost egresses exist the lowest-address one is returned
  // (real routers pick one deterministically as well). kInvalidId when
  // unreachable.
  InterfaceId shortest_path_egress(NodeId from, SubnetId toward_subnet) const;

 private:
  // The plane, built by the first query of any thread.
  const Plane& plane() const;

  const Topology& topology_;
  mutable std::once_flag plane_built_;
  mutable std::unique_ptr<Plane> plane_;
};

}  // namespace tn::sim
