// Hop-count shortest-path routing over the router graph.
//
// Destinations resolve to subnets. All queries read one flat routing plane,
// which a table builds once, on its first query:
//
//   * dense indices for the routers (hosts never forward transit traffic);
//   * the router <-> LAN graph in CSR form: per router, the LANs it shares
//     with other routers, and per such LAN, its routers;
//   * per LAN, its relay interfaces in insertion order: the routers' and
//     those of multi-homed hosts (the only hosts that can carry a path onto
//     another LAN — by delivering onto the target from their own);
//   * one 16-bit hop-distance row per router, computed 64 routers at a time
//     by a bit-parallel multi-source BFS over routers (one uint64_t per
//     router says which of the block's sources reached it) the first time a
//     target needs a row of the block, and published lock-free as one block;
//   * per target subnet, the element-wise minimum of the rows of its
//     attached routers and, one hop further, of the routers next to its
//     attached multi-homed hosts. That is exact because BFS distance from a
//     set of seeds is the minimum over the seeds. A subnet whose only seed
//     is one router reads that router's row.
//
// Host distances resolve from the relay interfaces of the host's LANs.
// Router distances, host distances and next-hop sets are bit-identical to a
// full-graph BFS from the target subnet; see the Routing.RoutesMatchFullGraphBfs*
// tests. A table routes over a frozen Topology, never a TopologyBuilder, so
// its plane never goes stale; a §3.7 routing update is a new snapshot with a
// table of its own.
//
// Next-hop sets are enumerated per (node, target) query in deterministic
// interface-insertion order, which per-flow ECMP hashing and per-packet
// round-robin index into.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/topology.h"

namespace tn::sim {

class RoutingTable {
  class Plane;  // defined in routing.cpp

 public:
  // The second argument, once the capacity of a per-subnet LRU, is unused:
  // every distance row the plane computes stays as long as the table. It
  // remains so that callers passing a capacity still build.
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

  // The routes toward one target subnet: a view into the plane, valid as
  // long as the table. Reads are lock-free and allocate nothing.
  class Routes {
   public:
    // Router-hop distance from `from`; 0 when attached.
    int distance(NodeId from) const;

    // How many equal-cost next hops `from` has; when there are any, the
    // first of them is stored in `first`. None when `from` is attached to
    // the target (local delivery) or the target is unreachable.
    std::size_t next_hop_count(NodeId from, NextHop& first) const;

    // The next hop numbered `index` (less than the count above) in
    // deterministic order.
    NextHop next_hop(NodeId from, std::size_t index) const;

   private:
    friend class RoutingTable;
    Routes(const Plane& plane, const std::uint16_t* dist, SubnetId target)
        : plane_(&plane), dist_(dist), target_(target) {}

    // Calls visit(hop) for each next hop in order until it returns false.
    template <typename Visit>
    void for_each_next_hop(NodeId from, Visit visit) const;

    const Plane* plane_;
    const std::uint16_t* dist_;  // by dense router index
    SubnetId target_;
  };

  // The routes toward `target`, computing its distance row on first use.
  // Thread-safe.
  Routes routes_to(SubnetId target) const;

  // Router-hop distance from `from` to `target` subnet; 0 when attached.
  int distance(NodeId from, SubnetId target) const {
    return routes_to(target).distance(from);
  }

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
