#include "sim/routing.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <span>
#include <stdexcept>

namespace tn::sim {

namespace {

// Row entry of a router no seed reaches.
constexpr std::uint16_t kFar = 0xFFFF;

// single_seed value of a subnet that needs a row of its own.
constexpr std::uint32_t kOwnRow = kInvalidId;

// Rows per BFS pass: one bit of a uint64_t per source.
constexpr std::uint32_t kBlock = 64;

// Publishes `fresh` into an empty slot unless a racing thread got there
// first; either way returns the rows now in the slot. Racing copies agree,
// BFS being a pure function of the topology.
const std::uint16_t* publish(std::atomic<std::uint16_t*>& slot,
                             std::unique_ptr<std::uint16_t[]> fresh) {
  std::uint16_t* expected = nullptr;
  if (slot.compare_exchange_strong(expected, fresh.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire))
    return fresh.release();
  return expected;
}

}  // namespace

class RoutingTable::Plane {
 public:
  explicit Plane(const Topology& topology);
  ~Plane();

  Plane(const Plane&) = delete;
  Plane& operator=(const Plane&) = delete;

  // One interface through which a path may enter or leave a LAN.
  struct Relay {
    InterfaceId iface;
    NodeId node;
    std::uint32_t router;  // dense index; kInvalidId for a multi-homed host
  };

  std::span<const Relay> relays(SubnetId lan) const {
    return {relays_.data() + relay_begin_[lan],
            relays_.data() + relay_begin_[lan + 1]};
  }

  // The distance row of `target` by dense router index (kFar: unreachable).
  const std::uint16_t* subnet_row(SubnetId target) const;

  const Topology& topology;
  std::vector<std::uint32_t> router_index;  // by NodeId; kInvalidId: host

 private:
  const std::uint16_t* router_row(std::uint32_t router) const;
  std::unique_ptr<std::uint16_t[]> block_bfs(std::uint32_t block) const;

  std::uint32_t routers_ = 0;

  // Relays of every LAN, in the LAN's interface-insertion order.
  std::vector<std::uint32_t> relay_begin_;  // by SubnetId, plus an end mark
  std::vector<Relay> relays_;

  // The router <-> LAN graph in CSR form, over the LANs that link two or
  // more routers, numbered densely: per router, its LANs; per LAN, its
  // routers. A BFS pass scans a LAN's routers at most once per level, so its
  // cost stays linear in LAN size.
  std::vector<std::uint32_t> router_lan_begin_;  // by router, plus an end mark
  std::vector<std::uint32_t> router_lans_;
  std::vector<std::uint32_t> lan_router_begin_;  // by LAN, plus an end mark
  std::vector<std::uint32_t> lan_routers_;

  // Per subnet: the dense index of its only seed when that seed is a single
  // router (the subnet reads the router's row), else kOwnRow.
  std::vector<std::uint32_t> single_seed_;

  // Lazily filled, owned rows: per block of kBlock routers (its rows back to
  // back, by source), and per kOwnRow subnet.
  std::unique_ptr<std::atomic<std::uint16_t*>[]> router_blocks_;
  std::unique_ptr<std::atomic<std::uint16_t*>[]> subnet_rows_;
};

RoutingTable::Plane::Plane(const Topology& topo) : topology(topo) {
  const std::size_t node_count = topo.node_count();
  const std::size_t subnet_count = topo.subnet_count();

  router_index.assign(node_count, kInvalidId);
  for (NodeId n = 0; n < node_count; ++n)
    if (!topo.node(n).is_host) router_index[n] = routers_++;
  // Host seeds add one hop to a router distance of at most routers_ - 1.
  if (routers_ >= kFar)
    throw std::length_error("routing plane: more than 65534 routers");

  std::vector<std::uint32_t> linking_lan(subnet_count, kInvalidId);
  single_seed_.assign(subnet_count, kOwnRow);
  relay_begin_.reserve(subnet_count + 1);
  for (SubnetId lan = 0; lan < subnet_count; ++lan) {
    relay_begin_.push_back(static_cast<std::uint32_t>(relays_.size()));
    std::size_t lan_routers = 0;
    std::size_t lan_hosts = 0;
    for (const InterfaceId iface : topo.subnet(lan).interfaces) {
      const NodeId node = topo.interface(iface).node;
      const std::uint32_t router = router_index[node];
      if (router != kInvalidId)
        ++lan_routers;
      else if (topo.node(node).interfaces.size() > 1)
        ++lan_hosts;
      else
        continue;
      relays_.push_back(Relay{iface, node, router});
    }
    if (lan_routers == 1 && lan_hosts == 0)
      single_seed_[lan] = relays_.back().router;
    if (lan_routers > 1) {
      linking_lan[lan] = static_cast<std::uint32_t>(lan_router_begin_.size());
      lan_router_begin_.push_back(static_cast<std::uint32_t>(lan_routers_.size()));
      for (std::size_t i = relay_begin_[lan]; i < relays_.size(); ++i)
        if (relays_[i].router != kInvalidId)
          lan_routers_.push_back(relays_[i].router);
    }
  }
  relay_begin_.push_back(static_cast<std::uint32_t>(relays_.size()));
  lan_router_begin_.push_back(static_cast<std::uint32_t>(lan_routers_.size()));

  router_lan_begin_.reserve(routers_ + 1);
  for (NodeId n = 0; n < node_count; ++n) {
    if (router_index[n] == kInvalidId) continue;
    router_lan_begin_.push_back(static_cast<std::uint32_t>(router_lans_.size()));
    for (const InterfaceId iface : topo.node(n).interfaces) {
      const std::uint32_t lan = linking_lan[topo.interface(iface).subnet];
      if (lan != kInvalidId) router_lans_.push_back(lan);
    }
  }
  router_lan_begin_.push_back(static_cast<std::uint32_t>(router_lans_.size()));

  router_blocks_ = std::make_unique<std::atomic<std::uint16_t*>[]>(
      (routers_ + kBlock - 1) / kBlock);
  subnet_rows_ = std::make_unique<std::atomic<std::uint16_t*>[]>(subnet_count);
}

RoutingTable::Plane::~Plane() {
  for (std::uint32_t b = 0; b * kBlock < routers_; ++b)
    delete[] router_blocks_[b].load();
  for (SubnetId s = 0; s < single_seed_.size(); ++s)
    delete[] subnet_rows_[s].load();
}

// The rows of sources [kBlock * block, +count) in one multi-source BFS
// (MS-BFS, Then et al., PVLDB 2014): bit i of a router's mask stands for the
// block's source i, so one level-synchronous pass advances every source's
// frontier at once. A LAN's mask is the OR of its frontier routers' masks,
// less the sources that already crossed it (its routers are all one hop past
// the first of them a source reaches), so each level scans a LAN once.
std::unique_ptr<std::uint16_t[]> RoutingTable::Plane::block_bfs(
    std::uint32_t block) const {
  const std::uint32_t first = block * kBlock;
  const std::uint32_t count = std::min(kBlock, routers_ - first);
  auto rows = std::make_unique_for_overwrite<std::uint16_t[]>(
      static_cast<std::size_t>(count) * routers_);
  std::fill_n(rows.get(), static_cast<std::size_t>(count) * routers_, kFar);

  const std::size_t lans = lan_router_begin_.size() - 1;
  std::vector<std::uint64_t> seen(routers_, 0);      // sources that reached it
  std::vector<std::uint64_t> frontier(routers_, 0);  // reached at this level
  std::vector<std::uint64_t> next(routers_, 0);      // reached at the next
  std::vector<std::uint64_t> lan_done(lans, 0);      // sources that crossed it
  std::vector<std::uint64_t> lan_mask(lans, 0);      // crossing at this level
  std::vector<std::uint32_t> frontier_list;
  std::vector<std::uint32_t> next_list;
  std::vector<std::uint32_t> touched;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << i;
    seen[first + i] = frontier[first + i] = bit;
    rows[static_cast<std::size_t>(i) * routers_ + first + i] = 0;
    frontier_list.push_back(first + i);
  }

  for (std::uint16_t level = 1; !frontier_list.empty(); ++level) {
    for (const std::uint32_t u : frontier_list) {
      for (std::uint32_t i = router_lan_begin_[u]; i < router_lan_begin_[u + 1];
           ++i) {
        const std::uint32_t lan = router_lans_[i];
        const std::uint64_t crossing = frontier[u] & ~lan_done[lan];
        if (crossing == 0) continue;
        if (lan_mask[lan] == 0) touched.push_back(lan);
        lan_mask[lan] |= crossing;
        lan_done[lan] |= crossing;
      }
      frontier[u] = 0;
    }
    for (const std::uint32_t lan : touched) {
      const std::uint64_t crossing = lan_mask[lan];
      lan_mask[lan] = 0;
      for (std::uint32_t j = lan_router_begin_[lan];
           j < lan_router_begin_[lan + 1]; ++j) {
        const std::uint32_t v = lan_routers_[j];
        const std::uint64_t fresh = crossing & ~seen[v];
        if (fresh == 0) continue;
        if (next[v] == 0) next_list.push_back(v);
        next[v] |= fresh;
        seen[v] |= fresh;
      }
    }
    touched.clear();
    for (const std::uint32_t v : next_list) {
      for (std::uint64_t bits = next[v]; bits != 0; bits &= bits - 1)
        rows[static_cast<std::size_t>(std::countr_zero(bits)) * routers_ + v] =
            level;
    }
    frontier.swap(next);
    frontier_list.swap(next_list);
    next_list.clear();
  }
  return rows;
}

const std::uint16_t* RoutingTable::Plane::router_row(
    std::uint32_t router) const {
  std::atomic<std::uint16_t*>& slot = router_blocks_[router / kBlock];
  const std::uint16_t* block = slot.load(std::memory_order_acquire);
  if (block == nullptr) block = publish(slot, block_bfs(router / kBlock));
  return block + static_cast<std::size_t>(router % kBlock) * routers_;
}

const std::uint16_t* RoutingTable::Plane::subnet_row(SubnetId target) const {
  const std::uint32_t seed = single_seed_.at(target);
  if (seed != kOwnRow) return router_row(seed);
  if (const std::uint16_t* ready =
          subnet_rows_[target].load(std::memory_order_acquire))
    return ready;

  // The BFS from every node attached to `target` at once: attached routers
  // seed at 0; an attached multi-homed host seeds the routers on its other
  // LANs at 1. The distance from a seed set is the minimum over its seeds.
  auto dist = std::make_unique_for_overwrite<std::uint16_t[]>(routers_);
  std::fill_n(dist.get(), routers_, kFar);
  // A saturating add keeps kFar far (real distances stay below kFar - 1), so
  // the loop is a branch-free minimum the compiler can vectorize.
  const auto merge = [&](std::uint32_t router, std::uint32_t offset) {
    const std::uint16_t* row = router_row(router);
    for (std::uint32_t r = 0; r < routers_; ++r)
      dist[r] = static_cast<std::uint16_t>(std::min<std::uint32_t>(
          dist[r], std::min<std::uint32_t>(row[r] + offset, kFar)));
  };
  for (const Relay& seed_relay : relays(target)) {
    if (seed_relay.router != kInvalidId) {
      merge(seed_relay.router, 0);
      continue;
    }
    for (const InterfaceId iface : topology.node(seed_relay.node).interfaces) {
      const SubnetId lan = topology.interface(iface).subnet;
      if (lan == target) continue;
      for (const Relay& relay : relays(lan))
        if (relay.router != kInvalidId) merge(relay.router, 1);
    }
  }
  return publish(subnet_rows_[target], std::move(dist));
}

RoutingTable::RoutingTable(const Topology& topology,
                           std::size_t /*cache_capacity*/)
    : topology_(topology) {}

RoutingTable::~RoutingTable() = default;

const RoutingTable::Plane& RoutingTable::plane() const {
  std::call_once(plane_built_,
                 [this] { plane_ = std::make_unique<Plane>(topology_); });
  return *plane_;
}

RoutingTable::Routes RoutingTable::routes_to(SubnetId target) const {
  const Plane& p = plane();
  return Routes(p, p.subnet_row(target), target);
}

int RoutingTable::Routes::distance(NodeId from) const {
  const Plane& plane = *plane_;
  const std::uint32_t router = plane.router_index.at(from);
  if (router != kInvalidId)
    return dist_[router] == kFar ? kUnreachable : dist_[router];
  // A host: 0 when attached; else one hop past the nearest relay on any of
  // its LANs — the LAN's first relaxation in a full-graph BFS, which only
  // routers and attached (distance-0) hosts relay.
  int best = kUnreachable;
  for (const InterfaceId iface : plane.topology.node(from).interfaces) {
    const SubnetId lan = plane.topology.interface(iface).subnet;
    if (lan == target_) return 0;
    for (const Plane::Relay& relay : plane.relays(lan)) {
      int via;
      if (relay.router != kInvalidId) {
        if (dist_[relay.router] == kFar) continue;
        via = dist_[relay.router] + 1;
      } else if (plane.topology.interface_on(relay.node, target_)) {
        via = 1;
      } else {
        continue;
      }
      if (best == kUnreachable || via < best) best = via;
    }
  }
  return best;
}

template <typename Visit>
void RoutingTable::Routes::for_each_next_hop(NodeId from, Visit visit) const {
  const int d = distance(from);
  if (d <= 0) return;  // attached (local delivery) or unreachable
  const Plane& plane = *plane_;
  for (const InterfaceId egress : plane.topology.node(from).interfaces) {
    for (const Plane::Relay& peer :
         plane.relays(plane.topology.interface(egress).subnet)) {
      if (peer.iface == egress) continue;
      bool closer;
      if (peer.router != kInvalidId) {
        closer = dist_[peer.router] == d - 1;
      } else {
        // A host relays only by delivering onto the target itself, which
        // makes it a next hop of the delivery step alone.
        closer = d == 1 && plane.topology.interface_on(peer.node, target_);
      }
      if (closer && !visit(NextHop{peer.node, egress, peer.iface})) return;
    }
  }
}

std::size_t RoutingTable::Routes::next_hop_count(NodeId from,
                                                 NextHop& first) const {
  std::size_t count = 0;
  for_each_next_hop(from, [&](const NextHop& hop) {
    if (count++ == 0) first = hop;
    return true;
  });
  return count;
}

RoutingTable::NextHop RoutingTable::Routes::next_hop(NodeId from,
                                                     std::size_t index) const {
  NextHop chosen;
  for_each_next_hop(from, [&](const NextHop& hop) {
    if (index-- > 0) return true;
    chosen = hop;
    return false;
  });
  return chosen;
}

std::vector<RoutingTable::NextHop> RoutingTable::next_hops(
    NodeId from, SubnetId target) const {
  std::vector<NextHop> out;
  routes_to(target).for_each_next_hop(from, [&](const NextHop& hop) {
    out.push_back(hop);
    return true;
  });
  return out;
}

InterfaceId RoutingTable::shortest_path_egress(NodeId from,
                                               SubnetId toward_subnet) const {
  // Attached: the interface on the subnet itself is the egress.
  if (const auto local = topology_.interface_on(from, toward_subnet))
    return *local;
  InterfaceId best = kInvalidId;
  routes_to(toward_subnet).for_each_next_hop(from, [&](const NextHop& hop) {
    if (best == kInvalidId ||
        topology_.interface(hop.egress).addr < topology_.interface(best).addr)
      best = hop.egress;
    return true;
  });
  return best;
}

}  // namespace tn::sim
