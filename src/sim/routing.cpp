#include "sim/routing.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <span>
#include <stdexcept>

namespace tn::sim {

namespace {

// Row entry of a router no seed reaches.
constexpr std::uint16_t kFar = 0xFFFF;

// Publishes `fresh` into an empty slot unless a racing thread got there
// first; either way returns what the slot now holds. Racing copies agree,
// everything the plane computes being a pure function of the topology.
template <typename Owned>
typename Owned::pointer publish(std::atomic<typename Owned::pointer>& slot,
                                Owned fresh) {
  typename Owned::pointer expected = nullptr;
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

  // The words of the route from `origin` toward `target` (Route's layout).
  const std::uint32_t* route(NodeId origin, SubnetId target) const;
  int distance(NodeId from, SubnetId target) const;
  std::vector<NextHop> next_hops(NodeId from, SubnetId target) const;
  InterfaceId shortest_path_egress(NodeId from, SubnetId toward) const;

 private:
  // One interface through which a path may enter or leave a LAN.
  struct Relay {
    InterfaceId iface;
    NodeId node;
    std::uint32_t router;  // dense index; kInvalidId for a multi-homed host
  };

  // The storage of every route: blocks owned by the plane, carved in
  // order. A campaign's thousands of routes then cost a few allocations
  // and leave no small chunks scattered through the heap. Blocks stay one
  // size: with a std::pmr::monotonic_buffer_resource, whose blocks grow by
  // half each time, the perfbench binary peaked at 15.3 MB on
  // internet_serial, against 14.9 MB (4-vCPU VM).
  class RouteArena {
   public:
    std::uint32_t* allocate(std::size_t words) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (words > kBlock - used_) {
        blocks_.push_back(std::make_unique_for_overwrite<std::uint32_t[]>(
            std::max(kBlock, words)));
        used_ = 0;
      }
      std::uint32_t* slice = blocks_.back().get() + used_;
      // A route longer than a block has a block of its own, full at once.
      used_ = std::min(kBlock, used_ + words);
      return slice;
    }

   private:
    static constexpr std::size_t kBlock = 16 * 1024;  // 64 KB
    std::mutex mutex_;
    std::vector<std::unique_ptr<std::uint32_t[]>> blocks_;
    std::size_t used_ = kBlock;
  };

  // A route under construction: its routers level by level from the
  // target, then per member (the origin last) its next hops. One per
  // thread, reused.
  struct Members {
    std::vector<std::uint32_t> member_of;    // by router: member index + 1
    std::vector<std::uint32_t> routers;      // dense indices, by level
    std::vector<std::uint32_t> level_begin;  // per level, plus an end mark
    std::vector<std::uint32_t> first_hop;    // per member, plus an end mark
    std::vector<std::uint32_t> hops;         // node, ingress, member
  };

  std::span<const Relay> relays(SubnetId lan) const {
    return {relays_.data() + relay_begin_[lan],
            relays_.data() + relay_begin_[lan + 1]};
  }

  void check(NodeId node, SubnetId subnet) const {
    if (node >= router_index_.size() || subnet >= relay_begin_.size() - 1)
      throw std::out_of_range("routing: no such node or subnet");
  }

  // Calls visit(router, offset) for each seed of `target`: its attached
  // routers at 0 and the routers beside its attached multi-homed hosts at 1.
  template <typename Visit>
  void for_each_seed(SubnetId target, Visit visit) const;

  // Calls visit(peer, egress) for each next hop of `from`, `d` hops from
  // `target`, in (egress interface, relay) order. closer(router) says
  // whether a router peer is one step nearer the target.
  template <typename Closer, typename Visit>
  void for_each_next_hop(NodeId from, std::uint32_t d, SubnetId target,
                         Closer closer, Visit visit) const;

  // Hop counts over the router graph from the routers of `at_zero` (0) and
  // of `at_one` (1).
  std::unique_ptr<std::uint16_t[]> bfs(
      std::span<const std::uint32_t> at_zero,
      std::span<const std::uint32_t> at_one) const;

  // R_o: forwarding steps from `origin` to each router.
  const std::uint16_t* origin_row(NodeId origin) const;
  // Each router's distance toward `subnet`.
  const std::uint16_t* subnet_row(SubnetId subnet) const;

  // D: the distance of `origin`, whose row is `row`, toward `target`; kFar
  // when unreachable.
  std::uint32_t origin_distance(NodeId origin, SubnetId target,
                                const std::uint16_t* row) const;

  // Fills m.routers and m.level_begin with levels 0 .. d - 1 of the route
  // from the origin of `row`, d >= 1 hops from `target`.
  void find_members(SubnetId target, const std::uint16_t* row,
                    std::uint32_t d, Members& m) const;

  // This thread's route under construction.
  static Members& scratch() {
    thread_local Members m;
    return m;
  }

  // Clears the member marks that find_members set.
  static void release(Members& m) {
    for (const std::uint32_t router : m.routers) m.member_of[router] = 0;
  }

  // Whether a router is a member at `level` (levels past the last are
  // empty).
  static bool member_at(const Members& m, std::uint32_t router,
                        std::uint32_t level) {
    if (level + 1 >= m.level_begin.size()) return false;
    const std::uint32_t index = m.member_of[router];
    return index > m.level_begin[level] && index <= m.level_begin[level + 1];
  }

  const std::uint32_t* build_route(NodeId origin, SubnetId target) const;

  const Topology& topology_;
  std::uint32_t routers_ = 0;
  std::vector<std::uint32_t> router_index_;  // by NodeId; kInvalidId: host
  std::vector<NodeId> router_node_;          // by router

  // Relays of every LAN, in the LAN's interface-insertion order.
  std::vector<std::uint32_t> relay_begin_;  // by SubnetId, plus an end mark
  std::vector<Relay> relays_;

  // The router <-> LAN graph in CSR form, over the LANs that link two or
  // more routers, numbered densely: per router, its LANs; per LAN, its
  // routers. A BFS scans each LAN once, so its cost stays linear in LAN
  // size.
  std::vector<std::uint32_t> router_lan_begin_;  // by router, plus an end mark
  std::vector<std::uint32_t> router_lans_;
  std::vector<std::uint32_t> lan_router_begin_;  // by LAN, plus an end mark
  std::vector<std::uint32_t> lan_routers_;

  // Lazily filled and published lock-free: a row per origin (by NodeId) and
  // per reply destination (by SubnetId), and per origin an array of routes
  // by target SubnetId.
  std::unique_ptr<std::atomic<std::uint16_t*>[]> origin_rows_;
  std::unique_ptr<std::atomic<std::uint16_t*>[]> subnet_rows_;
  std::unique_ptr<std::atomic<std::atomic<const std::uint32_t*>*>[]> routes_;
  mutable RouteArena route_arena_;
};

RoutingTable::Plane::Plane(const Topology& topo) : topology_(topo) {
  const std::size_t node_count = topo.node_count();
  const std::size_t subnet_count = topo.subnet_count();

  router_index_.assign(node_count, kInvalidId);
  for (NodeId n = 0; n < node_count; ++n) {
    if (topo.node(n).is_host) continue;
    router_index_[n] = routers_++;
    router_node_.push_back(n);
  }
  // Host seeds add one hop to a router distance of at most routers_ - 1,
  // and a route's members (routers and the origin) take 16-bit indices
  // below Route::kNoMember.
  if (routers_ >= kFar)
    throw std::length_error("routing plane: more than 65534 routers");

  std::vector<std::uint32_t> linking_lan(subnet_count, kInvalidId);
  relay_begin_.reserve(subnet_count + 1);
  for (SubnetId lan = 0; lan < subnet_count; ++lan) {
    relay_begin_.push_back(static_cast<std::uint32_t>(relays_.size()));
    std::size_t lan_routers = 0;
    for (const InterfaceId iface : topo.subnet(lan).interfaces) {
      const NodeId node = topo.interface(iface).node;
      const std::uint32_t router = router_index_[node];
      if (router != kInvalidId)
        ++lan_routers;
      else if (topo.node(node).interfaces.size() <= 1)
        continue;
      relays_.push_back(Relay{iface, node, router});
    }
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
  for (const NodeId n : router_node_) {
    router_lan_begin_.push_back(static_cast<std::uint32_t>(router_lans_.size()));
    for (const InterfaceId iface : topo.node(n).interfaces) {
      const std::uint32_t lan = linking_lan[topo.interface(iface).subnet];
      if (lan != kInvalidId) router_lans_.push_back(lan);
    }
  }
  router_lan_begin_.push_back(static_cast<std::uint32_t>(router_lans_.size()));

  origin_rows_ = std::make_unique<std::atomic<std::uint16_t*>[]>(node_count);
  subnet_rows_ = std::make_unique<std::atomic<std::uint16_t*>[]>(subnet_count);
  routes_ = std::make_unique<std::atomic<std::atomic<const std::uint32_t*>*>[]>(
      node_count);
}

RoutingTable::Plane::~Plane() {
  const std::size_t subnet_count = relay_begin_.size() - 1;
  for (NodeId n = 0; n < router_index_.size(); ++n) {
    delete[] origin_rows_[n].load();
    delete[] routes_[n].load();
  }
  for (SubnetId s = 0; s < subnet_count; ++s) delete[] subnet_rows_[s].load();
}

template <typename Visit>
void RoutingTable::Plane::for_each_seed(SubnetId target, Visit visit) const {
  for (const Relay& seed : relays(target)) {
    if (seed.router != kInvalidId) {
      visit(seed.router, 0u);
      continue;
    }
    for (const InterfaceId iface : topology_.node(seed.node).interfaces) {
      const SubnetId lan = topology_.interface(iface).subnet;
      if (lan == target) continue;
      for (const Relay& beside : relays(lan))
        if (beside.router != kInvalidId) visit(beside.router, 1u);
    }
  }
}

template <typename Closer, typename Visit>
void RoutingTable::Plane::for_each_next_hop(NodeId from, std::uint32_t d,
                                            SubnetId target, Closer closer,
                                            Visit visit) const {
  for (const InterfaceId egress : topology_.node(from).interfaces) {
    for (const Relay& peer : relays(topology_.interface(egress).subnet)) {
      if (peer.iface == egress) continue;
      // A host relays only by delivering onto the target itself, which
      // makes it a next hop of the delivery step alone.
      const bool next = peer.router != kInvalidId
                            ? closer(peer.router)
                            : d == 1 && topology_.interface_on(peer.node, target);
      if (next) visit(peer, egress);
    }
  }
}

// Level-synchronous by construction: a FIFO queue holding the 0-seeds, then
// the 1-seeds, then what each dequeued router reaches. A LAN is scanned
// once, from the first of its routers to be dequeued; that router is one of
// the LAN's nearest, so every unreached router of the LAN is one hop past it.
std::unique_ptr<std::uint16_t[]> RoutingTable::Plane::bfs(
    std::span<const std::uint32_t> at_zero,
    std::span<const std::uint32_t> at_one) const {
  auto row = std::make_unique_for_overwrite<std::uint16_t[]>(routers_);
  std::fill_n(row.get(), routers_, kFar);
  std::vector<std::uint32_t> queue;
  queue.reserve(routers_);
  const auto reach = [&](std::uint32_t router, std::uint16_t hops) {
    if (row[router] != kFar) return;
    row[router] = hops;
    queue.push_back(router);
  };
  for (const std::uint32_t router : at_zero) reach(router, 0);
  for (const std::uint32_t router : at_one) reach(router, 1);

  std::vector<bool> lan_done(lan_router_begin_.size() - 1, false);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t u = queue[head];
    const std::uint16_t next = static_cast<std::uint16_t>(row[u] + 1);
    for (std::uint32_t i = router_lan_begin_[u]; i < router_lan_begin_[u + 1];
         ++i) {
      const std::uint32_t lan = router_lans_[i];
      if (lan_done[lan]) continue;
      lan_done[lan] = true;
      for (std::uint32_t j = lan_router_begin_[lan];
           j < lan_router_begin_[lan + 1]; ++j)
        reach(lan_routers_[j], next);
    }
  }
  return row;
}

const std::uint16_t* RoutingTable::Plane::origin_row(NodeId origin) const {
  std::atomic<std::uint16_t*>& slot = origin_rows_[origin];
  if (const std::uint16_t* ready = slot.load(std::memory_order_acquire))
    return ready;
  const std::uint32_t router = router_index_[origin];
  if (router != kInvalidId) return publish(slot, bfs({&router, 1}, {}));
  std::vector<std::uint32_t> seeds;
  for (const InterfaceId iface : topology_.node(origin).interfaces)
    for (const Relay& relay : relays(topology_.interface(iface).subnet))
      if (relay.router != kInvalidId) seeds.push_back(relay.router);
  return publish(slot, bfs({}, seeds));
}

const std::uint16_t* RoutingTable::Plane::subnet_row(SubnetId subnet) const {
  std::atomic<std::uint16_t*>& slot = subnet_rows_[subnet];
  if (const std::uint16_t* ready = slot.load(std::memory_order_acquire))
    return ready;
  std::vector<std::uint32_t> seeds[2];
  for_each_seed(subnet, [&](std::uint32_t router, std::uint32_t offset) {
    seeds[offset].push_back(router);
  });
  return publish(slot, bfs(seeds[0], seeds[1]));
}

std::uint32_t RoutingTable::Plane::origin_distance(
    NodeId origin, SubnetId target, const std::uint16_t* row) const {
  if (topology_.interface_on(origin, target)) return 0;
  std::uint32_t best = kFar;
  for_each_seed(target, [&](std::uint32_t router, std::uint32_t offset) {
    best = std::min<std::uint32_t>(best, row[router] + offset);
  });
  // A host origin beside a multi-homed host of the target hands it the
  // probe directly.
  if (best > 1 && router_index_[origin] == kInvalidId) {
    for (const InterfaceId iface : topology_.node(origin).interfaces)
      for (const Relay& relay : relays(topology_.interface(iface).subnet))
        if (relay.router == kInvalidId &&
            topology_.interface_on(relay.node, target))
          best = 1;
  }
  return std::min<std::uint32_t>(best, kFar);
}

void RoutingTable::Plane::find_members(SubnetId target,
                                       const std::uint16_t* row,
                                       std::uint32_t d, Members& m) const {
  if (m.member_of.size() < routers_) m.member_of.resize(routers_, 0);
  m.routers.clear();
  m.level_begin.assign(1, 0);
  const auto admit = [&](std::uint32_t router, std::uint32_t want) {
    if (row[router] != want || m.member_of[router] != 0) return;
    m.routers.push_back(router);
    m.member_of[router] = static_cast<std::uint32_t>(m.routers.size());
  };
  for_each_seed(target, [&](std::uint32_t router, std::uint32_t offset) {
    if (offset == 0) admit(router, d);
  });
  m.level_begin.push_back(static_cast<std::uint32_t>(m.routers.size()));
  // Level k + 1: the +1 seeds (k = 0), and the routers sharing a LAN with a
  // level-k member, each when its R_o is d - k - 1.
  for (std::uint32_t k = 0; k + 1 < d; ++k) {
    const std::uint32_t want = d - k - 1;
    if (k == 0) {
      for_each_seed(target, [&](std::uint32_t router, std::uint32_t offset) {
        if (offset == 1) admit(router, want);
      });
    }
    for (std::uint32_t i = m.level_begin[k]; i < m.level_begin[k + 1]; ++i) {
      const std::uint32_t u = m.routers[i];
      for (std::uint32_t l = router_lan_begin_[u]; l < router_lan_begin_[u + 1];
           ++l) {
        const std::uint32_t lan = router_lans_[l];
        for (std::uint32_t j = lan_router_begin_[lan];
             j < lan_router_begin_[lan + 1]; ++j)
          admit(lan_routers_[j], want);
      }
    }
    if (m.routers.size() == m.level_begin.back()) break;
    m.level_begin.push_back(static_cast<std::uint32_t>(m.routers.size()));
  }
}

const std::uint32_t* RoutingTable::Plane::build_route(
    NodeId origin, SubnetId target) const {
  Members& m = scratch();
  m.hops.clear();
  const std::uint16_t* row = origin_row(origin);
  const std::uint32_t d = origin_distance(origin, target, row);
  std::uint32_t delivering = d == 0 ? 1 : 0;
  if (d == 0 || d == kFar) {
    m.first_hop.assign(2, 0);  // the origin alone, with no next hops
  } else {
    find_members(target, row, d, m);
    delivering = m.level_begin[1];
    m.first_hop.assign(delivering + 1, 0);  // level 0 has no next hops
    const auto enumerate = [&](NodeId from, std::uint32_t level) {
      for_each_next_hop(
          from, level, target,
          [&](std::uint32_t router) { return member_at(m, router, level - 1); },
          [&](const Relay& peer, InterfaceId) {
            m.hops.insert(m.hops.end(),
                          {peer.node, peer.iface,
                           peer.router == kInvalidId
                               ? Route::kNoMember
                               : m.member_of[peer.router] - 1});
          });
      m.first_hop.push_back(static_cast<std::uint32_t>(m.hops.size() / 3));
    };
    for (std::uint32_t level = 1; level + 1 < m.level_begin.size(); ++level)
      for (std::uint32_t i = m.level_begin[level]; i < m.level_begin[level + 1];
           ++i)
        enumerate(router_node_[m.routers[i]], level);
    enumerate(origin, d);
    release(m);
  }

  std::uint32_t* words =
      route_arena_.allocate(1 + m.first_hop.size() + m.hops.size());
  words[0] = static_cast<std::uint32_t>(m.first_hop.size() - 1) |
             delivering << 16;
  std::copy(m.hops.begin(), m.hops.end(),
            std::copy(m.first_hop.begin(), m.first_hop.end(), words + 1));
  return words;
}

const std::uint32_t* RoutingTable::Plane::route(NodeId origin,
                                                SubnetId target) const {
  check(origin, target);
  std::atomic<std::atomic<const std::uint32_t*>*>& array = routes_[origin];
  std::atomic<const std::uint32_t*>* slots =
      array.load(std::memory_order_acquire);
  if (slots == nullptr)
    slots = publish(array, std::make_unique<std::atomic<const std::uint32_t*>[]>(
                               relay_begin_.size() - 1));
  std::atomic<const std::uint32_t*>& slot = slots[target];
  if (const std::uint32_t* ready = slot.load(std::memory_order_acquire))
    return ready;
  // A route that loses the race stays unused in the arena.
  const std::uint32_t* fresh = build_route(origin, target);
  const std::uint32_t* expected = nullptr;
  slot.compare_exchange_strong(expected, fresh, std::memory_order_acq_rel,
                               std::memory_order_acquire);
  return expected == nullptr ? fresh : expected;
}

int RoutingTable::Plane::distance(NodeId from, SubnetId target) const {
  check(from, target);
  const std::uint32_t d = origin_distance(from, target, origin_row(from));
  return d == kFar ? kUnreachable : static_cast<int>(d);
}

std::vector<RoutingTable::NextHop> RoutingTable::Plane::next_hops(
    NodeId from, SubnetId target) const {
  check(from, target);
  std::vector<NextHop> out;
  const std::uint16_t* row = origin_row(from);
  const std::uint32_t d = origin_distance(from, target, row);
  if (d == 0 || d == kFar) return out;
  Members& m = scratch();
  find_members(target, row, d, m);
  for_each_next_hop(
      from, d, target,
      [&](std::uint32_t router) { return member_at(m, router, d - 1); },
      [&](const Relay& peer, InterfaceId egress) {
        out.push_back(NextHop{peer.node, egress, peer.iface});
      });
  release(m);
  return out;
}

InterfaceId RoutingTable::Plane::shortest_path_egress(NodeId from,
                                                      SubnetId toward) const {
  check(from, toward);
  // Attached: the interface on the subnet itself is the egress.
  if (const auto local = topology_.interface_on(from, toward)) return *local;
  const std::uint16_t* row = subnet_row(toward);
  std::uint32_t d = kFar;
  const std::uint32_t router = router_index_[from];
  if (router != kInvalidId) {
    d = row[router];
  } else {
    // A host: one hop past the nearest relay on any of its LANs.
    for (const InterfaceId iface : topology_.node(from).interfaces) {
      for (const Relay& relay : relays(topology_.interface(iface).subnet)) {
        if (relay.router != kInvalidId)
          d = std::min<std::uint32_t>(d, row[relay.router] + 1u);
        else if (topology_.interface_on(relay.node, toward))
          d = std::min<std::uint32_t>(d, 1);
      }
    }
  }
  InterfaceId best = kInvalidId;
  if (d >= kFar) return best;
  for_each_next_hop(
      from, d, toward, [&](std::uint32_t peer) { return row[peer] == d - 1; },
      [&](const Relay&, InterfaceId egress) {
        if (best == kInvalidId ||
            topology_.interface(egress).addr < topology_.interface(best).addr)
          best = egress;
      });
  return best;
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

RoutingTable::Route RoutingTable::route(NodeId origin,
                                        SubnetId target) const {
  return Route(plane().route(origin, target));
}

int RoutingTable::distance(NodeId from, SubnetId target) const {
  return plane().distance(from, target);
}

std::vector<RoutingTable::NextHop> RoutingTable::next_hops(
    NodeId from, SubnetId target) const {
  return plane().next_hops(from, target);
}

InterfaceId RoutingTable::shortest_path_egress(NodeId from,
                                               SubnetId toward_subnet) const {
  return plane().shortest_path_egress(from, toward_subnet);
}

}  // namespace tn::sim
