#include "sim/routing.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "testutil.h"
#include "topo/isp.h"
#include "topo/reference.h"
#include "util/rng.h"

namespace tn::sim {
namespace {

using test::ip;
using test::pfx;

TEST(Routing, DistanceAlongChain) {
  test::Fig3Topology f;
  RoutingTable routes(f.topo);
  // Distances from vantage to each subnet (router hops to reach a node that
  // can deliver onto the subnet).
  EXPECT_EQ(routes.distance(f.vantage, f.lan_v), 0);
  EXPECT_EQ(routes.distance(f.vantage, f.s), 3);        // via G, R1, R2
  EXPECT_EQ(routes.distance(f.vantage, f.close_lan), 3);
  EXPECT_EQ(routes.distance(f.vantage, f.far_lan), 4);  // via R2 then R4
  EXPECT_EQ(routes.distance(f.r2, f.s), 0);
  EXPECT_EQ(routes.distance(f.r3, f.far_lan), 1);       // R4 delivers onto it
}

TEST(Routing, UnreachableIsland) {
  TopologyBuilder builder;
  const NodeId a = builder.add_router("a");
  const NodeId b = builder.add_router("b");
  const SubnetId sa = builder.add_subnet(pfx("10.0.0.0/31"));
  const SubnetId sb = builder.add_subnet(pfx("10.0.1.0/31"));
  builder.attach(a, sa, ip("10.0.0.0"));
  builder.attach(b, sb, ip("10.0.1.0"));
  const Topology t = std::move(builder).build();
  RoutingTable routes(t);
  EXPECT_EQ(routes.distance(a, sb), RoutingTable::kUnreachable);
  EXPECT_TRUE(routes.next_hops(a, sb).empty());
}

TEST(Routing, NextHopsPointStrictlyCloser) {
  test::Fig3Topology f;
  RoutingTable routes(f.topo);
  const auto hops = routes.next_hops(f.vantage, f.s);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].node, f.gateway);
  const auto hops2 = routes.next_hops(f.gateway, f.s);
  ASSERT_EQ(hops2.size(), 1u);
  EXPECT_EQ(hops2[0].node, f.r1);
}

TEST(Routing, EqualCostPathsYieldMultipleNextHops) {
  // Diamond: src -- a -- dst and src -- b -- dst, both length 2.
  TopologyBuilder builder;
  const NodeId src = builder.add_router("src");
  const NodeId a = builder.add_router("a");
  const NodeId b = builder.add_router("b");
  const NodeId dst = builder.add_router("dst");
  const SubnetId sa = builder.add_subnet(pfx("10.0.0.0/31"));
  const SubnetId sb = builder.add_subnet(pfx("10.0.0.2/31"));
  const SubnetId da = builder.add_subnet(pfx("10.0.0.4/31"));
  const SubnetId db = builder.add_subnet(pfx("10.0.0.6/31"));
  const SubnetId target = builder.add_subnet(pfx("10.0.1.0/30"));
  builder.attach(src, sa, ip("10.0.0.0"));
  builder.attach(a, sa, ip("10.0.0.1"));
  builder.attach(src, sb, ip("10.0.0.2"));
  builder.attach(b, sb, ip("10.0.0.3"));
  builder.attach(a, da, ip("10.0.0.4"));
  builder.attach(dst, da, ip("10.0.0.5"));
  builder.attach(b, db, ip("10.0.0.6"));
  builder.attach(dst, db, ip("10.0.0.7"));
  builder.attach(dst, target, ip("10.0.1.1"));
  const Topology t = std::move(builder).build();

  RoutingTable routes(t);
  EXPECT_EQ(routes.distance(src, target), 2);
  EXPECT_EQ(routes.next_hops(src, target).size(), 2u);
}

TEST(Routing, HostsDoNotForwardTransit) {
  // a -- host -- b: the only "path" from a to b runs through a host, so b's
  // subnet must be unreachable from a.
  TopologyBuilder builder;
  const NodeId a = builder.add_router("a");
  const NodeId h = builder.add_host("h");
  const NodeId b = builder.add_router("b");
  const SubnetId s1 = builder.add_subnet(pfx("10.0.0.0/31"));
  const SubnetId s2 = builder.add_subnet(pfx("10.0.0.2/31"));
  const SubnetId leaf = builder.add_subnet(pfx("10.0.1.0/30"));
  builder.attach(a, s1, ip("10.0.0.0"));
  builder.attach(h, s1, ip("10.0.0.1"));
  builder.attach(h, s2, ip("10.0.0.2"));
  builder.attach(b, s2, ip("10.0.0.3"));
  builder.attach(b, leaf, ip("10.0.1.1"));
  const Topology t = std::move(builder).build();

  RoutingTable routes(t);
  EXPECT_EQ(routes.distance(a, leaf), RoutingTable::kUnreachable);
  // But the host itself can originate toward b.
  EXPECT_EQ(routes.distance(h, leaf), 1);
}

TEST(Routing, ShortestPathEgressPointsBackToSource) {
  test::Fig3Topology f;
  RoutingTable routes(f.topo);
  // From R2, the interface toward the vantage LAN is its r1-r2 address.
  const InterfaceId egress = routes.shortest_path_egress(f.r2, f.lan_v);
  ASSERT_NE(egress, kInvalidId);
  EXPECT_EQ(f.topo.interface(egress).addr, ip("10.0.2.1"));
  // A node attached to the subnet reports its own interface on it.
  const InterfaceId local = routes.shortest_path_egress(f.gateway, f.lan_v);
  EXPECT_EQ(f.topo.interface(local).addr, ip("10.0.0.2"));
}

// Reference implementation for the equivalence pins below: the original
// full-graph BFS (every LAN relaxes every member, hosts guard at the pop)
// that the routing plane in sim/routing.cpp replaced for speed. The
// production table must reproduce its distances and next-hop sets exactly.
std::vector<int> full_graph_distances(const Topology& t, SubnetId target) {
  std::vector<int> dist(t.node_count(), RoutingTable::kUnreachable);
  std::deque<NodeId> queue;
  for (const InterfaceId iface : t.subnet(target).interfaces) {
    const NodeId node = t.interface(iface).node;
    if (dist[node] != 0) {
      dist[node] = 0;
      queue.push_back(node);
    }
  }
  std::vector<bool> lan_done(t.subnet_count(), false);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    if (t.node(u).is_host && dist[u] != 0) continue;
    for (const InterfaceId egress : t.node(u).interfaces) {
      const SubnetId lan_id = t.interface(egress).subnet;
      if (lan_done[lan_id]) continue;
      lan_done[lan_id] = true;
      for (const InterfaceId peer : t.subnet(lan_id).interfaces) {
        const NodeId v = t.interface(peer).node;
        if (dist[v] == RoutingTable::kUnreachable) {
          dist[v] = dist[u] + 1;
          queue.push_back(v);
        }
      }
    }
  }
  return dist;
}

std::vector<RoutingTable::NextHop> full_graph_next_hops(
    const Topology& t, const std::vector<int>& dist, NodeId from) {
  std::vector<RoutingTable::NextHop> out;
  const int d = dist[from];
  if (d <= 0) return out;
  for (const InterfaceId egress : t.node(from).interfaces) {
    const Subnet& lan = t.subnet(t.interface(egress).subnet);
    for (const InterfaceId peer : lan.interfaces) {
      if (peer == egress) continue;
      const NodeId v = t.interface(peer).node;
      if (dist[v] != d - 1) continue;
      if (t.node(v).is_host && dist[v] != 0) continue;
      out.push_back(RoutingTable::NextHop{v, egress, peer});
    }
  }
  return out;
}

void expect_routes_match(const RoutingTable& routes, const Topology& t,
                         SubnetId stride) {
  for (SubnetId s = 0; s < t.subnet_count(); s += stride) {
    const std::vector<int> ref = full_graph_distances(t, s);
    for (NodeId n = 0; n < t.node_count(); ++n) {
      ASSERT_EQ(routes.distance(n, s), ref[n])
          << "node " << n << " subnet " << s;
      const auto got = routes.next_hops(n, s);
      const auto want = full_graph_next_hops(t, ref, n);
      ASSERT_EQ(got.size(), want.size()) << "node " << n << " subnet " << s;
      for (std::size_t i = 0; i < got.size(); ++i) {
        // Element-wise including order: ECMP fan-out order feeds the
        // per-flow hash and round-robin cursors, so a permutation would
        // silently change simulated paths.
        ASSERT_EQ(got[i].node, want[i].node) << "node " << n << " subnet " << s;
        ASSERT_EQ(got[i].egress, want[i].egress);
        ASSERT_EQ(got[i].ingress, want[i].ingress);
      }
    }
  }
}

void expect_routes_match(const Topology& t, SubnetId stride) {
  const RoutingTable routes(t);
  expect_routes_match(routes, t, stride);
}

// A seeded random topology with every kind of route seed the routing plane
// distinguishes: multi-access LANs with several routers (one with a dozen),
// LANs with one router, host-only LANs, multi-homed hosts (the only hosts
// that seed routes, by delivering onto a target they are attached to), and
// an island of routers no transit path from the rest reaches.
struct RandomTopology {
  Topology topo;
  std::size_t multi_homed_hosts = 0;
  std::size_t host_only_lans = 0;
};

// How many of each element random_topology draws. Routers come first, core
// then island, so their NodeIds are their dense routing indices.
struct Shape {
  int core_routers = 24;
  int island_routers = 4;
  int transit_lans = 18;
  int access_lans = 16;
  int hosts = 40;
};

RandomTopology random_topology(std::uint64_t seed, const Shape& shape = {}) {
  util::Rng rng(seed);
  RandomTopology out;
  TopologyBuilder t;
  std::vector<std::uint32_t> next_host;  // by SubnetId: next free address
  const auto lan = [&] {
    const SubnetId id = t.add_subnet(net::Prefix::covering(
        net::Ipv4Addr(0x0A000000u + 16u * static_cast<std::uint32_t>(
                                              t.subnet_count())),
        28));
    next_host.push_back(1);
    return id;
  };
  const auto join = [&](NodeId node, SubnetId subnet) {
    if (t.interface_on(node, subnet) || next_host[subnet] > 14) return;
    t.attach(node, subnet,
             net::Ipv4Addr(t.subnet(subnet).prefix.network().value() +
                           next_host[subnet]++));
  };
  const auto pick = [&](const std::vector<NodeId>& from) {
    return from[rng.below(from.size())];
  };

  std::vector<NodeId> core;
  std::vector<NodeId> island;
  for (int i = 0; i < shape.core_routers; ++i)
    core.push_back(t.add_router("r"));
  for (int i = 0; i < shape.island_routers; ++i)
    island.push_back(t.add_router("i"));
  for (int i = 0; i < shape.transit_lans; ++i) {  // two to four routers each
    const SubnetId s = lan();
    for (std::uint64_t k = 2 + rng.below(3); k > 0; --k) join(pick(core), s);
  }
  const SubnetId backbone = lan();  // a dozen routers on one LAN
  for (std::size_t k = 0; k < 12; ++k)
    join(core[(5 * k + seed) % core.size()], backbone);
  for (std::size_t i = 0; i + 1 < island.size(); ++i) {  // the island's LANs
    const SubnetId s = lan();
    join(island[i], s);
    join(island[i + 1], s);
  }

  std::vector<SubnetId> access;  // LANs hosts live on
  for (int i = 0; i < shape.access_lans; ++i) {
    const SubnetId s = lan();
    access.push_back(s);
    const std::uint64_t routers = rng.below(3);  // 0: a host-only LAN
    for (std::uint64_t k = 0; k < routers; ++k) join(pick(core), s);
    if (routers == 0) ++out.host_only_lans;
  }
  const SubnetId island_access = lan();
  join(island[0], island_access);
  access.push_back(island_access);

  for (int i = 0; i < shape.hosts; ++i) {
    const NodeId h = t.add_host("h");
    join(h, access[rng.below(access.size())]);
    if (rng.chance(0.4)) {  // multi-homed: one or two more LANs of any kind
      for (std::uint64_t k = 1 + rng.below(2); k > 0; --k)
        join(h, static_cast<SubnetId>(rng.below(t.subnet_count())));
    }
    if (t.node(h).interfaces.size() > 1) ++out.multi_homed_hosts;
  }
  out.topo = std::move(t).build();
  return out;
}

TEST(Routing, RoutesMatchFullGraphBfsOnRandomTopologiesWithMultiHomedHosts) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RandomTopology random = random_topology(seed);
    ASSERT_GT(random.multi_homed_hosts, 0u) << "seed " << seed;
    ASSERT_GT(random.host_only_lans, 0u) << "seed " << seed;
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_routes_match(random.topo, 1);
  }
}

// The plane fills distance rows 64 routers per BFS pass. 157 routers make
// two full blocks and a partial third; transit LANs join routers of
// different blocks, and the island's routers are the last ones.
TEST(Routing, RoutesMatchFullGraphBfsAcrossBlockBoundaries) {
  Shape shape;
  shape.core_routers = 150;
  shape.island_routers = 7;
  shape.transit_lans = 90;
  shape.access_lans = 30;
  shape.hosts = 80;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const RandomTopology random = random_topology(seed, shape);
    const Topology& t = random.topo;
    ASSERT_GT(random.multi_homed_hosts, 0u) << "seed " << seed;
    std::size_t cross_block_lans = 0;
    for (SubnetId s = 0; s < t.subnet_count(); ++s) {
      std::vector<NodeId> blocks;
      for (const InterfaceId iface : t.subnet(s).interfaces)
        if (!t.node(t.interface(iface).node).is_host)
          blocks.push_back(t.interface(iface).node / 64);
      if (std::adjacent_find(blocks.begin(), blocks.end(),
                             std::not_equal_to<>()) != blocks.end())
        ++cross_block_lans;
    }
    ASSERT_GT(cross_block_lans, 10u) << "seed " << seed;
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_routes_match(t, 1);
  }
}

// A chain of routers one /31 apart, with a host on a stub LAN at each end:
// the depth of a chain is the number of BFS levels a block's pass runs.
Topology router_chain(std::uint32_t routers) {
  TopologyBuilder t;
  const NodeId head_host = t.add_host("head");
  std::vector<NodeId> chain;
  for (std::uint32_t i = 0; i < routers; ++i)
    chain.push_back(t.add_router("r"));
  const NodeId tail_host = t.add_host("tail");
  const SubnetId head = t.add_subnet(pfx("10.2.0.0/30"));
  const SubnetId tail = t.add_subnet(pfx("10.2.0.4/30"));
  t.attach(head_host, head, ip("10.2.0.1"));
  t.attach(chain.front(), head, ip("10.2.0.2"));
  t.attach(chain.back(), tail, ip("10.2.0.5"));
  t.attach(tail_host, tail, ip("10.2.0.6"));
  for (std::uint32_t i = 0; i + 1 < routers; ++i) {
    const std::uint32_t base = 0x0A010000u + 2 * i;
    const SubnetId link =
        t.add_subnet(net::Prefix::covering(net::Ipv4Addr(base), 31));
    t.attach(chain[i], link, net::Ipv4Addr(base));
    t.attach(chain[i + 1], link, net::Ipv4Addr(base + 1));
  }
  return std::move(t).build();
}

TEST(Routing, RoutesMatchFullGraphBfsOnRouterChains) {
  for (const std::uint32_t routers : {1u, 63u, 64u, 65u, 129u}) {
    SCOPED_TRACE("chain of " + std::to_string(routers));
    const Topology t = router_chain(routers);
    const RoutingTable routes(t);
    // End to end: every router of the chain, then the far stub LAN.
    EXPECT_EQ(routes.distance(0, 1), static_cast<int>(routers));
    expect_routes_match(routes, t, 1);
  }
}

// Every change to a topology is a new snapshot with a table of its own, so
// no table routes over a plane of an older snapshot.
TEST(Routing, CacheInvalidatesOnTopologyChange) {
  // A builder cannot take a router out of forwarding, so that change
  // rebuilds the network with b built as a host. Ids follow creation order,
  // so they agree across rebuilds.
  NodeId a, b, c;
  SubnetId s, leaf, far;
  const auto island = [&](bool b_forwards) {
    TopologyBuilder next;
    a = next.add_router("a");
    b = b_forwards ? next.add_router("b") : next.add_host("b");
    s = next.add_subnet(pfx("10.0.0.0/31"));
    leaf = next.add_subnet(pfx("10.0.1.0/30"));
    next.attach(a, s, ip("10.0.0.0"));
    next.attach(b, leaf, ip("10.0.1.1"));
    return next;
  };
  const auto connect = [&](TopologyBuilder& next) {
    next.attach(b, s, ip("10.0.0.1"));  // connect the island
  };
  const auto extend = [&](TopologyBuilder& next) {  // a second LAN behind b
    c = next.add_router("c");
    const SubnetId bc = next.add_subnet(pfx("10.0.0.2/31"));
    far = next.add_subnet(pfx("10.0.2.0/29"));
    next.attach(b, bc, ip("10.0.0.2"));
    next.attach(c, bc, ip("10.0.0.3"));
    next.attach(c, far, ip("10.0.2.1"));
  };

  Topology t = island(/*b_forwards=*/true).build();
  EXPECT_EQ(RoutingTable(t).distance(a, leaf), RoutingTable::kUnreachable);
  test::edit(t, connect);
  EXPECT_EQ(RoutingTable(t).distance(a, leaf), 1);

  // Route across the LAN behind b, then take b out of forwarding: a loses
  // the far LAN, while b, still on the leaf as a multi-homed host, delivers
  // onto it.
  test::edit(t, extend);
  {
    const RoutingTable routes(t);
    EXPECT_EQ(routes.distance(a, far), 2);
    EXPECT_EQ(routes.distance(c, leaf), 1);
  }
  TopologyBuilder rebuilt = island(/*b_forwards=*/false);
  connect(rebuilt);
  extend(rebuilt);
  t = std::move(rebuilt).build();
  {
    const RoutingTable routes(t);
    EXPECT_EQ(routes.distance(a, far), RoutingTable::kUnreachable);
    EXPECT_EQ(routes.distance(c, leaf), 1);
    EXPECT_EQ(routes.distance(a, leaf), 1);
    expect_routes_match(routes, t, 1);
  }

  // A multi-homed host on a new LAN of a's and on the far LAN delivers for a.
  NodeId h;
  test::edit(t, [&](TopologyBuilder& next) {
    h = next.add_host("h");
    const SubnetId ah = next.add_subnet(pfx("10.0.0.4/31"));
    next.attach(a, ah, ip("10.0.0.4"));
    next.attach(h, ah, ip("10.0.0.5"));
    next.attach(h, far, ip("10.0.2.2"));
  });
  const RoutingTable routes(t);
  EXPECT_EQ(routes.distance(a, far), 1);
  const auto hops = routes.next_hops(a, far);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].node, h);
  expect_routes_match(routes, t, 1);
}

// Route reads are lock-free: four threads race cold queries on one table —
// every distance row is computed and published under contention — and every
// answer must equal a serial table's.
TEST(Routing, ConcurrentColdQueriesMatchSerialTable) {
  const topo::SimulatedInternet internet =
      topo::build_internet(topo::default_isp_profiles(), 7);
  const Topology& t = internet.topo;
  struct Query {
    NodeId from;
    SubnetId target;
    int distance;
    std::vector<RoutingTable::NextHop> hops;
  };
  std::vector<Query> queries;
  {
    const RoutingTable serial(t);
    for (SubnetId s = 0; s < t.subnet_count(); s += 3) {
      for (const NodeId from :
           {internet.vantages[s % internet.vantages.size()],
            static_cast<NodeId>((s * 7919u) % t.node_count())})
        queries.push_back(
            Query{from, s, serial.distance(from, s), serial.next_hops(from, s)});
    }
  }

  const RoutingTable shared(t);
  std::atomic<int> ready{0};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int k = 0; k < 4; ++k) {
    threads.emplace_back([&, k] {
      ready.fetch_add(1);
      while (ready.load() < 4) std::this_thread::yield();
      // Two threads walk forward and two backward, so they meet on cold rows.
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const Query& q = queries[k % 2 == 0 ? i : queries.size() - 1 - i];
        const auto hops = shared.next_hops(q.from, q.target);
        bool same = shared.distance(q.from, q.target) == q.distance &&
                    hops.size() == q.hops.size();
        for (std::size_t j = 0; same && j < hops.size(); ++j)
          same = hops[j].node == q.hops[j].node &&
                 hops[j].egress == q.hops[j].egress &&
                 hops[j].ingress == q.hops[j].ingress;
        if (!same) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(queries.size(), 1000u);
}

TEST(Routing, RoutesMatchFullGraphBfsOnReferenceTopologies) {
  expect_routes_match(topo::internet2_like(42).topo, 1);
  expect_routes_match(topo::geant_like(43).topo, 1);
}

TEST(Routing, RoutesMatchFullGraphBfsOnSimulatedInternetSample) {
  // ISP-scale spot check: every 97th subnet of the 12k-node simulated
  // internet, all nodes — the multi-access /20 LANs here are exactly what
  // the router-slice BFS exists to avoid scanning.
  const topo::SimulatedInternet internet =
      topo::build_internet(topo::default_isp_profiles(), 7);
  expect_routes_match(internet.topo, 97);
}

}  // namespace
}  // namespace tn::sim
