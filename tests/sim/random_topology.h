// A seeded random topology generator shared by the routing and walk tests.
#pragma once

#include <cstdint>
#include <vector>

#include "net/prefix.h"
#include "sim/topology.h"
#include "util/rng.h"

namespace tn::sim {

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

inline RandomTopology random_topology(std::uint64_t seed,
                                      const Shape& shape = {}) {
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

}  // namespace tn::sim
