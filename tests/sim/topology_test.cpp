#include "sim/topology.h"

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>
#include <vector>

#include "sim/network.h"
#include "sim/routing.h"
#include "testutil.h"

namespace tn::sim {
namespace {

using test::ip;
using test::pfx;

TEST(Topology, AddAndLookupEntities) {
  TopologyBuilder t;
  const NodeId r = t.add_router("r");
  const NodeId h = t.add_host("h");
  EXPECT_FALSE(t.node(r).is_host);
  EXPECT_TRUE(t.node(h).is_host);

  const SubnetId s = t.add_subnet(pfx("10.0.0.0/30"));
  const InterfaceId i = t.attach(r, s, ip("10.0.0.1"));
  EXPECT_EQ(t.interface(i).addr, ip("10.0.0.1"));
  EXPECT_EQ(t.interface(i).node, r);
  EXPECT_EQ(t.interface(i).subnet, s);
  EXPECT_EQ(t.find_interface(ip("10.0.0.1")), i);
  EXPECT_FALSE(t.find_interface(ip("10.0.0.2")));
}

TEST(Topology, RejectsOverlappingSubnets) {
  TopologyBuilder t;
  t.add_subnet(pfx("10.0.0.0/24"));
  EXPECT_THROW(t.add_subnet(pfx("10.0.0.128/25")), std::invalid_argument);
  EXPECT_THROW(t.add_subnet(pfx("10.0.0.0/16")), std::invalid_argument);
  EXPECT_THROW(t.add_subnet(pfx("10.0.0.0/24")), std::invalid_argument);
  EXPECT_NO_THROW(t.add_subnet(pfx("10.0.1.0/24")));
}

TEST(Topology, AttachValidatesAddress) {
  TopologyBuilder t;
  const NodeId r = t.add_router("r");
  const NodeId r2 = t.add_router("r2");
  const SubnetId s = t.add_subnet(pfx("10.0.0.0/29"));
  // Outside the prefix.
  EXPECT_THROW(t.attach(r, s, ip("10.0.1.1")), std::invalid_argument);
  // Network / broadcast addresses of a classic prefix.
  EXPECT_THROW(t.attach(r, s, ip("10.0.0.0")), std::invalid_argument);
  EXPECT_THROW(t.attach(r, s, ip("10.0.0.7")), std::invalid_argument);
  // Duplicate address.
  t.attach(r, s, ip("10.0.0.1"));
  EXPECT_THROW(t.attach(r2, s, ip("10.0.0.1")), std::invalid_argument);
  // Same node twice on one subnet.
  EXPECT_THROW(t.attach(r, s, ip("10.0.0.2")), std::invalid_argument);
}

TEST(Topology, Slash31AllowsBothAddresses) {
  TopologyBuilder t;
  const NodeId a = t.add_router("a");
  const NodeId b = t.add_router("b");
  const SubnetId s = t.add_subnet(pfx("10.0.0.0/31"));
  EXPECT_NO_THROW(t.attach(a, s, ip("10.0.0.0")));
  EXPECT_NO_THROW(t.attach(b, s, ip("10.0.0.1")));
}

TEST(Topology, FindSubnetContainingUsesLongestMatch) {
  TopologyBuilder t;
  const SubnetId s30 = t.add_subnet(pfx("10.0.0.0/30"));
  const SubnetId s24 = t.add_subnet(pfx("10.1.0.0/24"));
  EXPECT_EQ(t.find_subnet_containing(ip("10.0.0.2")), s30);
  EXPECT_EQ(t.find_subnet_containing(ip("10.1.0.200")), s24);
  EXPECT_FALSE(t.find_subnet_containing(ip("10.2.0.1")));
}

TEST(Topology, ResponseConfigValidation) {
  TopologyBuilder t;
  const NodeId r = t.add_router("r");
  const SubnetId s = t.add_subnet(pfx("10.0.0.0/30"));
  const InterfaceId i = t.attach(r, s, ip("10.0.0.1"));

  ResponseConfig bad;
  bad.indirect = ResponsePolicy::kProbed;  // §3.1(iii): impossible
  EXPECT_THROW(t.set_response_config(r, net::ProbeProtocol::kIcmp, bad),
               std::invalid_argument);

  ResponseConfig needs_default;
  needs_default.indirect = ResponsePolicy::kDefault;
  EXPECT_THROW(t.set_response_config(r, net::ProbeProtocol::kIcmp, needs_default),
               std::invalid_argument);
  needs_default.default_interface = i;
  EXPECT_NO_THROW(
      t.set_response_config(r, net::ProbeProtocol::kIcmp, needs_default));
}

TEST(Topology, DefaultInterfaceMustBelongToNode) {
  TopologyBuilder t;
  const NodeId r = t.add_router("r");
  const NodeId other = t.add_router("other");
  const SubnetId s = t.add_subnet(pfx("10.0.0.0/30"));
  const InterfaceId i = t.attach(other, s, ip("10.0.0.1"));
  ResponseConfig config;
  config.direct = ResponsePolicy::kDefault;
  config.default_interface = i;
  EXPECT_THROW(t.set_response_config(r, net::ProbeProtocol::kIcmp, config),
               std::invalid_argument);
}

TEST(Topology, PerProtocolConfigsAreIndependent) {
  TopologyBuilder t;
  const NodeId r = t.add_router("r");
  ResponseConfig nil;
  nil.direct = ResponsePolicy::kNil;
  nil.indirect = ResponsePolicy::kNil;
  t.set_response_config(r, net::ProbeProtocol::kUdp, nil);
  EXPECT_EQ(t.node(r).config_for(net::ProbeProtocol::kUdp).direct,
            ResponsePolicy::kNil);
  EXPECT_EQ(t.node(r).config_for(net::ProbeProtocol::kIcmp).direct,
            ResponsePolicy::kProbed);
}

// A node's neighbours: the other interfaces on the subnets of its own, as
// (neighbour node, subnet) pairs in attachment order.
template <typename Topo>
std::vector<std::pair<NodeId, SubnetId>> neighbors(const Topo& t, NodeId node) {
  std::vector<std::pair<NodeId, SubnetId>> out;
  for (const InterfaceId own : t.node(node).interfaces) {
    const Subnet& lan = t.subnet(t.interface(own).subnet);
    for (const InterfaceId peer : lan.interfaces)
      if (peer != own) out.emplace_back(t.interface(peer).node, lan.id);
  }
  return out;
}

TEST(Topology, AdjacencyListsAllLanNeighbors) {
  test::Fig3Topology f;
  // R2 is on three subnets: r1-r2 p2p, S (3 peers), close LAN (1 peer).
  const auto links = neighbors(f.topo, f.r2);
  EXPECT_EQ(links.size(), 1u + 3u + 1u);
  int on_s = 0;
  for (const auto& [neighbor, via] : links) on_s += via == f.s;
  EXPECT_EQ(on_s, 3);
}

TEST(Topology, AdjacencyTracksMutation) {
  TopologyBuilder t;
  const NodeId a = t.add_router("a");
  const NodeId b = t.add_router("b");
  const SubnetId s = t.add_subnet(pfx("10.0.0.0/31"));
  t.attach(a, s, ip("10.0.0.0"));
  EXPECT_TRUE(neighbors(t, a).empty());
  t.attach(b, s, ip("10.0.0.1"));
  ASSERT_EQ(neighbors(t, a).size(), 1u);
  EXPECT_EQ(neighbors(t, a)[0].first, b);
}

// Routing state is computed once per snapshot, so nothing may route over a
// topology that can still change.
static_assert(!std::is_constructible_v<Network, const TopologyBuilder&>);
static_assert(!std::is_constructible_v<Network, TopologyBuilder&>);
static_assert(!std::is_constructible_v<RoutingTable, const TopologyBuilder&>);
static_assert(!std::is_constructible_v<RoutingTable, TopologyBuilder&>);
static_assert(!std::is_convertible_v<const TopologyBuilder&, const Topology&>);
static_assert(std::is_constructible_v<Network, const Topology&>);
static_assert(std::is_constructible_v<RoutingTable, const Topology&>);

TEST(Topology, BuildFreezesWhatTheBuilderSet) {
  TopologyBuilder b;
  const NodeId r = b.add_router("r");
  const NodeId h = b.add_host("h");
  const SubnetId s = b.add_subnet(pfx("10.0.0.0/30"));
  const InterfaceId ri = b.attach(r, s, ip("10.0.0.1"));
  const InterfaceId hi = b.attach(h, s, ip("10.0.0.2"));
  b.subnet_mut(s).firewalled = true;
  b.interface_mut(hi).responsive = false;
  b.interface_mut(ri).flakiness = 0.25;
  b.set_per_packet_load_balancing(r, true);
  ResponseConfig nil;
  nil.direct = ResponsePolicy::kNil;
  b.set_response_config(r, net::ProbeProtocol::kUdp, nil);

  const Topology t = std::move(b).build();
  EXPECT_EQ(t.node_count(), 2u);
  EXPECT_TRUE(t.node(h).is_host);
  EXPECT_TRUE(t.subnet(s).firewalled);
  EXPECT_FALSE(t.interface(hi).responsive);
  EXPECT_EQ(t.interface(ri).flakiness, 0.25);
  EXPECT_TRUE(t.per_packet_load_balancing(r));
  EXPECT_FALSE(t.per_packet_load_balancing(h));
  EXPECT_EQ(t.node(r).config_for(net::ProbeProtocol::kUdp).direct,
            ResponsePolicy::kNil);
  EXPECT_EQ(t.find_interface(ip("10.0.0.2")), hi);
  EXPECT_EQ(t.find_subnet_containing(ip("10.0.0.3")), s);
}

// Freezing and reopening hand the storage over; neither copies it.
TEST(Topology, FreezeAndReopenMoveTheStorage) {
  test::Fig3Topology f;
  const Node* node = &f.topo.node(f.r2);
  const Interface* iface = &f.topo.interface(0);

  TopologyBuilder reopened(std::move(f.topo));
  EXPECT_EQ(&reopened.node(f.r2), node);
  EXPECT_EQ(&reopened.interface(0), iface);

  const Topology refrozen = std::move(reopened).build();
  EXPECT_EQ(&refrozen.node(f.r2), node);
  EXPECT_EQ(&refrozen.interface(0), iface);
  const test::Fig3Topology fresh;
  EXPECT_EQ(refrozen.find_interface(f.pivot3),
            fresh.topo.find_interface(f.pivot3));
  EXPECT_EQ(refrozen.find_subnet_containing(f.far_fringe),
            fresh.topo.find_subnet_containing(f.far_fringe));
}

TEST(Topology, InterfaceOnFindsAttachment) {
  test::Fig3Topology f;
  const auto iface = f.topo.interface_on(f.r2, f.s);
  ASSERT_TRUE(iface);
  EXPECT_EQ(f.topo.interface(*iface).addr, f.contra);
  EXPECT_FALSE(f.topo.interface_on(f.r3, f.close_lan));
}

}  // namespace
}  // namespace tn::sim
