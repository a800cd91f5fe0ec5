// Topology: an immutable snapshot of nodes, subnets and interfaces, plus
// the lookup structures the forwarding plane needs: address -> interface (a
// flat open-addressing util::FlatTable, one lookup per simulated packet) and
// longest-prefix-match address -> subnet (a sorted PrefixIndex). A node's
// neighbours are the other interfaces on the subnets of its interfaces.
//
// A topology has two stages. TopologyBuilder holds every mutator and builds
// incrementally; structural invariants (addresses inside the subnet prefix,
// no duplicates, no classic boundary addresses, no probed-interface policy
// for indirect replies) are enforced at mutation time with
// std::invalid_argument — a topology that builds is valid by construction.
// std::move(builder).build() freezes it into a Topology, which has const
// accessors only. Network and RoutingTable accept nothing else, so routing
// state computed from a topology never goes stale. A change to a topology
// (a §3.7 routing update, a scorecard variant) is a new snapshot: move the
// old one into a builder, edit it and build again. Freezing and reopening
// move the storage; neither copies it.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/ipv4.h"
#include "net/prefix.h"
#include "net/prefix_index.h"
#include "sim/router.h"
#include "sim/subnet.h"
#include "sim/types.h"
#include "util/flat_table.h"

namespace tn::sim {

class Topology {
 public:
  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t subnet_count() const noexcept { return subnets_.size(); }
  std::size_t interface_count() const noexcept { return interfaces_.size(); }

  const Node& node(NodeId id) const { return nodes_.at(id); }
  const Subnet& subnet(SubnetId id) const { return subnets_.at(id); }
  const Interface& interface(InterfaceId id) const { return interfaces_.at(id); }

  bool per_packet_load_balancing(NodeId node) const {
    return per_packet_lb_.at(node);
  }

  // Exact address lookup.
  std::optional<InterfaceId> find_interface(net::Ipv4Addr addr) const noexcept {
    const AddressSlot* slot = interface_index_.find(addr.value());
    if (slot == nullptr) return std::nullopt;
    return slot->iface;
  }

  // Longest-prefix-match over subnet prefixes (one binary search: subnets
  // are disjoint, so the match is unique).
  std::optional<SubnetId> find_subnet_containing(net::Ipv4Addr addr) const noexcept {
    return subnet_index_.find(addr);
  }

  std::optional<SubnetId> find_subnet_exact(const net::Prefix& prefix) const noexcept {
    return subnet_index_.find_exact(prefix);
  }

  // The node's interface on `subnet`, if attached.
  std::optional<InterfaceId> interface_on(NodeId node, SubnetId subnet) const noexcept;

 private:
  friend class TopologyBuilder;

  std::vector<Node> nodes_;
  std::vector<Subnet> subnets_;
  std::vector<Interface> interfaces_;
  std::vector<bool> per_packet_lb_;

  // One address-index entry. An empty slot holds kInvalidId, so every
  // address, 0.0.0.0 included, can be a key.
  struct AddressSlot {
    using Key = std::uint32_t;

    std::uint32_t addr = 0;
    InterfaceId iface = kInvalidId;

    bool empty() const noexcept { return iface == kInvalidId; }
    Key key() const noexcept { return addr; }
    static std::uint64_t hash(Key addr) noexcept { return addr; }
  };

  // Interface address -> InterfaceId, kept at most half full so that a miss
  // (most exploration probes aim at unassigned addresses) ends within a few
  // slots.
  util::FlatTable<AddressSlot, 50> interface_index_;
  net::PrefixIndex subnet_index_;  // subnet prefix -> SubnetId
};

// The mutable stage of a Topology: every mutator, plus the snapshot's const
// accessors so that a builder can read what it has built so far. It is not
// a Topology: nothing can route over it until it is frozen.
class TopologyBuilder : private Topology {
 public:
  TopologyBuilder() = default;

  // Reopens a snapshot to derive a variant of it. The snapshot is moved in:
  // copying a large topology would cost a good share of a campaign's set-up.
  explicit TopologyBuilder(Topology&& snapshot)
      : Topology(std::move(snapshot)) {}

  // Freezes what was built into a snapshot; the builder is spent.
  Topology build() && { return static_cast<Topology&&>(*this); }

  NodeId add_router(std::string name);
  NodeId add_host(std::string name);

  // Adds a LAN. Throws if `prefix` overlaps an existing subnet (the Internet
  // core never announces nested LAN prefixes; keeping them disjoint makes
  // longest-prefix match unambiguous).
  SubnetId add_subnet(net::Prefix prefix);

  // Attaches `node` to `subnet` with address `addr`.  Throws when addr is
  // outside the prefix, already assigned, a network/broadcast address of a
  // /30-or-shorter prefix, or when the node is already on the subnet.
  InterfaceId attach(NodeId node, SubnetId subnet, net::Ipv4Addr addr);

  // Sets the per-protocol response configuration of a node (validates that
  // indirect policy is not kProbed and kDefault has a default interface).
  void set_response_config(NodeId node, net::ProbeProtocol protocol,
                           const ResponseConfig& config);
  void set_response_config_all(NodeId node, const ResponseConfig& config);

  // Marks a node as a per-packet load balancer (round-robin over equal-cost
  // next hops; the source of §3.7's path fluctuations).
  void set_per_packet_load_balancing(NodeId node, bool enabled);

  // Per-subnet and per-interface attributes (firewalling, ARP failure,
  // responsiveness, flakiness); their structural fields must not change.
  Subnet& subnet_mut(SubnetId id) { return subnets_.at(id); }
  Interface& interface_mut(InterfaceId id) { return interfaces_.at(id); }

  using Topology::node_count;
  using Topology::subnet_count;
  using Topology::interface_count;
  using Topology::node;
  using Topology::subnet;
  using Topology::interface;
  using Topology::per_packet_load_balancing;
  using Topology::find_interface;
  using Topology::find_subnet_containing;
  using Topology::find_subnet_exact;
  using Topology::interface_on;
};

}  // namespace tn::sim
