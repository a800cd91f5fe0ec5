#include "sim/topology.h"

#include <stdexcept>

namespace tn::sim {

std::string to_string(ResponsePolicy policy) {
  switch (policy) {
    case ResponsePolicy::kNil: return "nil";
    case ResponsePolicy::kProbed: return "probed";
    case ResponsePolicy::kIncoming: return "incoming";
    case ResponsePolicy::kShortestPath: return "shortest-path";
    case ResponsePolicy::kDefault: return "default";
  }
  return "?";
}

NodeId TopologyBuilder::add_router(std::string name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  Node node;
  node.id = id;
  node.name = std::move(name);
  nodes_.push_back(std::move(node));
  per_packet_lb_.push_back(false);
  return id;
}

NodeId TopologyBuilder::add_host(std::string name) {
  const NodeId id = add_router(std::move(name));
  nodes_[id].is_host = true;
  return id;
}

SubnetId TopologyBuilder::add_subnet(net::Prefix prefix) {
  // Reject overlap with any existing subnet: either could contain the other.
  const SubnetId id = static_cast<SubnetId>(subnets_.size());
  if (const auto existing = subnet_index_.insert(prefix, id))
    throw std::invalid_argument("subnet " + prefix.to_string() +
                                " overlaps existing " +
                                subnets_[*existing].prefix.to_string());
  Subnet subnet;
  subnet.id = id;
  subnet.prefix = prefix;
  subnets_.push_back(std::move(subnet));
  return id;
}

InterfaceId TopologyBuilder::attach(NodeId node_id, SubnetId subnet_id,
                                    net::Ipv4Addr addr) {
  Node& owner = nodes_.at(node_id);
  Subnet& lan = subnets_.at(subnet_id);
  if (!lan.prefix.contains(addr))
    throw std::invalid_argument(addr.to_string() + " outside subnet " +
                                lan.prefix.to_string());
  if (lan.prefix.is_boundary(addr))
    throw std::invalid_argument(addr.to_string() +
                                " is a network/broadcast address of " +
                                lan.prefix.to_string());
  if (interface_index_.find(addr.value()))
    throw std::invalid_argument(addr.to_string() + " already assigned");
  if (interface_on(node_id, subnet_id))
    throw std::invalid_argument(owner.name + " already attached to " +
                                lan.prefix.to_string());

  const InterfaceId id = static_cast<InterfaceId>(interfaces_.size());
  Interface iface;
  iface.id = id;
  iface.addr = addr;
  iface.node = node_id;
  iface.subnet = subnet_id;
  interfaces_.push_back(iface);
  owner.interfaces.push_back(id);
  lan.interfaces.push_back(id);
  interface_index_.insert_or_assign(AddressSlot{addr.value(), id});
  return id;
}

void TopologyBuilder::set_response_config(NodeId node_id,
                                          net::ProbeProtocol protocol,
                                          const ResponseConfig& config) {
  if (config.indirect == ResponsePolicy::kProbed)
    throw std::invalid_argument(
        "a router cannot use the probed-interface policy for indirect probes");
  if ((config.direct == ResponsePolicy::kDefault ||
       config.indirect == ResponsePolicy::kDefault) &&
      config.default_interface == kInvalidId)
    throw std::invalid_argument("default policy requires a default interface");
  if (config.default_interface != kInvalidId &&
      interfaces_.at(config.default_interface).node != node_id)
    throw std::invalid_argument("default interface not owned by node");
  nodes_.at(node_id).config_for(protocol) = config;
}

void TopologyBuilder::set_response_config_all(NodeId node_id,
                                              const ResponseConfig& config) {
  set_response_config(node_id, net::ProbeProtocol::kIcmp, config);
  set_response_config(node_id, net::ProbeProtocol::kUdp, config);
  set_response_config(node_id, net::ProbeProtocol::kTcp, config);
}

void TopologyBuilder::set_per_packet_load_balancing(NodeId node,
                                                    bool enabled) {
  per_packet_lb_.at(node) = enabled;
}

std::optional<InterfaceId> Topology::interface_on(
    NodeId node_id, SubnetId subnet_id) const noexcept {
  for (const InterfaceId iface_id : nodes_.at(node_id).interfaces)
    if (interfaces_[iface_id].subnet == subnet_id) return iface_id;
  return std::nullopt;
}

}  // namespace tn::sim
