// Router / host model with the paper's response-policy taxonomy.
//
// §3.1(iii): "routers on the Internet are configured with five types of
// response policies: nil interface routers are configured not to respond to
// any probe packet; probed interface routers respond with the address of the
// probed interface; incoming interface routers respond with the address of
// the interface through which the probe packet has entered into the router;
// shortest-path interface routers respond with the address of the interface
// that has the shortest path from the router back to the probe originator;
// and default interface routers respond with a pre-designated default IP
// address."  Policies are configured separately per probe protocol, which is
// how Table 3's ICMP >> UDP >> TCP responsiveness arises.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "net/packet.h"
#include "sim/types.h"

namespace tn::sim {

enum class ResponsePolicy : std::uint8_t {
  kNil,           // never respond
  kProbed,        // address that was probed (direct probes only)
  kIncoming,      // address of the interface the probe arrived on
  kShortestPath,  // address of the interface toward the probe source
  kDefault,       // a fixed pre-designated address
};

std::string to_string(ResponsePolicy policy);

// Response behaviour of one node for one probe protocol.
struct ResponseConfig {
  // Policy for direct probes (probe destined to one of this node's
  // addresses). kProbed is the common case on the real Internet.
  ResponsePolicy direct = ResponsePolicy::kProbed;

  // Policy for indirect probes (TTL expiry at this node). A router cannot be
  // a probed-interface router for indirect queries (§3.1(iii)); the Topology
  // builder rejects kProbed here.
  ResponsePolicy indirect = ResponsePolicy::kIncoming;

  // Interface whose address is used under kDefault (either field).
  InterfaceId default_interface = kInvalidId;
};

struct Node {
  NodeId id = kInvalidId;
  std::string name;
  bool is_host = false;  // hosts never forward transit packets
  std::vector<InterfaceId> interfaces;

  // Response configuration per probe protocol, indexed by ProbeProtocol.
  std::array<ResponseConfig, 3> response;

  const ResponseConfig& config_for(net::ProbeProtocol protocol) const noexcept {
    return response[static_cast<std::size_t>(protocol)];
  }
  ResponseConfig& config_for(net::ProbeProtocol protocol) noexcept {
    return response[static_cast<std::size_t>(protocol)];
  }
};

}  // namespace tn::sim
