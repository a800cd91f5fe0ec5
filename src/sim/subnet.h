// Subnet (LAN) model: a point-to-point link or multi-access segment with a
// CIDR prefix and the set of attached interfaces.
#pragma once

#include <vector>

#include "net/prefix.h"
#include "sim/types.h"

namespace tn::sim {

// What happens when a packet is routed onto the subnet for an address that no
// interface owns (the simulator's stand-in for an ARP timeout).
enum class ArpFailBehavior : std::uint8_t {
  kSilent,           // drop; prober sees no response
  kHostUnreachable,  // last-hop router emits ICMP Host Unreachable
};

struct Subnet {
  SubnetId id = kInvalidId;
  net::Prefix prefix;
  std::vector<InterfaceId> interfaces;

  // Firewalled subnets drop probes *destined into* them at the ingress
  // router, modelling "totally unresponsive subnets ... located behind a
  // firewall which blocks probe packets or their responses" (§4).  Transit
  // forwarding through the subnet is unaffected.
  bool firewalled = false;

  ArpFailBehavior arp_fail = ArpFailBehavior::kSilent;
};

// An interface: one address of one node attached to one subnet.
struct Interface {
  InterfaceId id = kInvalidId;
  net::Ipv4Addr addr;
  NodeId node = kInvalidId;
  SubnetId subnet = kInvalidId;

  // Unresponsive interfaces never source replies (direct probes to them are
  // dropped) — the paper's "partially unresponsive subnet" ingredient.  The
  // node still forwards packets and may reveal other interfaces.
  bool responsive = true;

  // Probability that any single direct reply from this interface is dropped
  // (transient loss / ICMP rate limiting at the host). Resolved by a
  // deterministic hash of (interface, probe sequence number), so runs are
  // reproducible while different probe schedules — e.g. campaigns from
  // different vantage points — observe different drop patterns, the noise
  // behind the paper's cross-vantage disagreement (§4.2).
  double flakiness = 0.0;
};

}  // namespace tn::sim
