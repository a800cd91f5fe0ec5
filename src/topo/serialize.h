// Plain-text serialization of a simulated topology and its ground-truth
// registry, so generated experiment networks can be archived, diffed and
// reloaded without regenerating (and so downstream users can author their
// own networks by hand).
//
// Format (line-oriented, '#' comments):
//   node <id> router|host <name> [per-packet-lb]
//   subnet <id> <prefix> [firewalled] [arp-unreach]
//   iface <node-id> <subnet-id> <addr> [dark] [flaky=<probability>]
//   config <node-id> icmp|udp|tcp <direct-policy> <indirect-policy> [<default-iface-addr>]
//   truth <prefix> <profile> target=<addr> assigned=<a,b,...> responsive=<a,b,...>
//
// Node/subnet ids are re-assigned densely on load; the file's ids only need
// to be internally consistent. The flakiness is written as the shortest
// decimal that reads back as the same double, so a reloaded topology replies
// exactly like the original. Flags are optional, so files written before a
// flag existed still load.
#pragma once

#include <iosfwd>
#include <string>

#include "sim/topology.h"
#include "topo/ground_truth.h"

namespace tn::topo {

// Writes topology (+ optional registry) to `out`.
void write_topology(std::ostream& out, const sim::Topology& topo,
                    const SubnetRegistry* registry = nullptr);

struct LoadedTopology {
  sim::Topology topo;
  SubnetRegistry registry;
};

// Parses what write_topology produced. Throws std::runtime_error with a
// line number on malformed input.
LoadedTopology read_topology(std::istream& in);

}  // namespace tn::topo
