#include "topo/serialize.h"

#include <charconv>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/strings.h"

namespace tn::topo {

namespace {

const char* policy_name(sim::ResponsePolicy policy) {
  switch (policy) {
    case sim::ResponsePolicy::kNil: return "nil";
    case sim::ResponsePolicy::kProbed: return "probed";
    case sim::ResponsePolicy::kIncoming: return "incoming";
    case sim::ResponsePolicy::kShortestPath: return "shortest-path";
    case sim::ResponsePolicy::kDefault: return "default";
  }
  return "?";
}

std::optional<sim::ResponsePolicy> parse_policy(std::string_view text) {
  if (text == "nil") return sim::ResponsePolicy::kNil;
  if (text == "probed") return sim::ResponsePolicy::kProbed;
  if (text == "incoming") return sim::ResponsePolicy::kIncoming;
  if (text == "shortest-path") return sim::ResponsePolicy::kShortestPath;
  if (text == "default") return sim::ResponsePolicy::kDefault;
  return std::nullopt;
}

const char* profile_name(SubnetProfile profile) {
  switch (profile) {
    case SubnetProfile::kClean: return "clean";
    case SubnetProfile::kDarkTarget: return "dark-target";
    case SubnetProfile::kFirewalled: return "firewalled";
    case SubnetProfile::kSparse: return "sparse";
    case SubnetProfile::kPartialDark: return "partial-dark";
    case SubnetProfile::kOverlapBait: return "overlap-bait";
  }
  return "?";
}

std::optional<SubnetProfile> parse_profile(std::string_view text) {
  if (text == "clean") return SubnetProfile::kClean;
  if (text == "dark-target") return SubnetProfile::kDarkTarget;
  if (text == "firewalled") return SubnetProfile::kFirewalled;
  if (text == "sparse") return SubnetProfile::kSparse;
  if (text == "partial-dark") return SubnetProfile::kPartialDark;
  if (text == "overlap-bait") return SubnetProfile::kOverlapBait;
  return std::nullopt;
}

std::string join_addrs(const std::vector<net::Ipv4Addr>& addrs) {
  std::string out;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    if (i) out += ',';
    out += addrs[i].to_string();
  }
  return out;
}

// The shortest decimal that reads back as exactly `value`.
std::string exact_decimal(double value) {
  char buffer[32];
  const auto written = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, written.ptr);
}

std::vector<net::Ipv4Addr> parse_addrs(std::string_view text) {
  std::vector<net::Ipv4Addr> out;
  if (text.empty()) return out;
  for (const std::string& part : util::split(text, ',')) {
    const auto addr = net::Ipv4Addr::parse(part);
    if (!addr) throw std::invalid_argument("bad address list entry: " + part);
    out.push_back(*addr);
  }
  return out;
}

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::runtime_error("topology file line " + std::to_string(line) +
                           ": " + message);
}

}  // namespace

void write_topology(std::ostream& out, const sim::Topology& topo,
                    const SubnetRegistry* registry) {
  out << "# tracenet simulated topology\n";
  for (sim::NodeId id = 0; id < topo.node_count(); ++id) {
    const sim::Node& node = topo.node(id);
    out << "node " << id << ' ' << (node.is_host ? "host" : "router") << ' '
        << node.name;
    if (topo.per_packet_load_balancing(id)) out << " per-packet-lb";
    out << '\n';
  }
  for (sim::SubnetId id = 0; id < topo.subnet_count(); ++id) {
    const sim::Subnet& subnet = topo.subnet(id);
    out << "subnet " << id << ' ' << subnet.prefix.to_string();
    if (subnet.firewalled) out << " firewalled";
    if (subnet.arp_fail == sim::ArpFailBehavior::kHostUnreachable)
      out << " arp-unreach";
    out << '\n';
  }
  for (sim::InterfaceId id = 0; id < topo.interface_count(); ++id) {
    const sim::Interface& iface = topo.interface(id);
    out << "iface " << iface.node << ' ' << iface.subnet << ' '
        << iface.addr.to_string();
    if (!iface.responsive) out << " dark";
    if (iface.flakiness != 0.0)
      out << " flaky=" << exact_decimal(iface.flakiness);
    out << '\n';
  }
  // Non-default response configs only.
  const sim::ResponseConfig defaults;
  const net::ProbeProtocol protocols[] = {net::ProbeProtocol::kIcmp,
                                          net::ProbeProtocol::kUdp,
                                          net::ProbeProtocol::kTcp};
  const char* protocol_names[] = {"icmp", "udp", "tcp"};
  for (sim::NodeId id = 0; id < topo.node_count(); ++id) {
    for (int p = 0; p < 3; ++p) {
      const sim::ResponseConfig& config = topo.node(id).config_for(protocols[p]);
      if (config.direct == defaults.direct &&
          config.indirect == defaults.indirect &&
          config.default_interface == sim::kInvalidId)
        continue;
      out << "config " << id << ' ' << protocol_names[p] << ' '
          << policy_name(config.direct) << ' ' << policy_name(config.indirect);
      if (config.default_interface != sim::kInvalidId)
        out << ' ' << topo.interface(config.default_interface).addr.to_string();
      out << '\n';
    }
  }
  if (registry != nullptr) {
    for (const GroundTruthSubnet& truth : registry->all()) {
      out << "truth " << truth.prefix.to_string() << ' '
          << profile_name(truth.profile)
          << " target=" << truth.suggested_target.to_string()
          << " assigned=" << join_addrs(truth.assigned)
          << " responsive=" << join_addrs(truth.responsive) << '\n';
    }
  }
}

LoadedTopology read_topology(std::istream& in) {
  LoadedTopology loaded;
  sim::TopologyBuilder topo;
  std::map<std::uint64_t, sim::NodeId> node_ids;
  std::map<std::uint64_t, sim::SubnetId> subnet_ids;

  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const std::vector<std::string> fields = util::split_ws(trimmed);
    const std::string& kind = fields.front();
    try {

    if (kind == "node") {
      if (fields.size() < 4) fail(line_no, "node needs: id kind name");
      std::uint64_t id = 0;
      if (!util::parse_u64(fields[1], id)) fail(line_no, "bad node id");
      if (node_ids.contains(id))
        fail(line_no, "duplicate node id " + fields[1]);
      if (fields[2] != "host" && fields[2] != "router")
        fail(line_no, "unknown node kind " + fields[2]);
      const sim::NodeId actual = fields[2] == "host"
                                     ? topo.add_host(fields[3])
                                     : topo.add_router(fields[3]);
      node_ids[id] = actual;
      for (std::size_t f = 4; f < fields.size(); ++f) {
        if (fields[f] != "per-packet-lb")
          fail(line_no, "unknown node flag " + fields[f]);
        topo.set_per_packet_load_balancing(actual, true);
      }
    } else if (kind == "subnet") {
      if (fields.size() < 3) fail(line_no, "subnet needs: id prefix");
      std::uint64_t id = 0;
      if (!util::parse_u64(fields[1], id)) fail(line_no, "bad subnet id");
      if (subnet_ids.contains(id))
        fail(line_no, "duplicate subnet id " + fields[1]);
      const auto prefix = net::Prefix::parse(fields[2]);
      if (!prefix) fail(line_no, "bad prefix " + fields[2]);
      const sim::SubnetId actual = topo.add_subnet(*prefix);
      subnet_ids[id] = actual;
      for (std::size_t f = 3; f < fields.size(); ++f) {
        if (fields[f] == "firewalled")
          topo.subnet_mut(actual).firewalled = true;
        else if (fields[f] == "arp-unreach")
          topo.subnet_mut(actual).arp_fail =
              sim::ArpFailBehavior::kHostUnreachable;
        else
          fail(line_no, "unknown subnet flag " + fields[f]);
      }
    } else if (kind == "iface") {
      if (fields.size() < 4) fail(line_no, "iface needs: node subnet addr");
      std::uint64_t node = 0, subnet = 0;
      if (!util::parse_u64(fields[1], node) ||
          !util::parse_u64(fields[2], subnet))
        fail(line_no, "bad iface ids");
      const auto addr = net::Ipv4Addr::parse(fields[3]);
      if (!addr) fail(line_no, "bad address " + fields[3]);
      if (!node_ids.contains(node) || !subnet_ids.contains(subnet))
        fail(line_no, "iface references unknown node/subnet");
      const sim::InterfaceId iface =
          topo.attach(node_ids[node], subnet_ids[subnet], *addr);
      sim::Interface& attrs = topo.interface_mut(iface);
      for (std::size_t f = 4; f < fields.size(); ++f) {
        const std::string& flag = fields[f];
        if (flag == "dark") {
          attrs.responsive = false;
        } else if (util::starts_with(flag, "flaky=")) {
          double flakiness = 0.0;
          if (!util::parse_double(flag.substr(6), flakiness) || flakiness > 1.0)
            fail(line_no, "bad flakiness " + flag);
          attrs.flakiness = flakiness;
        } else {
          fail(line_no, "unknown iface flag " + flag);
        }
      }
    } else if (kind == "config") {
      if (fields.size() < 5) fail(line_no, "config needs: node proto direct indirect");
      std::uint64_t node = 0;
      if (!util::parse_u64(fields[1], node) || !node_ids.contains(node))
        fail(line_no, "bad config node");
      net::ProbeProtocol protocol;
      if (fields[2] == "icmp") protocol = net::ProbeProtocol::kIcmp;
      else if (fields[2] == "udp") protocol = net::ProbeProtocol::kUdp;
      else if (fields[2] == "tcp") protocol = net::ProbeProtocol::kTcp;
      else fail(line_no, "bad protocol " + fields[2]);
      sim::ResponseConfig config;
      const auto direct = parse_policy(fields[3]);
      const auto indirect = parse_policy(fields[4]);
      if (!direct || !indirect) fail(line_no, "bad policy");
      config.direct = *direct;
      config.indirect = *indirect;
      if (fields.size() > 5) {
        const auto addr = net::Ipv4Addr::parse(fields[5]);
        if (!addr) fail(line_no, "bad default interface address");
        const auto iface = topo.find_interface(*addr);
        if (!iface) fail(line_no, "default interface address unknown");
        config.default_interface = *iface;
      }
      topo.set_response_config(node_ids[node], protocol, config);
    } else if (kind == "truth") {
      if (fields.size() < 6) fail(line_no, "truth needs 6 fields");
      GroundTruthSubnet truth;
      const auto prefix = net::Prefix::parse(fields[1]);
      if (!prefix) fail(line_no, "bad truth prefix");
      truth.prefix = *prefix;
      const auto profile = parse_profile(fields[2]);
      if (!profile) fail(line_no, "bad profile " + fields[2]);
      truth.profile = *profile;
      for (std::size_t f = 3; f < fields.size(); ++f) {
        const std::string& field = fields[f];
        if (util::starts_with(field, "target=")) {
          const auto addr = net::Ipv4Addr::parse(field.substr(7));
          if (!addr) fail(line_no, "bad target");
          truth.suggested_target = *addr;
        } else if (util::starts_with(field, "assigned=")) {
          truth.assigned = parse_addrs(field.substr(9));
        } else if (util::starts_with(field, "responsive=")) {
          truth.responsive = parse_addrs(field.substr(11));
        } else {
          fail(line_no, "unknown truth field " + field);
        }
      }
      if (const auto id = topo.find_subnet_exact(truth.prefix))
        truth.subnet = *id;
      loaded.registry.add(std::move(truth));
    } else {
      fail(line_no, "unknown record kind " + kind);
    }
    } catch (const std::invalid_argument& error) {
      // Topology validation failures (duplicate address, bad policy, ...)
      // and bad truth address lists become file errors with a line number.
      fail(line_no, error.what());
    }
  }
  loaded.topo = std::move(topo).build();
  return loaded;
}

}  // namespace tn::topo
