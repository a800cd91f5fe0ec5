#include "topo/isp.h"

#include <algorithm>

#include "topo/address_pool.h"
#include "util/rng.h"

namespace tn::topo {

namespace {

class InternetBuilder {
 public:
  explicit InternetBuilder(std::uint64_t seed)
      : rng_(seed), infra_pool_(*net::Prefix::parse("198.18.0.0/15"), rng_) {}

  SimulatedInternet build(const std::vector<IspProfile>& profiles) {
    build_transit_fabric();
    for (std::size_t i = 0; i < profiles.size(); ++i)
      add_isp(profiles[i], i);
    out_.topo = std::move(topo_).build();
    return std::move(out_);
  }

 private:
  static constexpr int kTransitRouters = 7;

  void build_transit_fabric() {
    for (int i = 0; i < kTransitRouters; ++i)
      transit_.push_back(topo_.add_router("transit" + std::to_string(i)));
    for (int i = 0; i < kTransitRouters; ++i)
      link_infra(transit_[i], transit_[(i + 1) % kTransitRouters]);

    // Three vantage hosts at spread-out transit routers (the PlanetLab sites
    // at Rice, UMass, UOregon of §4.2).
    const char* names[] = {"Rice", "UMass", "UOregon"};
    const int spots[] = {0, 2, 4};
    for (int v = 0; v < 3; ++v) {
      const sim::NodeId host = topo_.add_host(names[v]);
      const auto access = topo_.add_subnet(infra_pool_.allocate(30));
      const net::Prefix prefix = topo_.subnet(access).prefix;
      topo_.attach(host, access, prefix.at(1));
      topo_.attach(transit_[spots[v]], access, prefix.at(2));
      out_.vantages.push_back(host);
      out_.vantage_names.push_back(names[v]);
    }
  }

  void link_infra(sim::NodeId a, sim::NodeId b) {
    const auto subnet = topo_.add_subnet(infra_pool_.allocate(31));
    const net::Prefix prefix = topo_.subnet(subnet).prefix;
    topo_.attach(a, subnet, prefix.at(0));
    topo_.attach(b, subnet, prefix.at(1));
  }

  // --- One ISP ---------------------------------------------------------------

  struct IspState {
    AddressPool pool;
    std::vector<sim::NodeId> cores;
    std::vector<sim::NodeId> attach_points;
    std::vector<sim::NodeId> routers;  // all ISP routers (for protocol configs)
  };

  void add_isp(const IspProfile& profile, std::size_t index) {
    SimulatedInternet::Isp isp;
    isp.name = profile.name;
    IspState state{AddressPool(profile.block, rng_), {}, {}, {}};

    // Core ring.
    for (int i = 0; i < profile.core_routers; ++i) {
      const sim::NodeId core =
          topo_.add_router(profile.name + "-core" + std::to_string(i));
      state.cores.push_back(core);
      state.routers.push_back(core);
    }
    for (int i = 0; i < profile.core_routers; ++i)
      link_isp(state, state.cores[i],
               state.cores[(i + 1) % state.cores.size()]);
    for (const sim::NodeId core : state.cores)
      if (rng_.chance(profile.per_packet_lb_fraction))
        topo_.set_per_packet_load_balancing(core, true);

    // Borders: each core selected as border connects to a *different*
    // transit router, so each vantage point enters through another door.
    for (int b = 0; b < profile.border_count; ++b) {
      const sim::NodeId border =
          state.cores[(b * state.cores.size() / profile.border_count) %
                      state.cores.size()];
      const sim::NodeId uplink =
          transit_[(index * 2 + b * 3) % transit_.size()];
      link_infra(border, uplink);
      isp.borders.push_back(border);
    }
    state.attach_points = state.cores;

    // Point-to-point chains first, then LANs (mirrors the reference builder).
    std::vector<int> p2p_lengths, lan_lengths;
    for (const auto& [length, count] : profile.subnet_counts)
      for (int i = 0; i < count; ++i)
        (length >= 30 ? p2p_lengths : lan_lengths).push_back(length);
    rng_.shuffle(p2p_lengths);
    rng_.shuffle(lan_lengths);

    for (const int length : p2p_lengths) add_p2p(profile, state, isp, length);
    for (const int length : lan_lengths) add_lan(profile, state, isp, length);

    configure_probe_behaviour(profile, state);

    // Response flakiness on every interface inside the ISP's block.
    for (sim::InterfaceId i = 0; i < topo_.interface_count(); ++i) {
      sim::Interface& iface = topo_.interface_mut(i);
      if (profile.block.contains(iface.addr)) iface.flakiness = profile.response_flakiness;
    }

    out_.isps.push_back(std::move(isp));
  }

  // Internal ISP link from the ISP's own block (registered nowhere: ring
  // links are the unpublished backbone; they still show up in traces).
  void link_isp(IspState& state, sim::NodeId a, sim::NodeId b) {
    const net::Prefix prefix = state.pool.allocate(31);
    const auto subnet = topo_.add_subnet(prefix);
    topo_.attach(a, subnet, prefix.at(0));
    topo_.attach(b, subnet, prefix.at(1));
  }

  sim::NodeId random_attach_point(IspState& state) {
    return state.attach_points[rng_.below(state.attach_points.size())];
  }

  void add_p2p(const IspProfile& profile, IspState& state,
               SimulatedInternet::Isp& isp, int length) {
    const net::Prefix prefix = state.pool.allocate(length);
    const auto subnet = topo_.add_subnet(prefix);
    const sim::NodeId parent = random_attach_point(state);

    // Mesh chord: connect two existing routers instead of growing a chain.
    sim::NodeId child = sim::kInvalidId;
    bool is_chord = false;
    if (rng_.chance(profile.mesh_link_fraction)) {
      for (int attempt = 0; attempt < 8 && child == sim::kInvalidId; ++attempt) {
        const sim::NodeId candidate = random_attach_point(state);
        if (candidate != parent && !topo_.interface_on(candidate, subnet))
          child = candidate;
      }
      is_chord = child != sim::kInvalidId;
    }
    if (child == sim::kInvalidId) {
      child = topo_.add_router(
          profile.name + "-r" + std::to_string(topo_.node_count()));
      state.routers.push_back(child);
    }

    const net::Ipv4Addr near_addr = length == 31 ? prefix.at(0) : prefix.at(1);
    const net::Ipv4Addr far_addr = length == 31 ? prefix.at(1) : prefix.at(2);
    const auto near_iface = topo_.attach(parent, subnet, near_addr);
    topo_.attach(child, subnet, far_addr);

    GroundTruthSubnet truth;
    truth.prefix = prefix;
    truth.subnet = subnet;
    truth.assigned = {near_addr, far_addr};
    truth.suggested_target = far_addr;

    if (!is_chord && rng_.chance(profile.firewalled_fraction)) {
      truth.profile = SubnetProfile::kFirewalled;
      topo_.subnet_mut(subnet).firewalled = true;
    } else if (rng_.chance(profile.partial_dark_fraction)) {
      // Near side dark: the far side answers but no mate is reachable, so
      // the target usually ends up un-subnetized (Figure 7's right bars).
      truth.profile = SubnetProfile::kPartialDark;
      topo_.interface_mut(near_iface).responsive = false;
      truth.responsive = {far_addr};
      if (!is_chord) state.attach_points.push_back(child);
    } else {
      truth.profile = SubnetProfile::kClean;
      truth.responsive = truth.assigned;
      if (!is_chord) state.attach_points.push_back(child);
    }
    if (rng_.chance(profile.p2p_target_fraction))
      isp.targets.push_back(truth.suggested_target);
    isp.registry.add(std::move(truth));
  }

  void add_lan(const IspProfile& profile, IspState& state,
               SimulatedInternet::Isp& isp, int length) {
    const net::Prefix prefix = state.pool.allocate(length);
    const auto subnet = topo_.add_subnet(prefix);
    const sim::NodeId ingress = random_attach_point(state);

    GroundTruthSubnet truth;
    truth.prefix = prefix;
    truth.subnet = subnet;
    truth.profile = SubnetProfile::kClean;

    const bool firewalled = rng_.chance(profile.firewalled_fraction);
    const bool partial_dark =
        !firewalled && rng_.chance(profile.partial_dark_fraction);
    const bool multi_homed = rng_.chance(profile.multi_homed_lan_fraction);
    if (firewalled) {
      truth.profile = SubnetProfile::kFirewalled;
      topo_.subnet_mut(subnet).firewalled = true;
    } else if (partial_dark) {
      truth.profile = SubnetProfile::kPartialDark;
    }

    // Membership: the ingress interface plus `utilization`-many hosts at
    // random offsets.
    const std::uint64_t capacity = prefix.capacity();
    const auto member_count = static_cast<std::uint64_t>(
        std::max(2.0, static_cast<double>(capacity) * profile.lan_utilization));
    std::vector<std::uint64_t> offsets;
    for (std::uint64_t i = 1; i <= capacity; ++i) offsets.push_back(i);
    rng_.shuffle(offsets);
    offsets.resize(std::min<std::uint64_t>(member_count, offsets.size()));
    std::sort(offsets.begin(), offsets.end());

    bool ingress_attached = false;
    for (const std::uint64_t offset : offsets) {
      const net::Ipv4Addr addr = prefix.at(offset);
      sim::InterfaceId iface;
      if (!ingress_attached) {
        iface = topo_.attach(ingress, subnet, addr);
        ingress_attached = true;
      } else if (multi_homed && truth.assigned.size() == 1) {
        // Second ingress router: entry-point-dependent exploration.
        const sim::NodeId second = random_attach_point(state);
        if (second != ingress &&
            !topo_.interface_on(second, subnet)) {
          iface = topo_.attach(second, subnet, addr);
        } else {
          const sim::NodeId member = topo_.add_host(
              profile.name + "-h" + std::to_string(topo_.node_count()));
          iface = topo_.attach(member, subnet, addr);
        }
      } else {
        const sim::NodeId member = topo_.add_host(
            profile.name + "-h" + std::to_string(topo_.node_count()));
        iface = topo_.attach(member, subnet, addr);
      }
      // Partial darkness: the ingress side and a majority of members are
      // silent, leaving islands that under-estimate or un-subnetize.
      bool responsive = true;
      if (truth.profile == SubnetProfile::kPartialDark)
        responsive = truth.assigned.empty() ? rng_.chance(0.5)
                                            : rng_.chance(0.35);
      topo_.interface_mut(iface).responsive = responsive;
      truth.assigned.push_back(addr);
      if (responsive && !firewalled) truth.responsive.push_back(addr);
    }

    // Targets: responsive members (never the ingress interface), more for
    // large LANs so Figure 7's per-IP accounting has substance.
    const int target_count = std::max<int>(
        profile.targets_per_lan, static_cast<int>(truth.assigned.size() / 128));
    std::vector<net::Ipv4Addr> pool =
        truth.responsive.size() > 1
            ? std::vector<net::Ipv4Addr>(truth.responsive.begin() + 1,
                                         truth.responsive.end())
            : truth.assigned;
    rng_.shuffle(pool);
    for (int t = 0; t < target_count && t < static_cast<int>(pool.size()); ++t)
      isp.targets.push_back(pool[t]);
    truth.suggested_target = pool.empty() ? truth.assigned.back() : pool.front();

    isp.registry.add(std::move(truth));
  }

  void configure_probe_behaviour(const IspProfile& profile, IspState& state) {
    // "Unresponsive to UDP/TCP" means the node does not *answer* such probes
    // (no port-unreachable / RST); TTL-exceeded generation is ICMP-layer and
    // keeps working — which is why TCP traceroute penetrates while TCP
    // tracenet collects almost nothing (Table 3).
    sim::ResponseConfig nil;
    nil.direct = sim::ResponsePolicy::kNil;
    nil.indirect = sim::ResponsePolicy::kIncoming;
    for (const sim::NodeId router : state.routers) {
      if (!rng_.chance(profile.udp_responsive_fraction))
        topo_.set_response_config(router, net::ProbeProtocol::kUdp, nil);
      if (!rng_.chance(profile.tcp_responsive_fraction))
        topo_.set_response_config(router, net::ProbeProtocol::kTcp, nil);
      if (rng_.chance(profile.rate_limited_router_fraction))
        out_.rate_limit_plan.emplace_back(router, profile.rate_limit_pps);
    }
    // Hosts get the same per-node protocol lottery.
    for (sim::NodeId node = 0; node < topo_.node_count(); ++node) {
      const sim::Node& n = topo_.node(node);
      if (!n.is_host || n.name.rfind(profile.name + "-h", 0) != 0) continue;
      if (!rng_.chance(profile.udp_responsive_fraction))
        topo_.set_response_config(node, net::ProbeProtocol::kUdp, nil);
      if (!rng_.chance(profile.tcp_responsive_fraction))
        topo_.set_response_config(node, net::ProbeProtocol::kTcp, nil);
    }
  }

  util::Rng rng_;
  AddressPool infra_pool_;
  sim::TopologyBuilder topo_;
  SimulatedInternet out_;
  std::vector<sim::NodeId> transit_;
};

}  // namespace

std::vector<net::Ipv4Addr> SimulatedInternet::all_targets() const {
  std::vector<net::Ipv4Addr> out;
  for (const Isp& isp : isps)
    out.insert(out.end(), isp.targets.begin(), isp.targets.end());
  return out;
}

std::vector<IspProfile> default_isp_profiles() {
  std::vector<IspProfile> profiles(4);

  profiles[0].name = "SprintLink";
  profiles[0].block = *net::Prefix::parse("24.0.0.0/10");
  profiles[0].core_routers = 10;
  profiles[0].subnet_counts = {{31, 400}, {30, 440}, {29, 100}, {28, 14},
                               {27, 4},   {26, 2},   {25, 1},  {24, 8}};
  profiles[0].firewalled_fraction = 0.10;
  profiles[0].partial_dark_fraction = 0.35;
  profiles[0].rate_limited_router_fraction = 0.25;
  profiles[0].rate_limit_pps = 60.0;
  profiles[0].udp_responsive_fraction = 0.55;
  profiles[0].tcp_responsive_fraction = 0.03;
  profiles[0].multi_homed_lan_fraction = 0.10;
  profiles[0].response_flakiness = 0.34;
  profiles[0].mesh_link_fraction = 0.5;
  profiles[0].p2p_target_fraction = 0.25;

  profiles[1].name = "NTTAmerica";
  profiles[1].block = *net::Prefix::parse("60.0.0.0/10");
  profiles[1].core_routers = 8;
  profiles[1].subnet_counts = {{31, 90}, {30, 110}, {29, 30}, {28, 5},
                               {27, 2},  {26, 1},   {25, 1},  {24, 6},
                               {22, 2},  {21, 1},   {20, 1}};
  profiles[1].firewalled_fraction = 0.03;
  profiles[1].partial_dark_fraction = 0.08;
  profiles[1].rate_limited_router_fraction = 0.05;
  profiles[1].udp_responsive_fraction = 0.10;
  profiles[1].tcp_responsive_fraction = 0.004;
  profiles[1].lan_utilization = 0.70;
  profiles[1].response_flakiness = 0.15;

  profiles[2].name = "Level3";
  profiles[2].block = *net::Prefix::parse("68.0.0.0/10");
  profiles[2].core_routers = 10;
  profiles[2].subnet_counts = {{31, 260}, {30, 250}, {29, 60}, {28, 8},
                               {27, 3},   {26, 2},   {25, 1},  {24, 6}};
  profiles[2].firewalled_fraction = 0.06;
  profiles[2].partial_dark_fraction = 0.20;
  profiles[2].rate_limited_router_fraction = 0.12;
  profiles[2].udp_responsive_fraction = 0.45;
  profiles[2].tcp_responsive_fraction = 0.012;
  profiles[2].response_flakiness = 0.28;

  profiles[3].name = "AboveNET";
  profiles[3].block = *net::Prefix::parse("76.0.0.0/10");
  profiles[3].core_routers = 8;
  profiles[3].subnet_counts = {{31, 160}, {30, 170}, {29, 40}, {28, 6},
                               {27, 2},   {26, 1},   {25, 1},  {24, 5}};
  profiles[3].firewalled_fraction = 0.05;
  profiles[3].partial_dark_fraction = 0.15;
  profiles[3].rate_limited_router_fraction = 0.10;
  profiles[3].udp_responsive_fraction = 0.48;
  profiles[3].tcp_responsive_fraction = 0.05;
  profiles[3].response_flakiness = 0.24;

  return profiles;
}

SimulatedInternet build_internet(const std::vector<IspProfile>& profiles,
                                 std::uint64_t seed) {
  InternetBuilder builder(seed);
  return builder.build(profiles);
}

}  // namespace tn::topo
