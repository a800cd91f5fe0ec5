#include "topo/reference.h"

#include <algorithm>
#include <unordered_map>

#include "topo/address_pool.h"
#include "util/rng.h"

namespace tn::topo {

namespace {

// Assembles one topology according to `rows`. Kept as a class to share state
// between the construction phases.
class Builder {
 public:
  Builder(std::string name, net::Prefix block, std::uint64_t seed)
      : rng_(seed),
        pool_(block, rng_),
        infra_pool_(*net::Prefix::parse("198.18.0.0/16"), rng_) {
    out_.name = std::move(name);
  }

  ReferenceTopology build(std::span<const ReferenceRow> rows, int core_count) {
    build_backbone(core_count);

    // Registered point-to-point links first (they form the tree the LANs
    // hang off), then LANs; within each phase the rows are interleaved
    // randomly so profiles spread over the whole topology.
    std::vector<ReferenceRow> p2p_rows, lan_rows;
    for (const ReferenceRow& row : rows)
      (row.prefix_length >= 30 ? p2p_rows : lan_rows).push_back(row);

    for (const ReferenceRow& row : expand_shuffled(p2p_rows)) add_p2p(row);
    for (const ReferenceRow& row : expand_shuffled(lan_rows)) add_lan(row);

    for (const GroundTruthSubnet& subnet : out_.registry.all())
      out_.targets.push_back(subnet.suggested_target);
    out_.topo = std::move(topo_).build();
    return std::move(out_);
  }

 private:
  // Expands rows into one entry per subnet, shuffled.
  std::vector<ReferenceRow> expand_shuffled(const std::vector<ReferenceRow>& rows) {
    std::vector<ReferenceRow> expanded;
    for (const ReferenceRow& row : rows)
      for (int i = 0; i < row.count; ++i) expanded.push_back(row);
    rng_.shuffle(expanded);
    return expanded;
  }

  void build_backbone(int core_count) {
    out_.vantage = topo_.add_host("vantage");
    const sim::NodeId edge = topo_.add_router("edge");
    const auto access = topo_.add_subnet(infra_pool_.allocate(30));
    topo_.attach(out_.vantage, access, topo_.subnet(access).prefix.at(1));
    topo_.attach(edge, access, topo_.subnet(access).prefix.at(2));

    cores_.clear();
    for (int i = 0; i < core_count; ++i)
      cores_.push_back(topo_.add_router("core" + std::to_string(i)));
    // Edge joins core 0 (infrastructure /31).
    link_infra(edge, cores_[0]);
    // Unregistered ring: shortest paths around an odd-sized ring are unique,
    // and antipodal ring links would not be reliably on-path anyway (see
    // DESIGN.md), matching the paper's note that reference networks contain
    // links tracenet cannot see.
    for (int i = 0; i < core_count; ++i)
      link_infra(cores_[i], cores_[(i + 1) % cores_.size()]);

    attach_points_ = cores_;
    for (int i = 0; i < core_count; ++i) {
      const int ring_distance = std::min(i, core_count - i);
      depth_[cores_[i]] = 2 + ring_distance;  // vantage -> edge -> core0 ...
    }
  }

  void link_infra(sim::NodeId a, sim::NodeId b) {
    const auto subnet = topo_.add_subnet(infra_pool_.allocate(31));
    const net::Prefix prefix = topo_.subnet(subnet).prefix;
    topo_.attach(a, subnet, prefix.at(0));
    topo_.attach(b, subnet, prefix.at(1));
  }

  // Random attachment biased away from very deep chains so every target
  // stays well inside traceroute's TTL budget.
  sim::NodeId random_attach_point() {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const sim::NodeId node = attach_points_[rng_.below(attach_points_.size())];
      if (depth_[node] < 18) return node;
    }
    return cores_[rng_.below(cores_.size())];
  }

  // --- Registered point-to-point subnets ------------------------------------

  void add_p2p(const ReferenceRow& row) {
    // The overestimation bait needs its unpublished twin inside the same
    // /29 growth window, so it takes the lower half of a /29 allocation.
    const net::Prefix prefix =
        row.profile == SubnetProfile::kOverlapBait && row.prefix_length == 30
            ? pool_.allocate(29).lower_half()
            : pool_.allocate(row.prefix_length);
    const sim::NodeId parent = random_attach_point();
    const sim::NodeId child =
        topo_.add_router("r" + std::to_string(topo_.node_count()));
    const auto subnet = topo_.add_subnet(prefix);

    const net::Ipv4Addr near_addr =
        row.prefix_length == 31 ? prefix.at(0) : prefix.at(1);
    const net::Ipv4Addr far_addr =
        row.prefix_length == 31 ? prefix.at(1) : prefix.at(2);
    topo_.attach(parent, subnet, near_addr);
    topo_.attach(child, subnet, far_addr);

    GroundTruthSubnet truth;
    truth.prefix = prefix;
    truth.subnet = subnet;
    truth.profile = row.profile;
    truth.assigned = {near_addr, far_addr};
    truth.suggested_target = far_addr;

    switch (row.profile) {
      case SubnetProfile::kClean:
        truth.responsive = truth.assigned;
        // Only clean links carry further growth: nothing may hide behind a
        // firewalled link, and bait twins stay leaves.
        attach_points_.push_back(child);
        depth_[child] = depth_[parent] + 1;
        break;
      case SubnetProfile::kFirewalled:
        topo_.subnet_mut(subnet).firewalled = true;
        break;
      case SubnetProfile::kOverlapBait: {
        truth.responsive = truth.assigned;
        // The unpublished twin: the adjacent /30 on the same parent router,
        // dark on the parent side. Exploration of the registered link walks
        // into it and overestimates (§4.1's single ovres row).
        const net::Prefix twin = prefix.parent().upper_half();
        const auto twin_subnet = topo_.add_subnet(twin);
        const sim::NodeId stub =
            topo_.add_router("twin" + std::to_string(topo_.node_count()));
        const auto dark =
            topo_.attach(parent, twin_subnet, twin.at(1));
        topo_.attach(stub, twin_subnet, twin.at(2));
        topo_.interface_mut(dark).responsive = false;
        break;
      }
      default:
        truth.responsive = truth.assigned;
        break;
    }
    out_.registry.add(std::move(truth));
  }

  // --- Registered multi-access LANs ------------------------------------------

  // Offsets (address indices within the prefix) assigned per profile; the
  // first listed offset is the ingress-router (contra-pivot) interface.
  struct LanPlan {
    std::vector<std::uint64_t> assigned;
    std::vector<std::uint64_t> responsive;  // subset of assigned
    std::optional<std::uint64_t> unassigned_target;
  };

  LanPlan plan_lan(const ReferenceRow& row) {
    LanPlan plan;
    switch (row.profile) {
      case SubnetProfile::kClean:
        if (row.prefix_length == 29) {
          plan.assigned = {1, 2, 4, 5};
          if (rng_.chance(0.5)) plan.assigned.push_back(3);
          if (rng_.chance(0.5)) plan.assigned.push_back(6);
        } else {  // /28: more than half of each /29 half alive
          plan.assigned = {1, 2, 3, 4, 5, 6, 9, 10, 11, 12, 13};
        }
        plan.responsive = plan.assigned;
        break;
      case SubnetProfile::kSparse:
        // The paper's two flavours: two utilized addresses, or five with
        // large gaps — both stop Algorithm 1's half-utilization rule early.
        plan.assigned = rng_.chance(0.5)
                            ? std::vector<std::uint64_t>{1, 2}
                            : std::vector<std::uint64_t>{1, 2, 3, 9, 12};
        plan.responsive = plan.assigned;
        break;
      case SubnetProfile::kPartialDark:
        if (row.prefix_length == 29) {
          plan.assigned = {1, 2, 3, 4, 5};
          plan.responsive = {1, 2};
        } else {  // /28
          plan.assigned = {1, 2, 3, 4, 5, 6, 9, 10, 11, 12, 13};
          plan.responsive = {1, 2, 3, 4, 5};
        }
        break;
      case SubnetProfile::kFirewalled: {
        const std::uint64_t n = std::min<std::uint64_t>(
            6 + rng_.below(5), net::Prefix::covering({}, row.prefix_length)
                                       .capacity() -
                                   1);
        for (std::uint64_t i = 1; i <= n; ++i) plan.assigned.push_back(i);
        break;  // responsive stays empty
      }
      case SubnetProfile::kDarkTarget: {
        plan.assigned = row.prefix_length <= 24
                            ? std::vector<std::uint64_t>{1, 2, 3, 17, 18}
                            : std::vector<std::uint64_t>{1, 2, 3};
        plan.responsive = plan.assigned;
        const std::uint64_t size = std::uint64_t{1} << (32 - row.prefix_length);
        plan.unassigned_target = size - 3;
        break;
      }
      case SubnetProfile::kOverlapBait:
        break;  // LAN overlap bait unused
    }
    return plan;
  }

  void add_lan(const ReferenceRow& row) {
    const net::Prefix prefix = pool_.allocate(row.prefix_length);
    const auto subnet = topo_.add_subnet(prefix);
    const sim::NodeId ingress = random_attach_point();
    const LanPlan plan = plan_lan(row);

    GroundTruthSubnet truth;
    truth.prefix = prefix;
    truth.subnet = subnet;
    truth.profile = row.profile;

    bool first = true;
    for (const std::uint64_t offset : plan.assigned) {
      const net::Ipv4Addr addr = prefix.at(offset);
      sim::InterfaceId iface;
      if (first) {
        iface = topo_.attach(ingress, subnet, addr);  // contra-pivot side
        first = false;
      } else {
        const sim::NodeId member =
            topo_.add_host("h" + std::to_string(topo_.node_count()));
        iface = topo_.attach(member, subnet, addr);
      }
      const bool responsive =
          std::find(plan.responsive.begin(), plan.responsive.end(), offset) !=
          plan.responsive.end();
      topo_.interface_mut(iface).responsive = responsive;
      truth.assigned.push_back(addr);
      if (responsive) truth.responsive.push_back(addr);
    }

    if (row.profile == SubnetProfile::kFirewalled)
      topo_.subnet_mut(subnet).firewalled = true;

    if (plan.unassigned_target) {
      truth.suggested_target = prefix.at(*plan.unassigned_target);
    } else if (truth.responsive.size() > 1) {
      // A responsive member host (not the ingress interface).
      const auto& pool = truth.responsive;
      truth.suggested_target =
          pool[1 + rng_.below(pool.size() - 1)];
    } else if (!truth.assigned.empty()) {
      truth.suggested_target = truth.assigned.back();
    }
    out_.registry.add(std::move(truth));
  }

  util::Rng rng_;
  AddressPool pool_;
  AddressPool infra_pool_;
  sim::TopologyBuilder topo_;
  ReferenceTopology out_;
  std::vector<sim::NodeId> cores_;
  std::vector<sim::NodeId> attach_points_;
  std::unordered_map<sim::NodeId, int> depth_;
};

}  // namespace

ReferenceTopology build_reference(std::string name, net::Prefix block,
                                  std::span<const ReferenceRow> rows,
                                  int core_count, std::uint64_t seed) {
  Builder builder(std::move(name), block, seed);
  return builder.build(rows, core_count);
}

ReferenceTopology internet2_like(std::uint64_t seed) {
  using P = SubnetProfile;
  // Table 1 decomposed by row class (orgl = sum over profiles per length).
  static const ReferenceRow kRows[] = {
      {31, 22, P::kClean},      {31, 1, P::kFirewalled},
      {30, 92, P::kClean},      {30, 8, P::kFirewalled},
      {30, 1, P::kOverlapBait},
      {29, 16, P::kClean},      {29, 4, P::kFirewalled},
      {28, 2, P::kClean},       {28, 1, P::kFirewalled},
      {28, 2, P::kDarkTarget},  {28, 2, P::kSparse},
      {28, 19, P::kPartialDark},
      {27, 2, P::kFirewalled},
      {25, 1, P::kFirewalled},
      {24, 4, P::kFirewalled},  {24, 1, P::kDarkTarget},
      {24, 1, P::kSparse},
  };
  return build_reference("Internet2", *net::Prefix::parse("163.253.0.0/16"),
                         kRows, 11, seed);
}

ReferenceTopology geant_like(std::uint64_t seed) {
  using P = SubnetProfile;
  // Table 2 decomposed by row class.
  static const ReferenceRow kRows[] = {
      {30, 104, P::kClean},      {30, 34, P::kFirewalled},
      {29, 41, P::kClean},       {29, 53, P::kFirewalled},
      {29, 1, P::kDarkTarget},   {29, 14, P::kPartialDark},
      {28, 10, P::kFirewalled},  {28, 3, P::kSparse},
      {28, 11, P::kPartialDark},
  };
  return build_reference("GEANT", *net::Prefix::parse("62.40.0.0/15"), kRows,
                         13, seed);
}

}  // namespace tn::topo
