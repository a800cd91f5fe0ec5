// Property-based sweeps over randomized LANs: whatever the utilization
// pattern, subnet exploration must uphold its core invariants.
//
//   soundness    — every collected member is a real interface of the true
//                  LAN (no fabricated addresses, no foreign interfaces);
//   containment  — the observed prefix never extends beyond the true prefix
//                  (no overestimation without engineered adjacency);
//   completeness — with every address of a classic LAN assigned and
//                  responsive, the collection is exact;
//   cost         — wire probes stay within the paper's 7|S|+7 envelope plus
//                  the silence scans of the growth levels.
#include <gtest/gtest.h>

#include <set>

#include "core/exploration.h"
#include "core/positioning.h"
#include "probe/cache.h"
#include "probe/sim_engine.h"
#include "sim/network.h"
#include "util/rng.h"

namespace tn::core {
namespace {

net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }
net::Ipv4Addr ip(const char* text) { return *net::Ipv4Addr::parse(text); }

struct Params {
  int prefix_length;
  // gtest names each case after the raw bytes of its parameter. These four
  // bytes used to be implicit padding, whose contents changed from build to
  // build; spelled out, they keep every case under the name it was first
  // registered with.
  std::uint32_t name_tag;
  double utilization;
  std::uint64_t seed;
};
static_assert(sizeof(Params) == 24, "Params must have no padding bytes");

class ExplorationProperty : public ::testing::TestWithParam<Params> {
 protected:
  // Chain vantage -> G -> R1 -> ingress, LAN of the requested shape.
  void build(const Params& params) {
    util::Rng rng(params.seed);
    sim::TopologyBuilder builder;
    vantage_ = builder.add_host("V");
    const auto g = builder.add_router("G");
    const auto r1 = builder.add_router("R1");
    ingress_ = builder.add_router("R2");
    auto link = [&](sim::NodeId a, sim::NodeId b, const char* prefix) {
      const auto subnet = builder.add_subnet(pfx(prefix));
      const net::Prefix p = builder.subnet(subnet).prefix;
      builder.attach(a, subnet, p.at(1));
      builder.attach(b, subnet, p.at(2));
    };
    link(vantage_, g, "10.0.0.0/30");
    link(g, r1, "10.0.1.0/30");
    link(r1, ingress_, "10.0.2.0/30");

    truth_ = net::Prefix::covering(ip("192.168.0.0"), params.prefix_length);
    const auto lan = builder.add_subnet(truth_);

    // Random member subset: ingress always gets the first chosen offset.
    std::vector<std::uint64_t> offsets;
    for (std::uint64_t i = 1; i <= truth_.capacity(); ++i) offsets.push_back(i);
    rng.shuffle(offsets);
    const auto count = std::max<std::uint64_t>(
        2, static_cast<std::uint64_t>(
               static_cast<double>(truth_.capacity()) * params.utilization));
    offsets.resize(std::min<std::uint64_t>(count, offsets.size()));
    std::sort(offsets.begin(), offsets.end());

    bool first = true;
    for (const std::uint64_t offset : offsets) {
      const net::Ipv4Addr addr = truth_.at(offset);
      if (first) {
        builder.attach(ingress_, lan, addr);
        first = false;
      } else {
        const auto host = builder.add_host("h" + addr.to_string());
        builder.attach(host, lan, addr);
        members_.push_back(addr);
      }
      assigned_.insert(addr);
    }
    topo_ = std::move(builder).build();
  }

  ObservedSubnet explore(net::Ipv4Addr target) {
    sim::Network net(topo_);
    probe::SimProbeEngine wire(net, vantage_);
    probe::CachingProbeEngine cached(wire);
    SubnetPositioner positioner(cached);
    const Position pos = positioner.position(ip("10.0.2.2"), target, 4);
    SubnetExplorer explorer(cached);
    ObservedSubnet subnet = explorer.explore(pos);
    wire_probes_ = wire.probes_issued();
    return subnet;
  }

  sim::Topology topo_;
  sim::NodeId vantage_ = sim::kInvalidId;
  sim::NodeId ingress_ = sim::kInvalidId;
  net::Prefix truth_;
  std::set<net::Ipv4Addr> assigned_;
  std::vector<net::Ipv4Addr> members_;  // non-ingress
  std::uint64_t wire_probes_ = 0;
};

TEST_P(ExplorationProperty, SoundnessAndContainment) {
  build(GetParam());
  const ObservedSubnet subnet = explore(members_.front());

  // Soundness: nothing fabricated, nothing foreign.
  for (const net::Ipv4Addr member : subnet.members)
    EXPECT_TRUE(assigned_.contains(member)) << member.to_string();

  // Containment: the observed prefix never overclaims.
  if (subnet.prefix.length() < 32) {
    EXPECT_TRUE(truth_.contains(subnet.prefix))
        << subnet.prefix.to_string() << " vs " << truth_.to_string();
  }
  EXPECT_GE(subnet.prefix.length(), truth_.length());

  // The pivot itself is always collected.
  EXPECT_FALSE(subnet.members.empty());
}

TEST_P(ExplorationProperty, ProbeCostBounded) {
  build(GetParam());
  const ObservedSubnet subnet = explore(members_.front());
  // Paper model 7|S|+7, plus one probe per silent candidate of the level
  // scans (at most two full level sizes beyond the truth).
  const std::uint64_t budget =
      7 * subnet.members.size() + 7 + 4 * truth_.size() + 64;
  EXPECT_LE(wire_probes_, budget);
}

TEST_P(ExplorationProperty, DeterministicAcrossRuns) {
  build(GetParam());
  const ObservedSubnet first = explore(members_.front());
  const ObservedSubnet second = explore(members_.front());
  EXPECT_EQ(first.prefix, second.prefix);
  EXPECT_EQ(first.members, second.members);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExplorationProperty,
    ::testing::Values(
        Params{30, 0x00, 1.0, 1}, Params{30, 0x4D, 1.0, 2},
        Params{29, 0xFF, 1.0, 3}, Params{29, 0x6D, 0.7, 4},
        Params{29, 0x00, 0.5, 5}, Params{28, 0xFF, 1.0, 6},
        Params{28, 0xB3, 0.8, 7}, Params{28, 0xB3, 0.6, 8},
        Params{28, 0xFF, 0.3, 9}, Params{27, 0x4D, 0.9, 10},
        Params{27, 0x00, 0.5, 11}, Params{26, 0x6D, 0.8, 12},
        Params{26, 0x00, 0.4, 13}, Params{25, 0x6D, 0.7, 14},
        Params{24, 0x00, 0.7, 15}, Params{24, 0xB3, 0.3, 16}),
    [](const ::testing::TestParamInfo<Params>& info) {
      return "p" + std::to_string(info.param.prefix_length) + "_u" +
             std::to_string(static_cast<int>(info.param.utilization * 100)) +
             "_s" + std::to_string(info.param.seed);
    });

// Full utilization of a classic LAN must collect exactly.
class FullUtilization : public ::testing::TestWithParam<int> {};

TEST_P(FullUtilization, FullyAssignedLanIsExact) {
  const int length = GetParam();
  sim::TopologyBuilder builder;
  const auto vantage = builder.add_host("V");
  const auto g = builder.add_router("G");
  const auto r1 = builder.add_router("R1");
  const auto ingress = builder.add_router("R2");
  auto link = [&](sim::NodeId a, sim::NodeId b, const char* prefix) {
    const auto subnet = builder.add_subnet(pfx(prefix));
    const net::Prefix p = builder.subnet(subnet).prefix;
    builder.attach(a, subnet, p.at(1));
    builder.attach(b, subnet, p.at(2));
  };
  link(vantage, g, "10.0.0.0/30");
  link(g, r1, "10.0.1.0/30");
  link(r1, ingress, "10.0.2.0/30");
  const net::Prefix truth = net::Prefix::covering(ip("192.168.0.0"), length);
  const auto lan = builder.add_subnet(truth);
  builder.attach(ingress, lan, truth.at(1));
  for (std::uint64_t i = 2; i <= truth.capacity(); ++i) {
    const auto host = builder.add_host("h" + std::to_string(i));
    builder.attach(host, lan, truth.at(i));
  }
  const sim::Topology topo = std::move(builder).build();

  sim::Network net(topo);
  probe::SimProbeEngine wire(net, vantage);
  probe::CachingProbeEngine cached(wire);
  SubnetPositioner positioner(cached);
  const Position pos = positioner.position(ip("10.0.2.2"), truth.at(2), 4);
  SubnetExplorer explorer(cached);
  const ObservedSubnet subnet = explorer.explore(pos);

  EXPECT_EQ(subnet.prefix, truth);
  EXPECT_EQ(subnet.members.size(), truth.capacity());
}

INSTANTIATE_TEST_SUITE_P(Lengths, FullUtilization,
                         ::testing::Values(29, 28, 27, 26));

}  // namespace
}  // namespace tn::core
