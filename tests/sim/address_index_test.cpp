#include "sim/topology.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "testutil.h"
#include "topo/isp.h"
#include "util/rng.h"

namespace tn::sim {
namespace {

using test::ip;
using test::pfx;

TEST(AddressIndex, FindsEveryInterfaceOfTheSimulatedInternet) {
  const topo::SimulatedInternet internet =
      topo::build_internet(topo::default_isp_profiles(), 7);
  const Topology& t = internet.topo;
  ASSERT_GT(t.interface_count(), 10000u);
  for (InterfaceId iface = 0; iface < t.interface_count(); ++iface) {
    const auto found = t.find_interface(t.interface(iface).addr);
    ASSERT_TRUE(found) << t.interface(iface).addr;
    ASSERT_EQ(*found, iface) << t.interface(iface).addr;
  }
}

// 100k random addresses outside the set of interface addresses, half drawn
// near the internet's own (so they share high bits and land among occupied
// slots), half anywhere, must all miss. Drawn addresses that are interfaces
// must hit.
TEST(AddressIndex, RandomNonInterfaceAddressesMiss) {
  const topo::SimulatedInternet internet =
      topo::build_internet(topo::default_isp_profiles(), 7);
  const Topology& t = internet.topo;
  std::set<std::uint32_t> assigned;
  for (InterfaceId iface = 0; iface < t.interface_count(); ++iface)
    assigned.insert(t.interface(iface).addr.value());
  util::Rng rng(5);
  std::size_t misses = 0;
  for (std::uint64_t draw = 0; misses < 100000; ++draw) {
    std::uint32_t value = static_cast<std::uint32_t>(rng.below(1ULL << 32));
    if (draw % 2 == 0) {
      const InterfaceId near = static_cast<InterfaceId>(
          rng.below(t.interface_count()));
      value = t.interface(near).addr.value() ^
              static_cast<std::uint32_t>(rng.below(256));
    }
    const net::Ipv4Addr addr(value);
    const bool is_interface = assigned.contains(value);
    ASSERT_EQ(t.find_interface(addr).has_value(), is_interface) << addr;
    if (!is_interface) ++misses;
  }
}

TEST(AddressIndex, DuplicateAttachStillThrows) {
  TopologyBuilder t;
  const NodeId a = t.add_router("a");
  const NodeId b = t.add_router("b");
  const SubnetId s = t.add_subnet(pfx("10.0.0.0/29"));
  const InterfaceId first = t.attach(a, s, ip("10.0.0.1"));
  EXPECT_THROW(t.attach(b, s, ip("10.0.0.1")), std::invalid_argument);
  // The failed attach left the index as it was.
  EXPECT_EQ(t.find_interface(ip("10.0.0.1")), first);
  EXPECT_EQ(t.interface_count(), 1u);
  // Growing the index past several doublings keeps rejecting the repeat.
  for (std::uint32_t i = 0; i < 300; ++i) {
    const SubnetId lan = t.add_subnet(
        net::Prefix::covering(net::Ipv4Addr(0x0B000000u + 2 * i), 31));
    t.attach(a, lan, net::Ipv4Addr(0x0B000000u + 2 * i));
  }
  EXPECT_THROW(t.attach(b, s, ip("10.0.0.1")), std::invalid_argument);
  EXPECT_EQ(t.find_interface(ip("10.0.0.1")), first);
}

// An empty slot is marked by its interface id, not by its address, so the
// all-zeros address is a key like any other.
TEST(AddressIndex, ZeroAndAllOnesAddressesOnSlash31sResolve) {
  TopologyBuilder t;
  const NodeId a = t.add_router("a");
  const NodeId b = t.add_router("b");
  const SubnetId low = t.add_subnet(pfx("0.0.0.0/31"));
  const SubnetId high = t.add_subnet(pfx("255.255.255.254/31"));
  EXPECT_FALSE(t.find_interface(ip("0.0.0.0")));
  const InterfaceId zero = t.attach(a, low, ip("0.0.0.0"));
  const InterfaceId one = t.attach(b, low, ip("0.0.0.1"));
  const InterfaceId ones = t.attach(a, high, ip("255.255.255.255"));
  const InterfaceId below = t.attach(b, high, ip("255.255.255.254"));
  EXPECT_EQ(t.find_interface(ip("0.0.0.0")), zero);
  EXPECT_EQ(t.find_interface(ip("0.0.0.1")), one);
  EXPECT_EQ(t.find_interface(ip("255.255.255.255")), ones);
  EXPECT_EQ(t.find_interface(ip("255.255.255.254")), below);
  EXPECT_FALSE(t.find_interface(ip("0.0.0.2")));
  EXPECT_FALSE(t.find_interface(ip("255.255.255.253")));
  const NodeId c = t.add_router("c");
  EXPECT_THROW(t.attach(c, low, ip("0.0.0.0")), std::invalid_argument);
}

}  // namespace
}  // namespace tn::sim
