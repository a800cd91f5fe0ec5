// The paper's Figure 2 motivation, as a runnable demo: an overlay operator
// wants node- and link-disjoint paths A->D and B->C. Traceroute's IP lists
// look disjoint; tracenet's subnet view reveals that both paths cross one
// multi-access LAN shared by routers R2, R4, R5 and R8.
#include <cstdio>
#include <set>

#include "core/session.h"
#include "probe/sim_engine.h"
#include "sim/network.h"

using namespace tn;

namespace {

net::Ipv4Addr ip(const char* text) { return *net::Ipv4Addr::parse(text); }
net::Prefix pfx(const char* text) { return *net::Prefix::parse(text); }

struct Fig2 {
  sim::Topology topo;
  sim::NodeId a, b, c, d;
  sim::NodeId r[10];
  net::Ipv4Addr d_addr, c_addr;

  Fig2() {
    sim::TopologyBuilder builder;
    const auto p2p = [&](sim::NodeId x, sim::NodeId y, const char* prefix) {
      const auto subnet = builder.add_subnet(pfx(prefix));
      const net::Prefix p = builder.subnet(subnet).prefix;
      builder.attach(x, subnet, p.at(1));
      builder.attach(y, subnet, p.at(2));
    };
    a = builder.add_host("A");
    b = builder.add_host("B");
    c = builder.add_host("C");
    d = builder.add_host("D");
    for (int i = 1; i <= 9; ++i)
      r[i] = builder.add_router("R" + std::to_string(i));
    p2p(a, r[1], "10.1.0.0/30");
    p2p(a, r[3], "10.1.1.0/30");
    p2p(b, r[6], "10.1.2.0/30");
    p2p(d, r[9], "10.1.3.0/30");
    p2p(c, r[8], "10.1.4.0/30");
    p2p(r[1], r[2], "10.2.0.0/30");
    p2p(r[3], r[4], "10.2.1.0/30");
    p2p(r[5], r[9], "10.2.2.0/30");
    p2p(r[6], r[3], "10.2.3.0/30");
    d_addr = ip("10.1.3.1");
    c_addr = ip("10.1.4.1");

    const auto shared = builder.add_subnet(pfx("172.16.0.0/29"));
    builder.attach(r[2], shared, ip("172.16.0.1"));
    builder.attach(r[4], shared, ip("172.16.0.2"));
    builder.attach(r[5], shared, ip("172.16.0.3"));
    builder.attach(r[8], shared, ip("172.16.0.4"));
    topo = std::move(builder).build();
  }
};

}  // namespace

int main() {
  Fig2 f;
  sim::Network net(f.topo);

  probe::SimProbeEngine engine_a(net, f.a);
  probe::SimProbeEngine engine_b(net, f.b);

  std::printf("--- what traceroute sees ---\n");
  core::Traceroute trace_a(engine_a);
  core::Traceroute trace_b(engine_b);
  const auto p1 = trace_a.run(f.d_addr);
  const auto p3 = trace_b.run(f.c_addr);
  std::printf("P1 (A -> D): %s", p1.to_string().c_str());
  std::printf("P3 (B -> C): %s", p3.to_string().c_str());

  std::set<net::Ipv4Addr> p1_set;
  for (const auto addr : p1.responders()) p1_set.insert(addr);
  bool shared_ip = false;
  for (const auto addr : p3.responders()) shared_ip |= p1_set.contains(addr);
  std::printf("shared IP addresses between P1 and P3: %s\n",
              shared_ip ? "yes" : "NO -> paths look disjoint (wrong!)\n");

  std::printf("--- what tracenet sees ---\n");
  core::TracenetSession session_a(engine_a);
  core::TracenetSession session_b(engine_b);
  const auto t1 = session_a.run(f.d_addr);
  const auto t3 = session_b.run(f.c_addr);
  std::printf("P1 subnets:\n%s", t1.to_string().c_str());
  std::printf("P3 subnets:\n%s", t3.to_string().c_str());

  // Disjointness check on subnets: two paths sharing a subnet prefix share
  // a LAN, whatever addresses they happened to reveal.
  bool shared_subnet = false;
  net::Prefix witness;
  for (const auto& s1 : t1.subnets) {
    for (const auto& s3 : t3.subnets) {
      if (s1.prefix.contains(s3.prefix) || s3.prefix.contains(s1.prefix)) {
        shared_subnet = true;
        witness = s1.prefix.length() < s3.prefix.length() ? s1.prefix : s3.prefix;
      }
    }
  }
  if (shared_subnet) {
    std::printf(
        "\nconclusion: P1 and P3 both cross %s — NOT link-disjoint.\n"
        "A traceroute-based overlay design would have missed this.\n",
        witness.to_string().c_str());
  } else {
    std::printf("\nconclusion: no shared subnet found (unexpected).\n");
  }
  return 0;
}
