// Traceroute: TTL-scoped path collection.
//
// Serves two roles: the *trace collection* mode of tracenet (§3.3, "similar
// to traceroute, tracenet gradually extends a trace path by obtaining an IP
// address via indirect probing at each hop"), and the standalone baseline the
// paper compares against. Every probe carries the prober's identity, whose
// flow identifier is held constant per session in the spirit of Paris
// traceroute (§3.8 names that as the planned approach), so per-flow load
// balancers do not scatter the path.
//
// With a windowed prober (core/prober.h) the TTLs go out in waves of up to
// the current window, so a wave pays one overlapped round trip instead of
// one per TTL. Replies are consumed in TTL order through the same serial
// stop logic, so the collected path is identical to window 1 on stable
// networks — a wave may merely probe a few TTLs past the stopping hop (extra
// wire probes, never extra hops). Hop events record *consumed* replies only,
// so the journal is identical across windows too.
#pragma once

#include "core/prober.h"
#include "core/types.h"

namespace tn::core {

// Trace collection gives up after this many consecutive anonymous hops
// (firewalled tail or unreachable destination); multipath discovery too.
inline constexpr int kAnonymousGapLimit = 4;

struct TracerouteConfig {
  int max_ttl = 32;
};

class Traceroute {
 public:
  Traceroute(Prober prober, TracerouteConfig config = {}) noexcept
      : prober_(prober), config_(config) {}

  // Probes hop by hop toward `destination` until the destination answers,
  // the anonymous-gap limit trips, a forwarding loop is detected, or max_ttl.
  TracePath run(net::Ipv4Addr destination);

 private:
  Prober prober_;
  TracerouteConfig config_;
};

}  // namespace tn::core
