// Probe and response model shared by the simulator and the live raw-socket
// engine.
//
// §3.1 of the paper defines the two probing primitives tracenet is built on:
//   (i)  Direct probing — a probe with a large TTL destined to an address, to
//        test liveness.  ICMP Echo Request / UDP to an unused port / TCP SYN.
//   (ii) Indirect probing — a probe with a small TTL, to elicit an ICMP
//        TTL-Exceeded from the router at that hop distance.
// The paper writes a probe-response pair as  <ip, ttl> -> <src, TYPE>.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/ipv4.h"

namespace tn::net {

enum class ProbeProtocol : std::uint8_t {
  kIcmp,  // ICMP Echo Request
  kUdp,   // UDP datagram to a high, likely-unused port
  kTcp,   // TCP SYN (second packet of the handshake in the paper's wording)
};

// The protocol's name, "ICMP" / "UDP" / "TCP": a static literal.
std::string_view to_string(ProbeProtocol protocol) noexcept;

// The TTL used for direct probes: "large enough" per §3.1(i).
inline constexpr std::uint8_t kDirectProbeTtl = 64;

// What came back (or did not). kNone models silence after all retries —
// callers never wait on a timeout object; engines resolve silence themselves.
enum class ResponseType : std::uint8_t {
  kNone,             // no response (filtered, rate-limited, or nil router)
  kEchoReply,        // ICMP Echo Reply (alive, ICMP probing)
  kTtlExceeded,      // ICMP Time Exceeded (hop revealed / probe expired)
  kPortUnreachable,  // ICMP Destination Unreachable, code 3 (alive, UDP probing)
  kHostUnreachable,  // ICMP Destination Unreachable, code 1
  kTcpReset,         // TCP RST (alive, TCP probing)
};

// The response type's name, e.g. "TTL_EXCEEDED": a static literal.
std::string_view to_string(ResponseType type) noexcept;

// True when `type` is the protocol-appropriate "this address is alive" reply
// to a *direct* probe: EchoReply for ICMP, PortUnreachable for UDP, TcpReset
// for TCP. The paper's pseudocode says ECHO_REPLY because its implementation
// is ICMP-only (§3.7); this predicate is the protocol-generic equivalent.
bool is_alive_reply(ProbeProtocol protocol, ResponseType type) noexcept;

// A single outgoing probe.
struct Probe {
  Ipv4Addr target;                                  // probed IP address
  std::uint8_t ttl = kDirectProbeTtl;               // hop scope
  ProbeProtocol protocol = ProbeProtocol::kIcmp;    // wire format
  // Flow identifier (ICMP id/seq or UDP/TCP ports). Per-flow load balancers
  // hash this together with src/dst; tracenet keeps it constant per session,
  // in the spirit of Paris traceroute, so ECMP does not scatter its probes.
  std::uint16_t flow_id = 0;
  // Re-probe ordinal: 0 for the first try, bumped by RetryingProbeEngine on
  // each retry. Not part of the wire format or of any cache key — it only
  // decorrelates the simulator's fault draws, so a retry of a lost probe
  // rolls a fresh, independent fate (docs/FAULTS.md).
  std::uint8_t attempt = 0;
  // Routing epoch the probe belongs to (sim/faults.h `churn`). 0 before the
  // churn point, 1 after; campaigns stamp it per target from the target's
  // nominal position in the schedule, so it is probe *content*: replies stay
  // pure functions of the probe, caches key on it, and churn replays
  // byte-identically across serial/windowed/parallel and wall/virtual runs.
  std::uint8_t epoch = 0;

  bool is_direct() const noexcept { return ttl >= kDirectProbeTtl; }
};

// The outcome of one probe. `responder` is the source address of the reply
// (unset for kNone). The paper's  <j_ip, TYPE>  pair.
struct ProbeReply {
  ResponseType type = ResponseType::kNone;
  Ipv4Addr responder;

  static ProbeReply none() noexcept { return {}; }

  bool is_none() const noexcept { return type == ResponseType::kNone; }
  bool is_ttl_exceeded() const noexcept { return type == ResponseType::kTtlExceeded; }

  std::string to_string() const;
};

}  // namespace tn::net
