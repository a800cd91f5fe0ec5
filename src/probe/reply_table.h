// ReplyTable: the reply memo behind CachingProbeEngine — a util::FlatTable
// from probe content to reply, in 16-byte slots kept at most three-quarters
// full. The campaign-wide cache keeps one entry per distinct probe, so slot
// size and load show in peak RSS.
#pragma once

#include <cstdint>
#include <functional>

#include "net/packet.h"
#include "util/flat_table.h"

namespace tn::probe {

// What a reply is memoized under: every probe field a reply depends on.
struct ReplyKey {
  std::uint32_t target = 0;
  std::uint16_t flow_id = 0;  // ECMP can answer differently per flow
  std::uint8_t ttl = 0;
  std::uint8_t protocol = 0;
  std::uint8_t epoch = 0;  // routing churn: epochs are distinct routing planes

  bool operator==(const ReplyKey&) const = default;

  static ReplyKey of(const net::Probe& probe) noexcept {
    return ReplyKey{probe.target.value(), probe.flow_id, probe.ttl,
                    static_cast<std::uint8_t>(probe.protocol), probe.epoch};
  }

  std::size_t hash() const noexcept {
    const std::uint64_t fields = (static_cast<std::uint64_t>(target) << 32) |
                                 (static_cast<std::uint64_t>(flow_id) << 16) |
                                 (static_cast<std::uint64_t>(ttl) << 8) |
                                 protocol;
    return std::hash<std::uint64_t>{}(
        fields ^ (static_cast<std::uint64_t>(epoch) * 0x9E3779B97F4A7C15ULL));
  }
};

// One memoized reply: the key's fields, the reply and an in-use flag.
struct ReplySlot {
  using Key = ReplyKey;

  std::uint32_t target = 0;
  std::uint16_t flow_id = 0;
  std::uint8_t ttl = 0;
  std::uint8_t protocol = 0;
  std::uint8_t epoch = 0;
  net::ResponseType type = net::ResponseType::kNone;
  bool used = false;
  std::uint32_t responder = 0;

  static ReplySlot of(const ReplyKey& key,
                      const net::ProbeReply& reply) noexcept {
    return ReplySlot{key.target, key.flow_id,        key.ttl,
                     key.protocol, key.epoch,        reply.type,
                     true,         reply.responder.value()};
  }

  bool empty() const noexcept { return !used; }
  ReplyKey key() const noexcept {
    return ReplyKey{target, flow_id, ttl, protocol, epoch};
  }
  net::ProbeReply reply() const noexcept {
    return net::ProbeReply{type, net::Ipv4Addr(responder)};
  }
  static std::uint64_t hash(const ReplyKey& key) noexcept {
    return key.hash();
  }
};
static_assert(sizeof(ReplySlot) == 16);

using ReplyTable = util::FlatTable<ReplySlot, 75>;

}  // namespace tn::probe
