#include "probe/reply_table.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace tn::probe {
namespace {

using net::Ipv4Addr;
using net::ProbeReply;
using net::ResponseType;

ProbeReply reply_from(std::uint32_t responder) {
  return ProbeReply{ResponseType::kTtlExceeded, Ipv4Addr(responder)};
}

void put(ReplyTable& table, const ReplyKey& key, const ProbeReply& reply) {
  table.insert_or_assign(ReplySlot::of(key, reply));
}

std::optional<ProbeReply> get(const ReplyTable& table, const ReplyKey& key) {
  const ReplySlot* slot = table.find(key);
  if (slot == nullptr) return std::nullopt;
  return slot->reply();
}

ReplyKey base_key() {
  return ReplyKey{0x0A000001u, /*flow_id=*/7, /*ttl=*/5,
                  static_cast<std::uint8_t>(net::ProbeProtocol::kIcmp),
                  /*epoch=*/0};
}

TEST(ReplyTable, KeysDifferingInOneFieldStayDistinct) {
  std::vector<ReplyKey> keys(6, base_key());
  keys[1].target ^= 1;
  keys[2].flow_id += 1;
  keys[3].ttl += 1;
  keys[4].protocol = static_cast<std::uint8_t>(net::ProbeProtocol::kUdp);
  keys[5].epoch = 1;
  ReplyTable table;
  for (std::uint32_t i = 0; i < keys.size(); ++i)
    put(table, keys[i], reply_from(100 + i));
  EXPECT_EQ(table.size(), keys.size());
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    const auto found = get(table, keys[i]);
    ASSERT_TRUE(found) << "key " << i;
    EXPECT_EQ(found->responder, Ipv4Addr(100 + i)) << "key " << i;
    EXPECT_EQ(found->type, ResponseType::kTtlExceeded);
  }
}

TEST(ReplyTable, OverwriteKeepsTheLastReply) {
  ReplyTable table;
  put(table, base_key(), reply_from(1));
  put(table, base_key(), ProbeReply::none());
  put(table, base_key(), ProbeReply{ResponseType::kEchoReply, Ipv4Addr(3)});
  EXPECT_EQ(table.size(), 1u);
  const auto found = get(table, base_key());
  ASSERT_TRUE(found);
  EXPECT_EQ(found->type, ResponseType::kEchoReply);
  EXPECT_EQ(found->responder, Ipv4Addr(3));
}

// Random keys from a small space, so some repeat and overwrite: after every
// doubling each distinct key must still answer its last reply, and keys
// never inserted must miss.
TEST(ReplyTable, EntriesSurviveDoublings) {
  util::Rng rng(11);
  const auto random_key = [&] {
    ReplyKey key;
    key.target = 0x0A000000u + static_cast<std::uint32_t>(rng.below(4096));
    key.flow_id = static_cast<std::uint16_t>(rng.below(3));
    key.ttl = static_cast<std::uint8_t>(1 + rng.below(16));
    key.protocol = static_cast<std::uint8_t>(rng.below(3));
    key.epoch = static_cast<std::uint8_t>(rng.below(2));
    return key;
  };
  const auto pack = [](const ReplyKey& key) {
    return std::tuple(key.target, key.flow_id, key.ttl, key.protocol,
                      key.epoch);
  };
  ReplyTable table;
  std::vector<std::pair<ReplyKey, ProbeReply>> latest;
  std::set<decltype(pack(ReplyKey{}))> inserted;
  std::size_t doublings = 0;
  for (std::uint32_t i = 0; i < 20000; ++i) {
    const ReplyKey key = random_key();
    const std::size_t capacity = table.capacity();
    put(table, key, reply_from(i));
    if (capacity != 0 && table.capacity() != capacity) {
      ASSERT_EQ(table.capacity(), 2 * capacity);
      ++doublings;
    }
    inserted.insert(pack(key));
    latest.emplace_back(key, reply_from(i));
    ASSERT_LE(4 * table.size(), 3 * table.capacity()) << "after " << i;
  }
  EXPECT_GE(doublings, 5u);
  EXPECT_EQ(table.size(), inserted.size());
  // Walk backward so the first visit of a key sees its last reply.
  std::set<decltype(pack(ReplyKey{}))> checked;
  for (auto it = latest.rbegin(); it != latest.rend(); ++it) {
    if (!checked.insert(pack(it->first)).second) continue;
    const auto found = get(table, it->first);
    ASSERT_TRUE(found);
    EXPECT_EQ(found->responder, it->second.responder);
  }
  for (int i = 0; i < 20000; ++i) {
    const ReplyKey key = random_key();
    EXPECT_EQ(get(table, key).has_value(), inserted.contains(pack(key)));
  }
}

TEST(ReplyTable, ClearForgetsEverythingAndFreesTheArray) {
  ReplyTable table;
  for (std::uint32_t i = 0; i < 500; ++i) {
    ReplyKey key = base_key();
    key.target += i;
    put(table, key, reply_from(i));
  }
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), 0u);
  for (std::uint32_t i = 0; i < 500; ++i) {
    ReplyKey key = base_key();
    key.target += i;
    EXPECT_FALSE(get(table, key)) << "key " << i;
  }
  put(table, base_key(), reply_from(9));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(get(table, base_key())->responder, Ipv4Addr(9));
}

}  // namespace
}  // namespace tn::probe
