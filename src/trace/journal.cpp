#include "trace/journal.h"

#include <charconv>
#include <ostream>

#include "util/strings.h"

namespace tn::trace {

std::string to_string(Level level) {
  switch (level) {
    case Level::kOff: return "off";
    case Level::kSession: return "session";
    case Level::kProbe: return "probe";
  }
  return "?";
}

std::optional<Level> parse_level(std::string_view text) {
  if (text == "off") return Level::kOff;
  if (text == "session") return Level::kSession;
  if (text == "probe") return Level::kProbe;
  return std::nullopt;
}

namespace {

// Appends `value` in decimal, through std::to_chars (no locale, no
// allocation).
template <typename Integer>
void append_decimal(std::string& out, Integer value) {
  char digits[24];
  out.append(digits, std::to_chars(digits, digits + sizeof digits, value).ptr);
}

}  // namespace

void Event::put_key(std::string_view key) {
  *out_ += ",\"";
  *out_ += key;
  *out_ += "\":";
}

Event& Event::num(std::string_view key, std::int64_t value) {
  put_key(key);
  append_decimal(*out_, value);
  return *this;
}

Event& Event::flag(std::string_view key, bool value) {
  put_key(key);
  *out_ += value ? "true" : "false";
  return *this;
}

Event& Event::addr(std::string_view key, net::Ipv4Addr value) {
  char text[net::Ipv4Addr::kMaxText];
  return word(key, std::string_view(text, value.format(text)));
}

Event& Event::prefix(std::string_view key, const net::Prefix& value) {
  char text[net::Prefix::kMaxText];
  return word(key, std::string_view(text, value.format(text)));
}

Event& Event::word(std::string_view key, std::string_view value) {
  put_key(key);
  *out_ += '"';
  *out_ += value;
  *out_ += '"';
  return *this;
}

Event& Event::text(std::string_view key, std::string_view value) {
  put_key(key);
  *out_ += '"';
  util::append_json_escaped(*out_, value);
  *out_ += '"';
  return *this;
}

Recorder::Recorder(std::string_view label, Level level, bool with_timings,
                   const std::atomic<std::uint64_t>* sim_now)
    : level_(level), with_timings_(with_timings), sim_now_(sim_now) {
  prefix_ = "{\"target\":\"";
  util::append_json_escaped(prefix_, label);
  prefix_ += "\",\"seq\":";
}

Event Recorder::event(std::string_view type) {
  buffer_ += prefix_;
  append_decimal(buffer_, seq_++);
  if (sim_now_ != nullptr) {
    buffer_ += ",\"vt\":";
    append_decimal(buffer_, sim_now_->load(std::memory_order_relaxed));
  }
  buffer_ += ",\"ev\":\"";
  buffer_ += type;
  buffer_ += '"';
  return Event(buffer_);
}

JsonlTraceWriter::JsonlTraceWriter(Level level, bool with_timings,
                                   const std::atomic<std::uint64_t>* sim_now)
    : level_(level), with_timings_(with_timings), sim_now_(sim_now) {}

Recorder* JsonlTraceWriter::open(std::uint64_t ordinal, std::string_view label) {
  if (level_ == Level::kOff) return nullptr;
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = shards_[ordinal];
  slot = std::make_unique<Recorder>(label, level_, with_timings_, sim_now_);
  return slot.get();
}

void JsonlTraceWriter::drop(std::uint64_t ordinal) {
  const std::lock_guard<std::mutex> lock(mutex_);
  shards_.erase(ordinal);
}

std::string JsonlTraceWriter::merged() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  std::size_t total = 0;
  for (const auto& [ordinal, shard] : shards_) total += shard->bytes().size();
  out.reserve(total);
  for (const auto& [ordinal, shard] : shards_) out += shard->bytes();
  return out;
}

void JsonlTraceWriter::write(std::ostream& out) const {
  // A target's buffer is a few KB, and one stream write per buffer costs a
  // system call apiece; gather them into chunks instead, without ever
  // holding the whole merged journal twice.
  constexpr std::size_t kChunk = std::size_t{256} << 10;
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string chunk;
  chunk.reserve(kChunk);
  for (const auto& [ordinal, shard] : shards_) {
    const std::string& bytes = shard->bytes();
    if (chunk.size() + bytes.size() > kChunk) {
      out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      chunk.clear();
    }
    chunk += bytes;
  }
  out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
}

}  // namespace tn::trace
