// Flight-recorder journal plumbing (trace/journal.h, trace/reader.h): levels,
// the recorder's line format, the sharded writer's deterministic merge, and
// the reader's round-trip guarantees — including that escaped values cannot
// forge keys.
#include "trace/journal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "trace/reader.h"
#include "util/strings.h"

namespace tn::trace {
namespace {

TEST(TraceLevel, ParseAndToStringRoundTrip) {
  EXPECT_EQ(parse_level("off"), Level::kOff);
  EXPECT_EQ(parse_level("session"), Level::kSession);
  EXPECT_EQ(parse_level("probe"), Level::kProbe);
  EXPECT_EQ(parse_level("verbose"), std::nullopt);
  EXPECT_EQ(parse_level(""), std::nullopt);
  for (const Level level : {Level::kOff, Level::kSession, Level::kProbe})
    EXPECT_EQ(parse_level(to_string(level)), level);
}

TEST(TraceRecorder, EmitsPrefixedSequencedLines) {
  Recorder rec("10.0.0.1", Level::kSession, false);
  rec.event("hop").num("ttl", 3).flag("reached", true).text("from",
                                                            "10.0.0.2");
  rec.event("trace_done");
  EXPECT_EQ(rec.bytes(),
            "{\"target\":\"10.0.0.1\",\"seq\":0,\"ev\":\"hop\","
            "\"ttl\":3,\"reached\":true,\"from\":\"10.0.0.2\"}\n"
            "{\"target\":\"10.0.0.1\",\"seq\":1,\"ev\":\"trace_done\"}\n");
  EXPECT_EQ(rec.events(), 2u);
}

// The bytes one event adds after the recorder's head for target "t".
std::string attributes_of(const Recorder& rec) {
  const std::string& bytes = rec.bytes();
  const std::string head = "{\"target\":\"t\",\"seq\":0,\"ev\":\"e\"";
  EXPECT_EQ(bytes.compare(0, head.size(), head), 0) << bytes;
  return bytes.substr(head.size());
}

TEST(TraceEvent, NumCoversTheInt64Range) {
  const std::pair<std::int64_t, const char*> cases[] = {
      {0, "0"},
      {1, "1"},
      {-1, "-1"},
      {std::numeric_limits<std::int64_t>::min(), "-9223372036854775808"},
      {std::numeric_limits<std::int64_t>::max(), "9223372036854775807"},
  };
  for (const auto& [value, text] : cases) {
    Recorder rec("t", Level::kSession, false);
    rec.event("e").num("n", value);
    EXPECT_EQ(attributes_of(rec), std::string(",\"n\":") + text + "}\n");
  }
}

TEST(TraceEvent, TypedAppendersWriteTheirJsonForms) {
  Recorder rec("t", Level::kSession, false);
  rec.event("e")
      .addr("a", net::Ipv4Addr(10, 0, 0, 255))
      .addr("z", net::Ipv4Addr(0))
      .prefix("p", net::Prefix::covering(net::Ipv4Addr(192, 168, 7, 9), 30))
      .prefix("q", net::Prefix::covering(net::Ipv4Addr(1, 2, 3, 4), 0))
      .flag("y", true)
      .flag("n", false)
      .word("w", "PORT_UNREACHABLE");
  EXPECT_EQ(attributes_of(rec),
            ",\"a\":\"10.0.0.255\",\"z\":\"0.0.0.0\",\"p\":\"192.168.7.8/30\","
            "\"q\":\"0.0.0.0/0\",\"y\":true,\"n\":false,"
            "\"w\":\"PORT_UNREACHABLE\"}\n");
}

TEST(TraceEvent, TextEscapesLikeJsonEscape) {
  // Every control byte, the two JSON metacharacters, DEL and multi-byte
  // UTF-8, alone and between clean bytes.
  std::vector<std::string> values;
  for (int byte = 0; byte < 0x20; ++byte)
    values.emplace_back(1, static_cast<char>(byte));
  for (const char* special : {"\"", "\\", "\x7f", "r\xC3\xA9seau",
                              "\xE2\x82\xAC", "\xF0\x9F\x98\x80"})
    values.emplace_back(special);
  const std::size_t singles = values.size();
  for (std::size_t i = 0; i < singles; ++i)
    values.push_back("a" + values[i] + "b" + values[(i + 1) % singles]);
  for (const std::string& value : values) {
    Recorder rec("t", Level::kSession, false);
    rec.event("e").text("x", value);
    EXPECT_EQ(attributes_of(rec),
              ",\"x\":\"" + util::json_escape(value) + "\"}\n");
  }
}

TEST(TraceEvent, StampsVirtualTimeAndSequence) {
  std::atomic<std::uint64_t> now{1234};
  Recorder rec("t", Level::kSession, false, &now);
  rec.event("a");
  now = 5678;
  rec.event("b").num("k", 2);
  EXPECT_EQ(rec.bytes(),
            "{\"target\":\"t\",\"seq\":0,\"vt\":1234,\"ev\":\"a\"}\n"
            "{\"target\":\"t\",\"seq\":1,\"vt\":5678,\"ev\":\"b\",\"k\":2}\n");
}

TEST(TraceEvent, AMovedEventClosesItsLineOnce) {
  Recorder rec("t", Level::kSession, false);
  {
    Event first = rec.event("e");
    first.num("a", 1);
    Event second = std::move(first);
    second.num("b", 2);
  }
  EXPECT_EQ(attributes_of(rec), ",\"a\":1,\"b\":2}\n");
  EXPECT_EQ(rec.events(), 1u);
}

TEST(TraceRecorder, WantsRespectsTheLevelLattice) {
  Recorder session("t", Level::kSession, false);
  EXPECT_TRUE(session.wants(Level::kSession));
  EXPECT_FALSE(session.wants(Level::kProbe));
  EXPECT_FALSE(session.wants(Level::kOff));

  Recorder probe("t", Level::kProbe, false);
  EXPECT_TRUE(probe.wants(Level::kSession));
  EXPECT_TRUE(probe.wants(Level::kProbe));

  // trace::on is the one branch disabled tracing costs.
  EXPECT_FALSE(on(nullptr, Level::kSession));
  EXPECT_TRUE(on(&probe, Level::kProbe));
}

TEST(TraceWriter, OffLevelOpensNothing) {
  JsonlTraceWriter writer(Level::kOff);
  EXPECT_EQ(writer.open(0, "t"), nullptr);
  EXPECT_EQ(writer.merged(), "");
}

TEST(TraceWriter, MergesByOrdinalNotOpenOrder) {
  JsonlTraceWriter writer(Level::kSession);
  writer.open(2, "late")->event("session");
  writer.open(0, "early")->event("session");
  Recorder* campaign = writer.open(kCampaignOrdinal, "campaign");
  campaign->event("campaign_done");
  writer.open(1, "middle")->event("session");

  const std::string merged = writer.merged();
  const auto early = merged.find("\"early\"");
  const auto middle = merged.find("\"middle\"");
  const auto late = merged.find("\"late\"");
  const auto done = merged.find("\"campaign\"");
  ASSERT_NE(early, std::string::npos);
  EXPECT_LT(early, middle);
  EXPECT_LT(middle, late);
  // The campaign ordinal sorts after every target: the journal ends with it.
  EXPECT_LT(late, done);

  std::ostringstream out;
  writer.write(out);
  EXPECT_EQ(out.str(), merged);
}

TEST(TraceWriter, WriteStreamsExactlyTheMergedBytes) {
  // write() coalesces buffers into chunks instead of building merged();
  // buffers of every size around the chunk, empty ones included, must come
  // out in ordinal order with nothing lost or repeated.
  JsonlTraceWriter writer(Level::kSession);
  const std::string filler(1000, 'x');
  for (std::uint64_t ordinal = 0; ordinal < 9; ++ordinal) {
    Recorder* rec = writer.open(ordinal, "t" + std::to_string(ordinal));
    const std::uint64_t events = ordinal == 3 ? 400 : 60 * (ordinal % 5);
    for (std::uint64_t i = 0; i < events; ++i)
      rec->event("e").num("i", static_cast<std::int64_t>(i)).text("f", filler);
  }
  const std::string merged = writer.merged();
  EXPECT_GT(merged.size(), std::size_t{1} << 20);
  std::ostringstream out;
  writer.write(out);
  EXPECT_TRUE(out.str() == merged) << out.str().size() << " vs "
                                   << merged.size() << " bytes";
}

TEST(TraceWriter, DropDiscardsABuffer) {
  JsonlTraceWriter writer(Level::kSession);
  writer.open(0, "keep")->event("session");
  writer.open(1, "reject")->event("session");
  writer.drop(1);
  writer.drop(7);  // never opened: no-op
  const std::string merged = writer.merged();
  EXPECT_NE(merged.find("keep"), std::string::npos);
  EXPECT_EQ(merged.find("reject"), std::string::npos);
}

TEST(TraceWriter, ReopenReplacesTheBuffer) {
  // The runtime re-opens an ordinal when the canonical merge re-traces a
  // target serially; the discarded worker buffer must vanish wholesale.
  JsonlTraceWriter writer(Level::kSession);
  writer.open(0, "worker")->event("session");
  Recorder* fresh = writer.open(0, "fallback");
  fresh->event("session");
  const std::string merged = writer.merged();
  EXPECT_EQ(merged.find("worker"), std::string::npos);
  EXPECT_NE(merged.find("fallback"), std::string::npos);
  // The replacement starts a fresh sequence.
  EXPECT_NE(merged.find("\"seq\":0"), std::string::npos);
}

TEST(TraceReader, RoundTripsEscapedContent) {
  JsonlTraceWriter writer(Level::kSession);
  Recorder* rec = writer.open(0, "we\"ird\\tar\nget");
  rec->event("session").text("note", "line1\nline2\t\"quoted\" \\ \x01");

  std::istringstream in(writer.merged());
  const auto events = read_journal(in);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].target, "we\"ird\\tar\nget");
  EXPECT_EQ(events[0].type, "session");
  EXPECT_EQ(events[0].str("note"),
            std::string("line1\nline2\t\"quoted\" \\ \x01"));
}

TEST(TraceReader, EscapedValuesCannotForgeKeys) {
  // A hostile value spelling out `","fake":1,"x":"` must stay a value: the
  // writer escapes its quotes, so the reader's preceded-by-{-or-, rule never
  // sees a key boundary inside it.
  JsonlTraceWriter writer(Level::kSession);
  writer.open(0, "t")->event("session").text("note",
                                             "x\",\"fake\":1,\"y\":\"z");

  std::istringstream in(writer.merged());
  const auto events = read_journal(in);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].num("fake"), std::nullopt);
  EXPECT_EQ(events[0].str("y"), std::nullopt);
  EXPECT_EQ(events[0].str("note"), std::string("x\",\"fake\":1,\"y\":\"z"));
}

TEST(TraceReader, TypedAccessorsRejectMistypedFields) {
  const auto event = parse_line(
      "{\"target\":\"t\",\"seq\":3,\"ev\":\"hop\",\"ttl\":4,"
      "\"from\":\"10.0.0.1\",\"ok\":true,\"neg\":-2}");
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->target, "t");
  EXPECT_EQ(event->seq, 3u);
  EXPECT_EQ(event->num("ttl"), 4);
  EXPECT_EQ(event->num("neg"), -2);
  EXPECT_EQ(event->str("from"), std::string("10.0.0.1"));
  EXPECT_EQ(event->boolean("ok"), true);
  // Wrong type / absent key -> nullopt, not garbage.
  EXPECT_EQ(event->num("from"), std::nullopt);
  EXPECT_EQ(event->str("ttl"), std::nullopt);
  EXPECT_EQ(event->boolean("ttl"), std::nullopt);
  EXPECT_EQ(event->num("missing"), std::nullopt);
}

TEST(TraceReader, RejectsMalformedLines) {
  EXPECT_EQ(parse_line(""), std::nullopt);
  EXPECT_EQ(parse_line("not json"), std::nullopt);
  EXPECT_EQ(parse_line("{\"seq\":0,\"ev\":\"x\"}"), std::nullopt);  // no target
  EXPECT_EQ(parse_line("{\"target\":\"t\",\"ev\":\"x\"}"), std::nullopt);
  EXPECT_EQ(parse_line("{\"target\":\"t\",\"seq\":0}"), std::nullopt);

  std::istringstream in(
      "{\"target\":\"t\",\"seq\":0,\"ev\":\"session\"}\n"
      "\n"
      "garbage\n");
  try {
    read_journal(in);
    FAIL() << "accepted a malformed journal";
  } catch (const std::runtime_error& error) {
    // Blank lines are skipped but still counted: garbage is line 3.
    EXPECT_NE(std::string(error.what()).find("journal line 3"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace tn::trace
