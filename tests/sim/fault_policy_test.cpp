// Fault injection (sim/faults.h): spec parsing, seeded replay determinism,
// loss-rate statistics, schedule invariance of the content-keyed draws, and
// rate-limiter token accounting under batch waves.
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "sim/faults.h"
#include "sim/network.h"
#include "sim/vtime/scheduler.h"
#include "testutil.h"
#include "util/strings.h"

namespace tn::sim {
namespace {

net::Probe direct_probe(net::Ipv4Addr target, std::uint16_t flow_id = 0) {
  net::Probe probe;
  probe.target = target;
  probe.flow_id = flow_id;
  return probe;
}

net::Probe indirect_probe(net::Ipv4Addr target, int ttl,
                          std::uint16_t flow_id = 0) {
  net::Probe probe = direct_probe(target, flow_id);
  probe.ttl = static_cast<std::uint8_t>(ttl);
  return probe;
}

TEST(FaultSpecParse, FullSpecRoundTrips) {
  test::Fig3Topology f;
  std::istringstream in(
      "# scenario: lossy edge with an anonymous core\n"
      "seed 7\n"
      "reorder 4\n"
      "default loss=0.25 reply-loss=0.05\n"
      "node R2 anonymous=1 blackhole-ttl=5-8\n"
      "node R3 loss=0.5 rate=100/2\n");
  const FaultSpec spec = parse_fault_spec(in, f.topo);

  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.reorder_window, 4);
  EXPECT_DOUBLE_EQ(spec.default_policy.probe_loss, 0.25);
  EXPECT_DOUBLE_EQ(spec.default_policy.reply_loss, 0.05);
  EXPECT_TRUE(spec.enabled());

  const FaultPolicy* r2 = spec.override_for(f.r2);
  ASSERT_NE(r2, nullptr);
  EXPECT_TRUE(r2->anonymous);
  EXPECT_TRUE(r2->blackholes(5));
  EXPECT_TRUE(r2->blackholes(8));
  EXPECT_FALSE(r2->blackholes(4));
  EXPECT_FALSE(r2->blackholes(9));

  const FaultPolicy* r3 = spec.override_for(f.r3);
  ASSERT_NE(r3, nullptr);
  EXPECT_DOUBLE_EQ(r3->probe_loss, 0.5);
  EXPECT_DOUBLE_EQ(r3->icmp_rate, 100.0);
  EXPECT_DOUBLE_EQ(r3->icmp_burst, 2.0);

  // reply_policy: override replaces the default at the node wholesale.
  EXPECT_DOUBLE_EQ(spec.reply_policy(f.r3).reply_loss, 0.0);
  EXPECT_DOUBLE_EQ(spec.reply_policy(f.r1).reply_loss, 0.05);
}

TEST(FaultSpecParse, RejectsMalformedInput) {
  test::Fig3Topology f;
  const char* bad[] = {
      "default loss=1.5\n",         // probability out of range
      "default loss=-0.1\n",        // negative
      "default frobnicate=1\n",     // unknown key
      "default anonymous=yes\n",    // anonymous wants 0/1
      "default blackhole-ttl=0-4\n",    // TTL 0 invalid
      "default blackhole-ttl=9-4\n",    // lo > hi
      "default rate=0\n",           // rate must be positive
      "node NOPE loss=0.5\n",       // unknown node
      "node R2\n",                  // missing key=value
      "reorder 99999\n",            // window out of range
      "seed x\n",                   // non-numeric seed
      "gremlins everywhere\n",      // unknown directive
      "hide 0-4\n",                 // depth 0 invalid
      "hide 6-3\n",                 // inverted range
      "hide 3\n",                   // missing HI
      "hide 3-400\n",               // out of range
      "churn epoch=0 fraction=0.5\n",    // epoch must be > 0
      "churn epoch=-10 fraction=0.5\n",  // negative epoch
      "churn fraction=0.5\n",            // missing epoch
      "churn epoch=1000\n",              // missing fraction
      "churn epoch=1000 fraction=0\n",   // fraction must be > 0
      "churn epoch=1000 fraction=1.5\n", // fraction out of range
      "churn epoch=1000 fraction=0.5 gap=0\n",  // gap must be > 0
      "churn epoch=1000 fraction=0.5 burst=2\n",  // unknown key
  };
  for (const char* text : bad) {
    std::istringstream in(text);
    EXPECT_THROW(parse_fault_spec(in, f.topo), std::invalid_argument)
        << "accepted: " << text;
  }
}

TEST(FaultSpecParse, ErrorsNameSourceAndLine) {
  test::Fig3Topology f;
  // The bad line is line 4: comments and blanks still advance the counter,
  // so the reported location matches what an editor shows.
  std::istringstream in(
      "# lossy scenario\n"
      "seed 7\n"
      "\n"
      "default loss=1.5\n");
  try {
    parse_fault_spec(in, f.topo, "faults.txt");
    FAIL() << "accepted an out-of-range probability";
  } catch (const std::invalid_argument& error) {
    EXPECT_TRUE(util::starts_with(error.what(), "faults.txt:4: "))
        << error.what();
  }
}

TEST(FaultSpecParse, DefaultSourceLabelWhenNoneGiven) {
  test::Fig3Topology f;
  std::istringstream in("seed x\n");
  try {
    parse_fault_spec(in, f.topo);
    FAIL() << "accepted a non-numeric seed";
  } catch (const std::invalid_argument& error) {
    EXPECT_TRUE(util::starts_with(error.what(), "fault spec:1: "))
        << error.what();
  }
}

TEST(FaultSpecParse, UnknownKeyNamesTheAlternatives) {
  test::Fig3Topology f;
  // `repy-loss` is the typo the unknown-key rejection exists for: it must
  // fail loudly and list the knobs that do exist.
  std::istringstream in("default repy-loss=0.1\n");
  try {
    parse_fault_spec(in, f.topo, "faults.txt");
    FAIL() << "accepted a misspelled key";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_TRUE(util::starts_with(what, "faults.txt:1: ")) << what;
    EXPECT_NE(what.find("unknown key 'repy-loss'"), std::string::npos) << what;
    EXPECT_NE(what.find("reply-loss"), std::string::npos) << what;
    EXPECT_NE(what.find("blackhole-ttl"), std::string::npos) << what;
  }
}

TEST(FaultSpecParse, UnknownDirectiveNamesTheAlternatives) {
  test::Fig3Topology f;
  std::istringstream in("seed 1\ngremlins everywhere\n");
  try {
    parse_fault_spec(in, f.topo, "faults.txt");
    FAIL() << "accepted an unknown directive";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_TRUE(util::starts_with(what, "faults.txt:2: ")) << what;
    EXPECT_NE(what.find("unknown directive 'gremlins'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("seed, reorder, hide, churn, default, node"),
              std::string::npos)
        << what;
  }
}

TEST(FaultSpecParse, HideAndChurnRoundTrip) {
  test::Fig3Topology f;
  std::istringstream in(
      "seed 9\n"
      "hide 3-4\n"
      "churn epoch=90000 fraction=0.5 gap=500\n");
  const FaultSpec spec = parse_fault_spec(in, f.topo);
  EXPECT_EQ(spec.hide_ttl_lo, 3);
  EXPECT_EQ(spec.hide_ttl_hi, 4);
  EXPECT_TRUE(spec.hides_depth(3));
  EXPECT_TRUE(spec.hides_depth(4));
  EXPECT_FALSE(spec.hides_depth(2));
  EXPECT_FALSE(spec.hides_depth(5));
  EXPECT_EQ(spec.churn_epoch_us, 90000u);
  EXPECT_DOUBLE_EQ(spec.churn_fraction, 0.5);
  EXPECT_EQ(spec.churn_target_gap_us, 500u);
  EXPECT_TRUE(spec.enabled());
}

TEST(FaultSpecParse, InvertedHideRangeNamesTheBounds) {
  test::Fig3Topology f;
  std::istringstream in("seed 1\nhide 6-3\n");
  try {
    parse_fault_spec(in, f.topo, "faults.txt");
    FAIL() << "accepted an inverted hide range";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_TRUE(util::starts_with(what, "faults.txt:2: ")) << what;
    EXPECT_NE(what.find("inverted"), std::string::npos) << what;
    EXPECT_NE(what.find("6-3"), std::string::npos) << what;
  }
}

TEST(FaultSpecParse, NonPositiveChurnEpochIsRejectedWithHint) {
  test::Fig3Topology f;
  for (const char* epoch : {"0", "-1", "-90000"}) {
    std::istringstream in(std::string("seed 1\n\nchurn epoch=") + epoch +
                          " fraction=0.5\n");
    try {
      parse_fault_spec(in, f.topo, "faults.txt");
      FAIL() << "accepted churn epoch=" << epoch;
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_TRUE(util::starts_with(what, "faults.txt:3: ")) << what;
      EXPECT_NE(what.find("churn epoch"), std::string::npos) << what;
      EXPECT_NE(what.find("> 0"), std::string::npos) << what;
    }
  }
}

TEST(FaultSpecParse, UnknownChurnKeyNamesTheAlternatives) {
  test::Fig3Topology f;
  std::istringstream in("churn epoch=1000 fraction=0.5 windo=3\n");
  try {
    parse_fault_spec(in, f.topo, "faults.txt");
    FAIL() << "accepted an unknown churn key";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_TRUE(util::starts_with(what, "faults.txt:1: ")) << what;
    EXPECT_NE(what.find("unknown key 'windo'"), std::string::npos) << what;
    EXPECT_NE(what.find("epoch, fraction, gap"), std::string::npos) << what;
  }
}

TEST(FaultSpecParse, EmptySpecIsDisabled) {
  test::Fig3Topology f;
  std::istringstream in("# nothing but comments\n\n");
  const FaultSpec spec = parse_fault_spec(in, f.topo);
  EXPECT_FALSE(spec.enabled());
  EXPECT_TRUE(FaultSpec().enabled() == false);
  EXPECT_TRUE(FaultSpec::uniform_loss(0.2).enabled());
  EXPECT_FALSE(FaultSpec::uniform_loss(0.0).enabled());
}

TEST(FaultDrawStream, KeyedOnContentNotHistory) {
  const net::Probe probe = indirect_probe(test::ip("192.168.1.2"), 4, 9);
  util::Rng a = fault_draw_stream(1, probe);
  util::Rng b = fault_draw_stream(1, probe);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());

  // Any content change — seed, target, ttl, flow, attempt — decorrelates.
  net::Probe retry = probe;
  retry.attempt = 1;
  EXPECT_NE(fault_draw_stream(1, probe).next(),
            fault_draw_stream(2, probe).next());
  EXPECT_NE(fault_draw_stream(1, probe).next(),
            fault_draw_stream(1, retry).next());
  net::Probe deeper = probe;
  deeper.ttl = 5;
  EXPECT_NE(fault_draw_stream(1, probe).next(),
            fault_draw_stream(1, deeper).next());
}

TEST(FaultInjection, SeededReplayIsByteIdentical) {
  test::Fig3Topology f;
  const auto run = [&](std::uint64_t seed) {
    Network net(f.topo);
    FaultSpec spec = FaultSpec::uniform_loss(0.3, seed);
    spec.default_policy.reply_loss = 0.1;
    net.set_faults(spec);
    std::vector<net::ProbeReply> replies;
    for (std::uint16_t flow = 0; flow < 64; ++flow) {
      replies.push_back(net.send_probe(f.vantage, direct_probe(f.pivot3, flow)));
      for (int ttl = 1; ttl <= 4; ++ttl)
        replies.push_back(
            net.send_probe(f.vantage, indirect_probe(f.pivot3, ttl, flow)));
    }
    return replies;
  };

  const auto first = run(11);
  const auto second = run(11);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].type, second[i].type);
    EXPECT_EQ(first[i].responder, second[i].responder);
  }

  // A different seed rolls a different loss pattern.
  const auto other = run(12);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < first.size(); ++i)
    if (first[i].type != other[i].type) ++differing;
  EXPECT_GT(differing, 0u);
}

TEST(FaultInjection, OutcomeIndependentOfSurroundingProbes) {
  test::Fig3Topology f;
  const FaultSpec spec = FaultSpec::uniform_loss(0.5, 3);

  // The probe alone.
  Network alone(f.topo);
  alone.set_faults(spec);
  const net::ProbeReply solo =
      alone.send_probe(f.vantage, direct_probe(f.pivot3, 1));

  // The same probe after a pile of unrelated traffic.
  Network busy(f.topo);
  busy.set_faults(spec);
  for (std::uint16_t flow = 10; flow < 42; ++flow)
    busy.send_probe(f.vantage, direct_probe(f.pivot4, flow));
  const net::ProbeReply crowded =
      busy.send_probe(f.vantage, direct_probe(f.pivot3, 1));

  EXPECT_EQ(solo.type, crowded.type);
  EXPECT_EQ(solo.responder, crowded.responder);
}

TEST(FaultInjection, LossRateWithinStatisticalTolerance) {
  test::Fig3Topology f;
  Network net(f.topo);
  net.set_faults(FaultSpec::uniform_loss(0.3, 5));

  const int trials = 4000;
  int lost = 0;
  for (int i = 0; i < trials; ++i) {
    // Vary the flow id so every trial is an independent content key.
    const auto reply = net.send_probe(
        f.vantage, direct_probe(f.pivot3, static_cast<std::uint16_t>(i)));
    if (reply.is_none()) ++lost;
  }
  const double rate = static_cast<double>(lost) / trials;
  EXPECT_NEAR(rate, 0.3, 0.03);
  EXPECT_EQ(net.stats().fault_probe_lost, static_cast<std::uint64_t>(lost));
}

TEST(FaultInjection, RetryRollsAnIndependentFate) {
  test::Fig3Topology f;
  Network net(f.topo);
  net.set_faults(FaultSpec::uniform_loss(0.5, 9));

  // Among first-attempt losses, a bumped attempt ordinal must succeed for
  // roughly half — if retries shared the first attempt's draw they would all
  // stay lost.
  int first_lost = 0, retry_won = 0;
  for (int i = 0; i < 2000; ++i) {
    net::Probe probe = direct_probe(f.pivot3, static_cast<std::uint16_t>(i));
    if (!net.send_probe(f.vantage, probe).is_none()) continue;
    ++first_lost;
    probe.attempt = 1;
    if (!net.send_probe(f.vantage, probe).is_none()) ++retry_won;
  }
  ASSERT_GT(first_lost, 500);
  const double recovery = static_cast<double>(retry_won) / first_lost;
  EXPECT_NEAR(recovery, 0.5, 0.08);
}

TEST(FaultInjection, BlackholeSwallowsTtlRange) {
  test::Fig3Topology f;
  Network net(f.topo);
  FaultSpec spec;
  spec.seed = 1;
  spec.default_policy.blackhole_ttl_lo = 1;
  spec.default_policy.blackhole_ttl_hi = 2;
  net.set_faults(spec);

  EXPECT_TRUE(net.send_probe(f.vantage, indirect_probe(f.pivot3, 1)).is_none());
  EXPECT_TRUE(net.send_probe(f.vantage, indirect_probe(f.pivot3, 2)).is_none());
  EXPECT_EQ(net.send_probe(f.vantage, indirect_probe(f.pivot3, 3)).type,
            net::ResponseType::kTtlExceeded);
  EXPECT_FALSE(net.send_probe(f.vantage, direct_probe(f.pivot3)).is_none());
  EXPECT_EQ(net.stats().fault_blackholed, 2u);
}

TEST(FaultInjection, AnonymousRouterSuppressesTtlExceededOnly) {
  test::Fig3Topology f;
  Network net(f.topo);
  FaultSpec spec;
  spec.seed = 1;
  spec.node_overrides[f.r2].anonymous = true;
  net.set_faults(spec);

  // TTL 3 expires at R2: silence, counted as an anonymous suppression.
  EXPECT_TRUE(net.send_probe(f.vantage, indirect_probe(f.pivot3, 3)).is_none());
  EXPECT_EQ(net.stats().fault_anonymous, 1u);
  // R2 still forwards (TTL 4 reaches R3) and still answers direct probes.
  EXPECT_FALSE(
      net.send_probe(f.vantage, indirect_probe(f.pivot3, 4)).is_none());
  EXPECT_FALSE(net.send_probe(f.vantage, direct_probe(f.contra)).is_none());
}

TEST(FaultInjection, ReplyLossDropsGeneratedReplies) {
  test::Fig3Topology f;
  Network net(f.topo);
  FaultSpec spec;
  spec.seed = 4;
  spec.node_overrides[f.r3].reply_loss = 1.0;
  net.set_faults(spec);

  EXPECT_TRUE(net.send_probe(f.vantage, direct_probe(f.pivot3)).is_none());
  EXPECT_EQ(net.stats().fault_reply_lost, 1u);
  // Other nodes are untouched by the override.
  EXPECT_FALSE(net.send_probe(f.vantage, direct_probe(f.pivot4)).is_none());
}

TEST(FaultInjection, RateLimiterTokenAccountingUnderBatchWaves) {
  test::Fig3Topology f;
  NetworkConfig config;
  config.inter_probe_gap_us = 1000;
  Network net(f.topo, config);
  FaultSpec spec;
  spec.seed = 1;
  spec.node_overrides[f.r2].icmp_rate = 100.0;  // 0.1 token per 1ms gap
  spec.node_overrides[f.r2].icmp_burst = 8.0;
  net.set_faults(spec);

  // One wave of 40 probes all expiring at R2. Cross-check the admissions
  // against a shadow bucket driven by the exact clock slots the wave claims.
  std::vector<net::Probe> wave;
  for (std::uint16_t flow = 0; flow < 40; ++flow)
    wave.push_back(indirect_probe(f.pivot3, 3, flow));
  const auto replies = net.send_probe_batch(f.vantage, wave);

  RateLimiter shadow(100.0, 8.0);
  std::uint64_t admitted = 0;
  for (std::size_t i = 0; i < wave.size(); ++i)
    if (shadow.allow(static_cast<std::uint64_t>(i + 1) * 1000)) ++admitted;

  std::uint64_t answered = 0;
  for (const auto& reply : replies)
    if (!reply.is_none()) ++answered;
  EXPECT_EQ(answered, admitted);
  EXPECT_EQ(net.stats().rate_limited, wave.size() - admitted);
  EXPECT_GT(net.stats().rate_limited, 0u);
}

TEST(FaultInjection, RateLimiterSequenceIdenticalUnderVirtualTime) {
  // The 40-probe wave of RateLimiterTokenAccountingUnderBatchWaves, wall vs
  // virtual time: token buckets refill off the injection-slot clock
  // (inter_probe_gap_us per probe), never off the scheduler, so the
  // admitted/suppressed sequence — and therefore every reply — is identical
  // even though the virtual run waits out a large emulated RTT for free.
  test::Fig3Topology f;
  const auto run = [&](bool virtual_time) {
    vtime::Scheduler scheduler;
    NetworkConfig config;
    config.inter_probe_gap_us = 1000;
    config.wall_rtt_us = virtual_time ? 5000 : 0;
    if (virtual_time) config.scheduler = &scheduler;
    Network net(f.topo, config);
    FaultSpec spec;
    spec.seed = 1;
    spec.node_overrides[f.r2].icmp_rate = 100.0;
    spec.node_overrides[f.r2].icmp_burst = 8.0;
    net.set_faults(spec);
    std::vector<net::Probe> wave;
    for (std::uint16_t flow = 0; flow < 40; ++flow)
      wave.push_back(indirect_probe(f.pivot3, 3, flow));
    auto replies = net.send_probe_batch(f.vantage, wave);
    return std::make_pair(std::move(replies), net.stats().rate_limited);
  };

  const auto [wall, wall_limited] = run(false);
  const auto [virt, virt_limited] = run(true);
  ASSERT_EQ(wall.size(), virt.size());
  for (std::size_t i = 0; i < wall.size(); ++i) {
    EXPECT_EQ(wall[i].type, virt[i].type) << "probe " << i;
    EXPECT_EQ(wall[i].responder, virt[i].responder) << "probe " << i;
  }
  EXPECT_EQ(wall_limited, virt_limited);
  EXPECT_GT(wall_limited, 0u);
}

TEST(FaultInjection, ReorderPermutesClockOrderNotReplyMapping) {
  test::Fig3Topology f;
  const auto run = [&](int window) {
    Network net(f.topo);
    FaultSpec spec;
    spec.seed = 6;
    spec.reorder_window = window;
    net.set_faults(spec);
    // Mixed-depth wave: each probe's responder identifies its hop, so any
    // reply-to-probe mismatch is visible immediately.
    std::vector<net::Probe> wave;
    for (int i = 0; i < 12; ++i)
      wave.push_back(indirect_probe(f.pivot3, 1 + (i % 3),
                                    static_cast<std::uint16_t>(i)));
    return net.send_probe_batch(f.vantage, wave);
  };

  const auto plain = run(0);
  const auto reordered = run(6);
  const auto replay = run(6);
  ASSERT_EQ(plain.size(), reordered.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    // replies[i] answers probes[i] whatever the processing order; on this
    // fault-free topology the replies are order-independent, so the two runs
    // agree — and the reordered run replays identically.
    EXPECT_EQ(plain[i].responder, reordered[i].responder);
    EXPECT_EQ(reordered[i].type, replay[i].type);
    EXPECT_EQ(reordered[i].responder, replay[i].responder);
  }
}

TEST(FaultInjection, DefaultRateInstallsOnRoutersOnly) {
  test::Fig3Topology f;
  NetworkConfig config;
  config.inter_probe_gap_us = 1;  // starve refill so the burst is the cap
  Network net(f.topo, config);
  FaultSpec spec;
  spec.seed = 1;
  spec.default_policy.icmp_rate = 1.0;
  spec.default_policy.icmp_burst = 2.0;
  net.set_faults(spec);

  // R3 answers the burst, then runs dry.
  int answered = 0;
  for (std::uint16_t flow = 0; flow < 6; ++flow)
    if (!net.send_probe(f.vantage, direct_probe(f.pivot3, flow)).is_none())
      ++answered;
  EXPECT_EQ(answered, 2);
  EXPECT_GT(net.stats().rate_limited, 0u);
}

TEST(FaultInjection, HiddenDepthRangeShiftsDeeperHopsEarlier) {
  // Fig3 path from V toward S: G at depth 1, R1 at depth 2, R2 at depth 3.
  // Hiding depth 2 makes R1 an MPLS-style tunnel hop: it forwards without
  // decrementing, so TTL k >= 2 now expires one router deeper.
  test::Fig3Topology f;
  Network clean(f.topo);
  Network hidden(f.topo);
  FaultSpec spec;
  spec.seed = 1;
  spec.hide_ttl_lo = 2;
  spec.hide_ttl_hi = 2;
  hidden.set_faults(spec);

  // Depth 1 is below the tunnel: identical replies.
  EXPECT_EQ(clean.send_probe(f.vantage, indirect_probe(f.pivot3, 1)).to_string(),
            hidden.send_probe(f.vantage, indirect_probe(f.pivot3, 1)).to_string());
  // Past the tunnel every TTL answers as the clean network's TTL+1 would.
  for (int ttl = 2; ttl <= 4; ++ttl) {
    EXPECT_EQ(
        clean.send_probe(f.vantage, indirect_probe(f.pivot3, ttl + 1)).to_string(),
        hidden.send_probe(f.vantage, indirect_probe(f.pivot3, ttl)).to_string())
        << "ttl " << ttl;
  }
  // The hidden router's addresses never appear in any reply.
  for (int ttl = 1; ttl <= 8; ++ttl) {
    const net::ProbeReply reply =
        hidden.send_probe(f.vantage, indirect_probe(f.pivot3, ttl));
    if (reply.is_none()) continue;
    for (const sim::InterfaceId iface : f.topo.node(f.r1).interfaces)
      EXPECT_NE(reply.responder, f.topo.interface(iface).addr) << "ttl " << ttl;
  }
  // Direct probes traverse the tunnel unharmed.
  EXPECT_FALSE(hidden.send_probe(f.vantage, direct_probe(f.pivot3)).is_none());
  EXPECT_GT(hidden.stats().fault_hidden_hops, 0u);
}

TEST(FaultInjection, ChurnEpochIsAPureFunctionOfSchedulePosition) {
  FaultSpec spec;
  spec.churn_epoch_us = 5000;
  spec.churn_target_gap_us = 1000;
  spec.churn_fraction = 0.5;
  for (std::size_t index = 0; index < 5; ++index)
    EXPECT_EQ(spec.epoch_of(index), 0) << index;
  for (std::size_t index = 5; index < 10; ++index)
    EXPECT_EQ(spec.epoch_of(index), 1) << index;
  // Disabled churn never advances the epoch.
  EXPECT_EQ(FaultSpec{}.epoch_of(1000000), 0);
  // The churned set is a deterministic seed-keyed draw.
  FaultSpec all = spec;
  all.churn_fraction = 1.0;
  EXPECT_TRUE(all.churned(0));
  FaultSpec none = spec;
  none.churn_fraction = 0.0;
  EXPECT_FALSE(none.churned(0));
  for (NodeId node = 0; node < 32; ++node)
    EXPECT_EQ(spec.churned(node), spec.churned(node)) << node;
}

TEST(FaultInjection, ChurnRerollsEcmpTieBreaksOnlyInLaterEpochs) {
  // A diamond: V - G - {A, B} - multi-access S. G holds two equal-cost next
  // hops toward S, so churn can flip its per-flow tie-break in epoch 1.
  sim::TopologyBuilder builder;
  const NodeId v = builder.add_host("V");
  const NodeId g = builder.add_router("G");
  const NodeId a = builder.add_router("A");
  const NodeId b = builder.add_router("B");
  const NodeId h = builder.add_host("H");
  const auto lan_v = builder.add_subnet(test::pfx("10.0.0.0/30"));
  builder.attach(v, lan_v, test::ip("10.0.0.1"));
  builder.attach(g, lan_v, test::ip("10.0.0.2"));
  const auto ga = builder.add_subnet(test::pfx("10.0.1.0/31"));
  builder.attach(g, ga, test::ip("10.0.1.0"));
  builder.attach(a, ga, test::ip("10.0.1.1"));
  const auto gb = builder.add_subnet(test::pfx("10.0.2.0/31"));
  builder.attach(g, gb, test::ip("10.0.2.0"));
  builder.attach(b, gb, test::ip("10.0.2.1"));
  const auto s = builder.add_subnet(test::pfx("192.168.1.0/29"));
  builder.attach(a, s, test::ip("192.168.1.1"));
  builder.attach(b, s, test::ip("192.168.1.2"));
  builder.attach(h, s, test::ip("192.168.1.3"));

  const Topology topo = std::move(builder).build();
  Network net(topo);
  FaultSpec spec;
  spec.seed = 7;
  spec.churn_epoch_us = 1000;
  spec.churn_fraction = 1.0;
  net.set_faults(spec);

  const net::Ipv4Addr target = test::ip("192.168.1.3");
  bool any_flip = false;
  for (std::uint16_t flow = 0; flow < 16; ++flow) {
    // TTL 2 expires at A or B — whichever G's tie-break picked.
    net::Probe before = indirect_probe(target, 2, flow);
    net::Probe after = before;
    after.epoch = 1;
    const net::ProbeReply reply0 = net.send_probe(v, before);
    const net::ProbeReply reply1 = net.send_probe(v, after);
    ASSERT_FALSE(reply0.is_none());
    ASSERT_FALSE(reply1.is_none());
    if (reply0.responder != reply1.responder) any_flip = true;
    // Same epoch, same probe -> same pick: replies stay pure functions of
    // probe content.
    EXPECT_EQ(net.send_probe(v, before).to_string(), reply0.to_string());
    EXPECT_EQ(net.send_probe(v, after).to_string(), reply1.to_string());
    // Both epochs still deliver: churn re-picks among equal-cost next hops
    // only, so the destination stays reachable.
    net::Probe deliver = direct_probe(target, flow);
    deliver.epoch = 1;
    EXPECT_FALSE(net.send_probe(v, deliver).is_none());
  }
  EXPECT_TRUE(any_flip) << "churn never flipped a tie-break across 16 flows";
  EXPECT_GT(net.stats().fault_churned_picks, 0u);
}

}  // namespace
}  // namespace tn::sim
