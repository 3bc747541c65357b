// Tests for the pub/sub middleware: delivery, typing, taps, subscription
// lifetimes, and the deliberate injectability property the spoofing
// scenario relies on.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sesame/mw/bus.hpp"
#include "sesame/obs/metrics.hpp"
#include "support/tap_recorder.hpp"

namespace mw = sesame::mw;

namespace {

struct Telemetry {
  int uav_id = 0;
  double lat = 0.0;
  double lon = 0.0;
};

}  // namespace

TEST(Bus, DeliversToSubscriber) {
  mw::Bus bus;
  std::vector<int> received;
  auto sub = bus.subscribe<int>(
      "counter", [&](const mw::MessageHeader&, const int& v) {
        received.push_back(v);
      });
  bus.publish("counter", 1, "node_a", 0.0);
  bus.publish("counter", 2, "node_a", 0.1);
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0], 1);
  EXPECT_EQ(received[1], 2);
}

TEST(Bus, HeaderCarriesMetadata) {
  mw::Bus bus;
  mw::MessageHeader seen;
  auto sub = bus.subscribe<int>(
      "t", [&](const mw::MessageHeader& h, const int&) { seen = h; });
  bus.publish("t", 7, "uav_1", 12.5);
  EXPECT_EQ(seen.source, "uav_1");
  EXPECT_EQ(seen.topic, "t");
  EXPECT_DOUBLE_EQ(seen.time_s, 12.5);
}

TEST(Bus, SequenceNumbersMonotone) {
  mw::Bus bus;
  std::vector<std::uint64_t> seqs;
  auto sub = bus.subscribe<int>(
      "t", [&](const mw::MessageHeader& h, const int&) { seqs.push_back(h.seq); });
  bus.publish("t", 0, "a", 0.0);
  bus.publish("other", 0, "a", 0.0);  // consumes a sequence number too
  bus.publish("t", 0, "a", 0.0);
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_LT(seqs[0], seqs[1]);
}

TEST(Bus, TopicsAreIsolated) {
  mw::Bus bus;
  int count_a = 0, count_b = 0;
  auto sa = bus.subscribe<int>("a", [&](const mw::MessageHeader&, const int&) {
    ++count_a;
  });
  auto sb = bus.subscribe<int>("b", [&](const mw::MessageHeader&, const int&) {
    ++count_b;
  });
  bus.publish("a", 1, "n", 0.0);
  EXPECT_EQ(count_a, 1);
  EXPECT_EQ(count_b, 0);
}

TEST(Bus, MultipleSubscribersInOrder) {
  mw::Bus bus;
  std::vector<std::string> order;
  auto s1 = bus.subscribe<int>("t", [&](const mw::MessageHeader&, const int&) {
    order.push_back("first");
  });
  auto s2 = bus.subscribe<int>("t", [&](const mw::MessageHeader&, const int&) {
    order.push_back("second");
  });
  bus.publish("t", 0, "n", 0.0);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "first");
  EXPECT_EQ(order[1], "second");
}

TEST(Bus, StructPayloadsCopiedFaithfully) {
  mw::Bus bus;
  Telemetry seen;
  auto sub = bus.subscribe<Telemetry>(
      "telemetry", [&](const mw::MessageHeader&, const Telemetry& t) { seen = t; });
  bus.publish("telemetry", Telemetry{3, 35.1, 33.4}, "uav_3", 1.0);
  EXPECT_EQ(seen.uav_id, 3);
  EXPECT_DOUBLE_EQ(seen.lat, 35.1);
}

TEST(Bus, TypeMismatchThrows) {
  mw::Bus bus;
  auto sub = bus.subscribe<int>("t", [](const mw::MessageHeader&, const int&) {});
  EXPECT_THROW(bus.publish("t", 1.5, "n", 0.0), std::runtime_error);
}

TEST(Bus, UnsubscribeOnTokenDestruction) {
  mw::Bus bus;
  int count = 0;
  {
    auto sub = bus.subscribe<int>("t", [&](const mw::MessageHeader&, const int&) {
      ++count;
    });
    bus.publish("t", 0, "n", 0.0);
  }
  bus.publish("t", 0, "n", 0.0);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(bus.subscriber_count("t"), 0u);
}

TEST(Bus, SubscriptionResetAndMove) {
  mw::Bus bus;
  int count = 0;
  auto sub = bus.subscribe<int>("t", [&](const mw::MessageHeader&, const int&) {
    ++count;
  });
  EXPECT_TRUE(sub.active());
  mw::Subscription moved = std::move(sub);
  EXPECT_TRUE(moved.active());
  bus.publish("t", 0, "n", 0.0);
  EXPECT_EQ(count, 1);
  moved.reset();
  EXPECT_FALSE(moved.active());
  bus.publish("t", 0, "n", 0.0);
  EXPECT_EQ(count, 1);
}

TEST(Bus, TapSeesAllTopics) {
  mw::Bus bus;
  std::vector<std::string> seen;
  auto tap = bus.add_tap([&](const mw::MessageHeader& h, const std::any&,
                             std::type_index) { seen.emplace_back(h.topic); });
  bus.publish("a", 1, "n", 0.0);
  bus.publish("b", 2.0, "n", 0.0);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "a");
  EXPECT_EQ(seen[1], "b");
}

TEST(Bus, TapCanInspectPayload) {
  mw::Bus bus;
  double value = 0.0;
  auto tap = bus.add_tap([&](const mw::MessageHeader&, const std::any& payload,
                             std::type_index type) {
    if (type == std::type_index(typeid(Telemetry))) {
      value = std::any_cast<std::reference_wrapper<const Telemetry>>(payload)
                  .get()
                  .lat;
    }
  });
  bus.publish("telemetry", Telemetry{1, 35.5, 33.0}, "uav_1", 0.0);
  EXPECT_DOUBLE_EQ(value, 35.5);
}

TEST(Bus, TapRecordsHeaders) {
  mw::Bus bus;
  const sesame::test::TapRecorder recorder(bus);
  bus.publish("a", 1, "alice", 0.5);
  bus.publish("b", 2.0, "bob", 1.5);
  const auto& rows = recorder.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].seq, 0u);
  EXPECT_EQ(rows[0].source, "alice");
  EXPECT_EQ(rows[0].time_s, 0.5);
  EXPECT_EQ(rows[0].type_name, typeid(int).name());
  EXPECT_EQ(rows[1].seq, 1u);
  EXPECT_EQ(rows[1].topic, "b");
  EXPECT_EQ(rows[1].type_name, typeid(double).name());
}

// The security-critical property the paper's attack scenario exploits:
// the bus does not authenticate sources, so an attacker node can publish
// to a topic that legitimate nodes trust.
TEST(Bus, UnauthenticatedInjectionIsPossible) {
  mw::Bus bus;
  std::vector<std::string> sources;
  auto sub = bus.subscribe<Telemetry>(
      "uav_1/position",
      [&](const mw::MessageHeader& h, const Telemetry&) {
        sources.emplace_back(h.source);
      });
  bus.publish("uav_1/position", Telemetry{1, 35.0, 33.0}, "uav_1", 0.0);
  bus.publish("uav_1/position", Telemetry{1, 0.0, 0.0}, "attacker", 0.1);
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_EQ(sources[1], "attacker");  // delivered — no authentication
}

TEST(Bus, ReentrantUnsubscribeDuringDelivery) {
  mw::Bus bus;
  int calls = 0;
  mw::Subscription sub;
  sub = bus.subscribe<int>("t", [&](const mw::MessageHeader&, const int&) {
    ++calls;
    sub.reset();  // unsubscribe from inside the handler
  });
  bus.publish("t", 0, "n", 0.0);
  bus.publish("t", 0, "n", 0.0);
  EXPECT_EQ(calls, 1);
}

TEST(Bus, PublisherRestrictionDropsUnauthorized) {
  mw::Bus bus;
  bus.restrict_publisher("uav_1/position_fix", "collaborative_localization");
  int delivered = 0;
  auto sub = bus.subscribe<int>(
      "uav_1/position_fix",
      [&](const mw::MessageHeader&, const int&) { ++delivered; });
  bus.publish("uav_1/position_fix", 1, "collaborative_localization", 0.0);
  bus.publish("uav_1/position_fix", 2, "attacker", 0.1);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(bus.rejected_publications(), 1u);
}

TEST(Bus, TapsStillSeeRejectedTraffic) {
  // A network IDS inspects traffic before the transport drops it.
  mw::Bus bus;
  bus.restrict_publisher("cmd", "operator");
  int tapped = 0;
  auto tap = bus.add_tap(
      [&](const mw::MessageHeader&, const std::any&, std::type_index) {
        ++tapped;
      });
  bus.publish("cmd", 1, "attacker", 0.0);
  EXPECT_EQ(tapped, 1);
  EXPECT_EQ(bus.rejected_publications(), 1u);
}

TEST(Bus, RestrictionIsPerTopic) {
  mw::Bus bus;
  bus.restrict_publisher("protected", "alice");
  int open_count = 0;
  auto sub = bus.subscribe<int>(
      "open", [&](const mw::MessageHeader&, const int&) { ++open_count; });
  bus.publish("open", 1, "anyone", 0.0);
  EXPECT_EQ(open_count, 1);
  EXPECT_EQ(bus.rejected_publications(), 0u);
}

TEST(BusMetrics, PublishIncrementsPerTopicCounter) {
  mw::Bus bus;
  sesame::obs::MetricsRegistry reg;
  bus.set_metrics(&reg);
  auto sub = bus.subscribe<int>("uav/uav1/telemetry",
                                [](const mw::MessageHeader&, const int&) {});
  bus.publish("uav/uav1/telemetry", 1, "uav1", 0.0);
  bus.publish("uav/uav1/telemetry", 2, "uav1", 1.0);
  bus.publish("other", 3, "uav2", 1.0);
  EXPECT_DOUBLE_EQ(
      reg.counter("sesame.mw.publish_total", {{"topic", "uav/uav1/telemetry"}})
          .value(),
      2.0);
  EXPECT_DOUBLE_EQ(
      reg.counter("sesame.mw.publish_total", {{"topic", "other"}}).value(),
      1.0);
}

TEST(BusMetrics, DeliverCountsHandlerInvocations) {
  mw::Bus bus;
  sesame::obs::MetricsRegistry reg;
  bus.set_metrics(&reg);
  auto s1 = bus.subscribe<int>("t", [](const mw::MessageHeader&, const int&) {});
  auto s2 = bus.subscribe<int>("t", [](const mw::MessageHeader&, const int&) {});
  const auto& deliver =
      reg.counter("sesame.mw.deliver_total", {{"topic", "t"}});
  const auto& latency =
      reg.histogram("sesame.mw.delivery_latency_seconds", {{"topic", "t"}});
  // deliver_total is exact on every fan-out; the latency histogram times
  // only the 16th fan-out of the topic, recorded with weight 16.
  for (int i = 1; i <= 15; ++i) {
    bus.publish("t", i, "n", 0.0);
    EXPECT_DOUBLE_EQ(deliver.value(), 2.0 * i);
  }
  EXPECT_EQ(latency.count(), 0u);
  bus.publish("t", 16, "n", 0.0);
  EXPECT_DOUBLE_EQ(deliver.value(), 32.0);
  EXPECT_EQ(latency.count(), 16u);
  EXPECT_DOUBLE_EQ(latency.sum(), 16.0 * latency.max_observed());
  for (int i = 17; i <= 32; ++i) bus.publish("t", i, "n", 0.0);
  EXPECT_DOUBLE_EQ(deliver.value(), 64.0);
  EXPECT_EQ(latency.count(), 32u);
}

TEST(BusMetrics, TimingStrideIsPerTopic) {
  mw::Bus bus;
  sesame::obs::MetricsRegistry reg;
  bus.set_metrics(&reg);
  auto sa = bus.subscribe<int>("a", [](const mw::MessageHeader&, const int&) {});
  auto sb = bus.subscribe<int>("b", [](const mw::MessageHeader&, const int&) {});
  const auto& lat_a =
      reg.histogram("sesame.mw.delivery_latency_seconds", {{"topic", "a"}});
  const auto& lat_b =
      reg.histogram("sesame.mw.delivery_latency_seconds", {{"topic", "b"}});
  // Interleaved: 16 fan-outs of "a" and 15 of "b" make 31 bus-wide, but
  // only "a" has reached its own 16th.
  for (int i = 1; i <= 15; ++i) {
    bus.publish("a", i, "n", 0.0);
    bus.publish("b", i, "n", 0.0);
  }
  bus.publish("a", 16, "n", 0.0);
  EXPECT_EQ(lat_a.count(), 16u);
  EXPECT_EQ(lat_b.count(), 0u);
  bus.publish("b", 16, "n", 0.0);
  EXPECT_EQ(lat_a.count(), 16u);
  EXPECT_EQ(lat_b.count(), 16u);
  // Re-attaching restarts every topic's count: "a" stands at 20 fan-outs,
  // and the new registry still sees its first timing at the 16th after.
  for (int i = 17; i <= 20; ++i) bus.publish("a", i, "n", 0.0);
  sesame::obs::MetricsRegistry fresh;
  bus.set_metrics(&fresh);
  const auto& fresh_a =
      fresh.histogram("sesame.mw.delivery_latency_seconds", {{"topic", "a"}});
  for (int i = 1; i <= 15; ++i) bus.publish("a", i, "n", 0.0);
  EXPECT_EQ(fresh_a.count(), 0u);
  bus.publish("a", 16, "n", 0.0);
  EXPECT_EQ(fresh_a.count(), 16u);
}

TEST(BusMetrics, RejectedPublicationsAreCounted) {
  mw::Bus bus;
  sesame::obs::MetricsRegistry reg;
  bus.set_metrics(&reg);
  bus.restrict_publisher("cmd", "operator");
  bus.publish("cmd", 1, "attacker", 0.0);
  EXPECT_DOUBLE_EQ(reg.counter("sesame.mw.rejected_total").value(), 1.0);
  // The attempt still shows in publish_total, as a tap sees it.
  EXPECT_DOUBLE_EQ(
      reg.counter("sesame.mw.publish_total", {{"topic", "cmd"}}).value(), 1.0);
}

TEST(BusMetrics, DetachStopsCounting) {
  mw::Bus bus;
  sesame::obs::MetricsRegistry reg;
  bus.set_metrics(&reg);
  bus.publish("t", 1, "n", 0.0);
  bus.set_metrics(nullptr);
  bus.publish("t", 2, "n", 0.0);
  EXPECT_DOUBLE_EQ(
      reg.counter("sesame.mw.publish_total", {{"topic", "t"}}).value(), 1.0);
}

TEST(Bus, ExplicitSourceIsCheckedAgainstPublisherRestrictions) {
  mw::Bus bus;
  bus.restrict_publisher("cmd", "operator");
  const auto cmd = bus.intern_topic("cmd");
  const auto operator_source = bus.intern_source("operator");
  const auto rogue_source = bus.intern_source("rogue");
  std::vector<std::string> delivered_from;
  auto sub = bus.subscribe<int>(
      "cmd", [&](const mw::MessageHeader& h, const int&) {
        delivered_from.emplace_back(h.source);
      });
  bus.publish(cmd, 1, operator_source, 0.0);
  bus.publish(cmd, 2, rogue_source, 0.1);
  EXPECT_EQ(delivered_from, std::vector<std::string>{"operator"});
  EXPECT_EQ(bus.rejected_publications(), 1u);
}

// ---------------------------------------------------------------------------
// Bus correctness regressions.

TEST(Bus, TapMayAddTapDuringFanOut) {
  // Regression: publish used to iterate the live tap map while invoking
  // taps, so a tap registering another tap invalidated the iterator (UB).
  mw::Bus bus;
  int second_tap_calls = 0;
  mw::Subscription late_tap;
  auto first_tap = bus.add_tap(
      [&](const mw::MessageHeader&, const std::any&, std::type_index) {
        if (!late_tap.active()) {
          late_tap = bus.add_tap(
              [&](const mw::MessageHeader&, const std::any&, std::type_index) {
                ++second_tap_calls;
              });
        }
      });
  bus.publish("t", 1, "n", 0.0);
  EXPECT_EQ(second_tap_calls, 0);  // registered mid-flight: misses this one
  bus.publish("t", 2, "n", 1.0);
  EXPECT_EQ(second_tap_calls, 1);
}

TEST(Bus, TapMayReleaseOtherTapDuringFanOut) {
  // Regression companion: erasing a map entry mid-iteration was UB too.
  // The released tap still observes the in-flight message (the fan-out
  // works on a copy of the tap list) and nothing afterwards.
  mw::Bus bus;
  int released_tap_calls = 0;
  mw::Subscription victim = bus.add_tap(
      [&](const mw::MessageHeader&, const std::any&, std::type_index) {
        ++released_tap_calls;
      });
  auto killer = bus.add_tap(
      [&](const mw::MessageHeader&, const std::any&, std::type_index) {
        victim.reset();
      });
  bus.publish("t", 1, "n", 0.0);
  EXPECT_EQ(released_tap_calls, 1);
  bus.publish("t", 2, "n", 1.0);
  EXPECT_EQ(released_tap_calls, 1);
}

TEST(Bus, TapThatPublishesRunsTheInnerPublicationFirst) {
  // The IDS publishes its alerts from inside its tap. The inner
  // publication runs its whole pipeline before the outer fan-out resumes:
  // a tap registered before the publishing tap sees the outer message and
  // then the inner one; a tap registered after it sees the inner one
  // first. Test-side recorders rely on this order.
  mw::Bus bus;
  const sesame::test::TapRecorder before(bus);
  auto alerting = bus.add_tap(
      [&](const mw::MessageHeader& h, const std::any&, std::type_index) {
        if (h.topic == "telemetry") bus.publish("alerts", 1, "ids", h.time_s);
      });
  const sesame::test::TapRecorder after(bus);
  bus.publish("telemetry", 2.0, "uav1", 3.0);

  ASSERT_EQ(before.rows().size(), 2u);
  EXPECT_EQ(before.rows()[0].topic, "telemetry");
  EXPECT_EQ(before.rows()[1].topic, "alerts");
  ASSERT_EQ(after.rows().size(), 2u);
  EXPECT_EQ(after.rows()[0].topic, "alerts");
  EXPECT_EQ(after.rows()[1].topic, "telemetry");
  // Sequence numbers follow publication, not observation, order.
  EXPECT_EQ(after.rows()[0].seq, 1u);
  EXPECT_EQ(after.rows()[1].seq, 0u);
}

TEST(Bus, TypeMismatchDeliversToNoOneAtAll) {
  // Regression: the type check used to fire mid-fan-out, after earlier
  // same-type handlers had already run — a half-delivered publication.
  mw::Bus bus;
  int delivered = 0;
  auto ok = bus.subscribe<int>(
      "t", [&](const mw::MessageHeader&, const int&) { ++delivered; });
  auto bad = bus.subscribe<double>("t",
                                   [](const mw::MessageHeader&, const double&) {});
  EXPECT_THROW(bus.publish("t", 1, "n", 0.0), std::runtime_error);
  EXPECT_EQ(delivered, 0);  // all-or-nothing: nobody saw the bad publication
}

TEST(Bus, MessagesPublishedExcludesAclRejected) {
  // Regression: messages_published() returned the raw sequence counter,
  // which also counts publications the ACL rejected.
  mw::Bus bus;
  bus.restrict_publisher("cmd", "operator");
  bus.publish("cmd", 1, "operator", 0.0);
  bus.publish("cmd", 2, "attacker", 0.1);
  bus.publish("cmd", 3, "attacker", 0.2);
  EXPECT_EQ(bus.messages_published(), 1u);
  EXPECT_EQ(bus.rejected_publications(), 2u);
}

TEST(Bus, SubscriptionSelfMoveAssignmentKeepsRegistration) {
  mw::Bus bus;
  int delivered = 0;
  auto sub = bus.subscribe<int>(
      "t", [&](const mw::MessageHeader&, const int&) { ++delivered; });
  auto& alias = sub;  // defeats trivial self-move lint, not the bug
  sub = std::move(alias);
  EXPECT_TRUE(sub.active());
  bus.publish("t", 1, "n", 0.0);
  EXPECT_EQ(delivered, 1);
}

TEST(BusMetrics, ThrowingHandlerStillRecordsCompletedDeliveries) {
  // Regression: a throwing handler used to skip the deliver/latency
  // instruments entirely, under-counting the handlers that did run.
  mw::Bus bus;
  sesame::obs::MetricsRegistry reg;
  bus.set_metrics(&reg);
  auto ok = bus.subscribe<int>("t", [](const mw::MessageHeader&, const int&) {});
  auto boom = bus.subscribe<int>("t", [](const mw::MessageHeader&, const int& v) {
    if (v == 16) throw std::runtime_error("handler failure");
  });
  const auto& deliver =
      reg.counter("sesame.mw.deliver_total", {{"topic", "t"}});
  const auto& latency =
      reg.histogram("sesame.mw.delivery_latency_seconds", {{"topic", "t"}});
  for (int i = 1; i <= 15; ++i) bus.publish("t", i, "n", 0.0);
  EXPECT_DOUBLE_EQ(deliver.value(), 30.0);
  EXPECT_EQ(latency.count(), 0u);
  // The 16th fan-out is the timed one, and its second handler throws: the
  // handler that completed is counted and the timing is still recorded.
  EXPECT_THROW(bus.publish("t", 16, "n", 0.0), std::runtime_error);
  EXPECT_DOUBLE_EQ(deliver.value(), 31.0);
  EXPECT_EQ(latency.count(), 16u);
}

// ---------------------------------------------------------------------------
// Fault injection.

#include "sesame/mw/fault_plan.hpp"

TEST(FaultPlan, ParserReadsSeedAndRules) {
  const auto plan = mw::parse_fault_plan(
      "# stress schedule\n"
      "seed 99\n"
      "rule topic=uav/uav1/ suffix=/telemetry drop=0.25 delay=0.5:3 dup=0.1\n"
      "rule source=attacker drop=1.0 from=60 until=120 reorder\n");
  EXPECT_EQ(plan.seed, 99u);
  ASSERT_EQ(plan.rules.size(), 2u);
  EXPECT_EQ(plan.rules[0].topic_prefix, "uav/uav1/");
  EXPECT_EQ(plan.rules[0].topic_suffix, "/telemetry");
  EXPECT_DOUBLE_EQ(plan.rules[0].drop_probability, 0.25);
  EXPECT_DOUBLE_EQ(plan.rules[0].delay_probability, 0.5);
  EXPECT_EQ(plan.rules[0].delay_steps, 3u);
  EXPECT_DOUBLE_EQ(plan.rules[0].duplicate_probability, 0.1);
  EXPECT_FALSE(plan.rules[0].reorder);
  EXPECT_EQ(plan.rules[1].source, "attacker");
  EXPECT_DOUBLE_EQ(plan.rules[1].start_time_s, 60.0);
  EXPECT_DOUBLE_EQ(plan.rules[1].stop_time_s, 120.0);
  EXPECT_TRUE(plan.rules[1].reorder);
}

TEST(FaultPlan, ParserRejectsMalformedInput) {
  EXPECT_THROW(mw::parse_fault_plan(""), std::runtime_error);
  EXPECT_THROW(mw::parse_fault_plan("# only a comment\n"), std::runtime_error);
  EXPECT_THROW(mw::parse_fault_plan("bogus 1\n"), std::runtime_error);
  EXPECT_THROW(mw::parse_fault_plan("rule drop=maybe\n"), std::runtime_error);
  EXPECT_THROW(mw::parse_fault_plan("rule color=red\n"), std::runtime_error);
  EXPECT_THROW(mw::parse_fault_plan("rule drop=1.5\n"), std::invalid_argument);
  EXPECT_THROW(mw::parse_fault_plan("rule drop=0.5 from=9 until=3\n"),
               std::invalid_argument);
  EXPECT_THROW(mw::load_fault_plan("/nonexistent/faults.plan"),
               std::runtime_error);
}

TEST(FaultPlan, FirstMatchingRuleWins) {
  mw::FaultRule specific;
  specific.topic_prefix = "uav/uav1/";
  mw::FaultRule broad;
  broad.drop_probability = 1.0;
  mw::FaultPlan plan;
  plan.rules = {specific, broad};  // specific (no-op) shadows broad

  mw::FaultInjector injector(plan);
  mw::MessageHeader h;
  h.topic = "uav/uav1/telemetry";
  EXPECT_FALSE(injector.decide(h).drop);
  h.topic = "uav/uav2/telemetry";
  EXPECT_TRUE(injector.decide(h).drop);
}

TEST(FaultPlan, RuleWindowGatesMatching) {
  mw::FaultRule rule;
  rule.start_time_s = 10.0;
  rule.stop_time_s = 20.0;
  mw::MessageHeader h;
  h.topic = "t";
  h.time_s = 9.9;
  EXPECT_FALSE(rule.matches(h));
  h.time_s = 10.0;
  EXPECT_TRUE(rule.matches(h));
  h.time_s = 20.0;  // stop is exclusive
  EXPECT_FALSE(rule.matches(h));
}

TEST(FaultInjection, DropRuleSuppressesDeliveryButCountsAsPublished) {
  mw::Bus bus;
  mw::FaultPlan plan;
  mw::FaultRule rule;
  rule.topic_prefix = "lossy";
  rule.drop_probability = 1.0;
  plan.rules.push_back(rule);
  mw::FaultInjector injector(plan);
  auto policy = bus.add_delivery_policy(&injector);
  const sesame::test::TapRecorder recorder(bus);

  int delivered = 0;
  auto sub = bus.subscribe<int>(
      "lossy", [&](const mw::MessageHeader&, const int&) { ++delivered; });
  int safe = 0;
  auto sub2 = bus.subscribe<int>(
      "safe", [&](const mw::MessageHeader&, const int&) { ++safe; });
  bus.publish("lossy", 1, "n", 0.0);
  bus.publish("safe", 2, "n", 0.0);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(safe, 1);
  // Accepted by the transport, lost on the link: still "published".
  EXPECT_EQ(bus.messages_published(), 2u);
  EXPECT_EQ(bus.faults_dropped(), 1u);
  ASSERT_EQ(recorder.rows().size(), 2u);  // a tap sees the dropped attempt
  EXPECT_EQ(recorder.rows()[0].topic, "lossy");
}

TEST(FaultInjection, DelayedMessageArrivesAfterNDrains) {
  mw::Bus bus;
  mw::FaultPlan plan;
  mw::FaultRule rule;
  rule.delay_probability = 1.0;
  rule.delay_steps = 2;
  plan.rules.push_back(rule);
  mw::FaultInjector injector(plan);
  auto policy = bus.add_delivery_policy(&injector);

  std::vector<int> received;
  auto sub = bus.subscribe<int>(
      "t", [&](const mw::MessageHeader&, const int& v) { received.push_back(v); });
  bus.publish("t", 7, "n", 0.0);
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(bus.delayed_pending(), 1u);
  EXPECT_EQ(bus.drain_delayed(), 0u);  // one step down, one to go
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(bus.drain_delayed(), 1u);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], 7);
  EXPECT_EQ(bus.delayed_pending(), 0u);
  EXPECT_EQ(bus.faults_delayed(), 1u);
}

TEST(FaultInjection, DuplicateDeliversTwice) {
  mw::Bus bus;
  mw::FaultPlan plan;
  mw::FaultRule rule;
  rule.duplicate_probability = 1.0;
  plan.rules.push_back(rule);
  mw::FaultInjector injector(plan);
  auto policy = bus.add_delivery_policy(&injector);

  int delivered = 0;
  auto sub = bus.subscribe<int>(
      "t", [&](const mw::MessageHeader&, const int&) { ++delivered; });
  bus.publish("t", 1, "n", 0.0);
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(bus.faults_duplicated(), 1u);
  EXPECT_EQ(bus.messages_published(), 1u);  // one publication, two copies
}

TEST(FaultInjection, ReorderedDelayedMessageOvertakesEarlierOne) {
  mw::Bus bus;

  // Handwritten policy: delay the first message plainly, the second with
  // reorder, letting both mature on the same drain.
  class Script : public mw::DeliveryPolicy {
   public:
    mw::FaultDecision decide(const mw::MessageHeader&) override {
      mw::FaultDecision d;
      d.delay_steps = 1;
      d.reorder = calls_++ > 0;
      return d;
    }

   private:
    int calls_ = 0;
  };
  Script script;
  auto policy = bus.add_delivery_policy(&script);

  std::vector<int> received;
  auto sub = bus.subscribe<int>(
      "t", [&](const mw::MessageHeader&, const int& v) { received.push_back(v); });
  bus.publish("t", 1, "n", 0.0);
  bus.publish("t", 2, "n", 0.1);
  EXPECT_EQ(bus.drain_delayed(), 2u);
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0], 2);  // the reordered message jumped the queue
  EXPECT_EQ(received[1], 1);
}

TEST(FaultInjection, SameSeedReproducesDecisions) {
  mw::FaultPlan plan;
  plan.seed = 4242;
  mw::FaultRule rule;
  rule.drop_probability = 0.3;
  rule.delay_probability = 0.3;
  rule.duplicate_probability = 0.3;
  plan.rules.push_back(rule);

  const auto run = [&plan] {
    mw::FaultInjector injector(plan);
    std::vector<std::string> decisions;
    for (int i = 0; i < 200; ++i) {
      mw::MessageHeader h;
      h.topic = "t";
      h.time_s = i;
      const auto d = injector.decide(h);
      decisions.push_back(std::to_string(d.drop) + ":" +
                          std::to_string(d.delay_steps) + ":" +
                          std::to_string(d.duplicates));
    }
    return decisions;
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultInjection, UnmatchedTrafficConsumesNoRandomness) {
  // Determinism contract: rule-free topics must not advance the fault
  // stream, so adding chatter on other topics never shifts the faults.
  mw::FaultPlan plan;
  plan.seed = 7;
  mw::FaultRule rule;
  rule.topic_prefix = "watched";
  rule.drop_probability = 0.5;
  plan.rules.push_back(rule);

  const auto run = [&plan](bool with_chatter) {
    mw::FaultInjector injector(plan);
    std::vector<bool> drops;
    for (int i = 0; i < 100; ++i) {
      if (with_chatter) {
        // The header holds a view; the owning string must outlive decide().
        const std::string noise_topic = "unwatched/" + std::to_string(i);
        mw::MessageHeader noise;
        noise.topic = noise_topic;
        injector.decide(noise);
      }
      mw::MessageHeader h;
      h.topic = "watched";
      drops.push_back(injector.decide(h).drop);
    }
    return drops;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(FaultInjection, ReleasingPolicyStopsFaulting) {
  mw::Bus bus;
  mw::FaultPlan plan;
  mw::FaultRule rule;
  rule.drop_probability = 1.0;
  plan.rules.push_back(rule);
  mw::FaultInjector injector(plan);
  auto policy = bus.add_delivery_policy(&injector);

  int delivered = 0;
  auto sub = bus.subscribe<int>(
      "t", [&](const mw::MessageHeader&, const int&) { ++delivered; });
  bus.publish("t", 1, "n", 0.0);
  EXPECT_EQ(delivered, 0);
  policy.reset();
  bus.publish("t", 2, "n", 1.0);
  EXPECT_EQ(delivered, 1);
  EXPECT_THROW(bus.add_delivery_policy(nullptr), std::invalid_argument);
}

TEST(FaultInjection, FaultCountersExportedPerTopic) {
  mw::Bus bus;
  sesame::obs::MetricsRegistry reg;
  bus.set_metrics(&reg);
  mw::FaultPlan plan;
  mw::FaultRule drop_rule;
  drop_rule.topic_prefix = "a";
  drop_rule.drop_probability = 1.0;
  mw::FaultRule dup_rule;
  dup_rule.topic_prefix = "b";
  dup_rule.duplicate_probability = 1.0;
  plan.rules = {drop_rule, dup_rule};
  mw::FaultInjector injector(plan);
  auto policy = bus.add_delivery_policy(&injector);

  auto sub = bus.subscribe<int>("b", [](const mw::MessageHeader&, const int&) {});
  bus.publish("a", 1, "n", 0.0);
  bus.publish("b", 2, "n", 0.0);
  EXPECT_DOUBLE_EQ(
      reg.counter("sesame.mw.fault_dropped_total", {{"topic", "a"}}).value(),
      1.0);
  EXPECT_DOUBLE_EQ(
      reg.counter("sesame.mw.fault_duplicated_total", {{"topic", "b"}}).value(),
      1.0);
  EXPECT_DOUBLE_EQ(
      reg.counter("sesame.mw.fault_delayed_total", {{"topic", "a"}}).value(),
      0.0);
}

TEST(FaultInjection, TelemetryStressPlanIsValid) {
  const auto plan = mw::FaultPlan::telemetry_stress();
  ASSERT_FALSE(plan.rules.empty());
  for (const auto& rule : plan.rules) EXPECT_NO_THROW(rule.validate());
  mw::MessageHeader h;
  h.topic = "uav/uav1/telemetry";
  EXPECT_TRUE(plan.rules[0].matches(h));
}

TEST(Bus, ClearDelayedDiscardsPendingDeliveries) {
  mw::Bus bus;
  mw::FaultPlan plan;
  mw::FaultRule rule;
  rule.delay_probability = 1.0;
  rule.delay_steps = 3;
  plan.rules.push_back(rule);
  mw::FaultInjector injector(plan);
  auto policy = bus.add_delivery_policy(&injector);

  int delivered = 0;
  auto sub = bus.subscribe<int>(
      "t", [&](const mw::MessageHeader&, const int&) { ++delivered; });
  bus.publish("t", 1, "n", 0.0);
  bus.publish("t", 2, "n", 0.0);
  EXPECT_EQ(bus.delayed_pending(), 2u);
  EXPECT_EQ(bus.clear_delayed(), 2u);
  EXPECT_EQ(bus.delayed_pending(), 0u);
  for (int i = 0; i < 5; ++i) bus.drain_delayed();
  EXPECT_EQ(delivered, 0);  // discarded, not delivered late
  // Discards are not fault drops: the counter reflects link faults only.
  EXPECT_EQ(bus.faults_dropped(), 0u);
}

TEST(Bus, ClearDelayedBySourceDropsOnlyThatSender) {
  // Mid-run vehicle removal: the removed vehicle's in-flight (delayed)
  // messages must be drained without touching other senders' deliveries.
  mw::Bus bus;
  mw::FaultPlan plan;
  mw::FaultRule rule;
  rule.delay_probability = 1.0;
  rule.delay_steps = 1;
  plan.rules.push_back(rule);
  mw::FaultInjector injector(plan);
  auto policy = bus.add_delivery_policy(&injector);

  std::vector<std::string> delivered;
  auto sub = bus.subscribe<int>(
      "t", [&](const mw::MessageHeader& h, const int&) {
        delivered.emplace_back(h.source);
      });
  bus.publish("t", 1, "uav1", 0.0);
  bus.publish("t", 2, "uav2", 0.0);
  bus.publish("t", 3, "uav1", 0.0);
  EXPECT_EQ(bus.delayed_pending(), 3u);

  EXPECT_EQ(bus.clear_delayed(bus.intern_source("uav1")), 2u);
  EXPECT_EQ(bus.delayed_pending(), 1u);
  // A source with nothing pending clears nothing.
  EXPECT_EQ(bus.clear_delayed(bus.intern_source("uav3")), 0u);

  bus.drain_delayed();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], "uav2");
}

// Regression for the cross-run replay bug: without clear_delayed() between
// runs, a reused bus delivered run 1's delayed messages into run 2's
// freshly subscribed handlers.
TEST(Bus, ReusedBusStartsSecondRunClean) {
  mw::Bus bus;
  mw::FaultPlan plan;
  mw::FaultRule rule;
  rule.delay_probability = 1.0;
  rule.delay_steps = 2;
  plan.rules.push_back(rule);
  mw::FaultInjector injector(plan);
  auto policy = bus.add_delivery_policy(&injector);

  // Run 1: publishes traffic that is still in flight when the run ends.
  std::vector<int> run1_received;
  {
    auto sub = bus.subscribe<int>("uav/uav1/telemetry",
                                  [&](const mw::MessageHeader&, const int& v) {
                                    run1_received.push_back(v);
                                  });
    bus.publish("uav/uav1/telemetry", 11, "uav1", 0.0);
    bus.drain_delayed();  // one step: message still one drain away
  }
  EXPECT_TRUE(run1_received.empty());
  EXPECT_EQ(bus.delayed_pending(), 1u);

  // Between runs: the reset the World performs on reuse/teardown.
  bus.clear_delayed();

  // Run 2: a fresh subscriber must never see run 1's in-flight message.
  std::vector<int> run2_received;
  auto sub = bus.subscribe<int>("uav/uav1/telemetry",
                                [&](const mw::MessageHeader&, const int& v) {
                                  run2_received.push_back(v);
                                });
  for (int i = 0; i < 5; ++i) bus.drain_delayed();
  EXPECT_TRUE(run2_received.empty());
  bus.publish("uav/uav1/telemetry", 22, "uav1", 10.0);
  bus.drain_delayed();
  bus.drain_delayed();
  ASSERT_EQ(run2_received.size(), 1u);
  EXPECT_EQ(run2_received[0], 22);  // run 2 traffic only
}

TEST(Bus, DeliveryOrderSurvivesUnsubscribe) {
  // The documented guarantee: subscribers receive messages in subscription
  // order, and unsubscribing one must not reorder the survivors (ordered
  // compaction, not swap-and-pop).
  mw::Bus bus;
  std::vector<std::string> order;
  auto s1 = bus.subscribe<int>(
      "t", [&](const mw::MessageHeader&, const int&) { order.push_back("s1"); });
  auto s2 = bus.subscribe<int>(
      "t", [&](const mw::MessageHeader&, const int&) { order.push_back("s2"); });
  auto s3 = bus.subscribe<int>(
      "t", [&](const mw::MessageHeader&, const int&) { order.push_back("s3"); });
  auto s4 = bus.subscribe<int>(
      "t", [&](const mw::MessageHeader&, const int&) { order.push_back("s4"); });
  bus.publish("t", 0, "n", 0.0);
  ASSERT_EQ(order, (std::vector<std::string>{"s1", "s2", "s3", "s4"}));

  order.clear();
  s2.reset();  // drop a middle subscriber
  bus.publish("t", 1, "n", 1.0);
  EXPECT_EQ(order, (std::vector<std::string>{"s1", "s3", "s4"}));

  order.clear();
  auto s5 = bus.subscribe<int>(
      "t", [&](const mw::MessageHeader&, const int&) { order.push_back("s5"); });
  bus.publish("t", 2, "n", 2.0);
  // New subscriptions append after the survivors, in their original order.
  EXPECT_EQ(order, (std::vector<std::string>{"s1", "s3", "s4", "s5"}));
}

// The publish path answers the type check from the type recorded when a
// topic's subscribers registered. Whatever order subscribers of another
// type arrive and leave in, a mismatch must still throw before any
// handler runs.
TEST(Bus, TypeMismatchAfterEarlierSubscribersLeftThrowsBeforeDelivery) {
  mw::Bus bus;
  int ints = 0;
  int doubles = 0;
  auto first = bus.subscribe<int>(
      "t", [&](const mw::MessageHeader&, const int&) { ++ints; });
  bus.publish("t", 1, "n", 0.0);
  first.reset();  // outside a fan-out: erased at once, topic now empty
  auto bad = bus.subscribe<double>(
      "t", [&](const mw::MessageHeader&, const double&) { ++doubles; });
  auto late = bus.subscribe<int>(
      "t", [&](const mw::MessageHeader&, const int&) { ++ints; });
  EXPECT_THROW(bus.publish("t", 2, "n", 1.0), std::runtime_error);
  EXPECT_THROW(bus.publish("t", 2.5, "n", 1.0), std::runtime_error);
  EXPECT_EQ(ints, 1);
  EXPECT_EQ(doubles, 0);

  late.reset();  // only the double subscriber is left
  bus.publish("t", 3.5, "n", 2.0);
  EXPECT_EQ(doubles, 1);
  EXPECT_THROW(bus.publish("t", 4, "n", 3.0), std::runtime_error);
  EXPECT_EQ(doubles, 1);
}

TEST(Bus, TypeMismatchBesideTombstonedSubscriberThrowsBeforeDelivery) {
  // A handler releases itself (tombstoned: the fan-out is still on the
  // stack), subscribes a different payload type and publishes
  // re-entrantly. A live subscriber of the original type stays behind it.
  const auto throws = [](const auto& publish) {
    try {
      publish();
    } catch (const std::runtime_error&) {
      return true;
    }
    return false;
  };
  mw::Bus bus;
  mw::Subscription self;
  mw::Subscription intruder;
  int intruder_calls = 0;
  std::vector<int> survivor_seen;
  bool nested_int_threw = false;
  bool nested_double_threw = false;
  self = bus.subscribe<int>("t", [&](const mw::MessageHeader&, const int&) {
    self.reset();
    intruder = bus.subscribe<double>(
        "t", [&](const mw::MessageHeader&, const double&) { ++intruder_calls; });
    nested_int_threw = throws([&] { bus.publish("t", 2, "n", 0.0); });
    nested_double_threw = throws([&] { bus.publish("t", 2.5, "n", 0.0); });
  });
  auto survivor = bus.subscribe<int>(
      "t", [&](const mw::MessageHeader&, const int& v) {
        survivor_seen.push_back(v);
      });
  bus.publish("t", 1, "n", 0.0);
  EXPECT_TRUE(nested_int_threw);
  EXPECT_TRUE(nested_double_threw);
  EXPECT_EQ(intruder_calls, 0);
  EXPECT_EQ(survivor_seen, (std::vector<int>{1}));  // only the outer message

  // With only the double subscriber left, its own type is delivered and
  // the topic's first type (int) is still rejected.
  survivor.reset();
  bus.publish("t", 3.5, "n", 1.0);
  EXPECT_EQ(intruder_calls, 1);
  EXPECT_TRUE(throws([&] { bus.publish("t", 4, "n", 2.0); }));
  EXPECT_EQ(intruder_calls, 1);
}

TEST(Bus, DelayedMessageIsTypeCheckedAgainstDrainTimeSubscribers) {
  mw::Bus bus;
  mw::FaultPlan plan;
  mw::FaultRule rule;
  rule.delay_probability = 1.0;
  rule.delay_steps = 1;
  plan.rules.push_back(rule);
  mw::FaultInjector injector(plan);
  auto policy = bus.add_delivery_policy(&injector);

  int ints = 0;
  int doubles = 0;
  auto original = bus.subscribe<int>(
      "t", [&](const mw::MessageHeader&, const int&) { ++ints; });
  bus.publish("t", 7, "n", 0.0);  // accepted and held for one drain
  original.reset();
  auto bad = bus.subscribe<double>(
      "t", [&](const mw::MessageHeader&, const double&) { ++doubles; });
  auto good = bus.subscribe<int>(
      "t", [&](const mw::MessageHeader&, const int&) { ++ints; });
  EXPECT_THROW(bus.drain_delayed(), std::runtime_error);
  EXPECT_EQ(ints, 0);
  EXPECT_EQ(doubles, 0);
}
