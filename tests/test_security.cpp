// Tests for the security stack: attack-tree algebra and metadata, IDS
// rules over bus traffic, and the Security EDDI's leaf-to-root tracing.
#include <gtest/gtest.h>

#include "sesame/security/attack_tree.hpp"
#include "sesame/security/ids.hpp"
#include "sesame/security/security_eddi.hpp"

namespace sec = sesame::security;
namespace mw = sesame::mw;
namespace geo = sesame::geo;

namespace {

const geo::GeoPoint kBase{35.1856, 33.3823, 0.0};

sec::AttackStepInfo step(const std::string& capec, const std::string& title,
                         sec::Severity sev = sec::Severity::kMedium) {
  sec::AttackStepInfo s;
  s.capec_id = capec;
  s.title = title;
  s.severity = sev;
  return s;
}

}  // namespace

TEST(AttackTree, LeafTriggering) {
  auto tree = sec::AttackTree(
      "t", sec::AttackNode::leaf(step("CAPEC-1", "single step")));
  EXPECT_FALSE(tree.goal_achieved());
  EXPECT_TRUE(tree.trigger("CAPEC-1"));
  EXPECT_TRUE(tree.goal_achieved());
  EXPECT_FALSE(tree.trigger("CAPEC-99"));
}

TEST(AttackTree, AndRequiresAllChildren) {
  auto tree = sec::AttackTree(
      "t", sec::AttackNode::and_node(
               "goal", {sec::AttackNode::leaf(step("CAPEC-1", "a")),
                        sec::AttackNode::leaf(step("CAPEC-2", "b"))}));
  tree.trigger("CAPEC-1");
  EXPECT_FALSE(tree.goal_achieved());
  tree.trigger("CAPEC-2");
  EXPECT_TRUE(tree.goal_achieved());
}

TEST(AttackTree, OrRequiresAnyChild) {
  auto tree = sec::AttackTree(
      "t", sec::AttackNode::or_node(
               "goal", {sec::AttackNode::leaf(step("CAPEC-1", "a")),
                        sec::AttackNode::leaf(step("CAPEC-2", "b"))}));
  tree.trigger("CAPEC-2");
  EXPECT_TRUE(tree.goal_achieved());
}

TEST(AttackTree, ActivePathListsAchievedNodes) {
  auto tree = sec::AttackTree(
      "t", sec::AttackNode::or_node(
               "goal", {sec::AttackNode::leaf(step("CAPEC-1", "left")),
                        sec::AttackNode::leaf(step("CAPEC-2", "right"))}));
  tree.trigger("CAPEC-1");
  const auto path = tree.active_path();
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], "goal");
  EXPECT_EQ(path[1], "left");
}

TEST(AttackTree, SeverityAndMitigations) {
  auto low = step("CAPEC-1", "a", sec::Severity::kLow);
  low.mitigation = "patch a";
  auto crit = step("CAPEC-2", "b", sec::Severity::kCritical);
  crit.mitigation = "patch b";
  auto tree = sec::AttackTree(
      "t", sec::AttackNode::or_node("goal", {sec::AttackNode::leaf(low),
                                             sec::AttackNode::leaf(crit)}));
  EXPECT_FALSE(tree.max_triggered_severity().has_value());
  tree.trigger("CAPEC-1");
  EXPECT_EQ(tree.max_triggered_severity(), sec::Severity::kLow);
  tree.trigger("CAPEC-2");
  EXPECT_EQ(tree.max_triggered_severity(), sec::Severity::kCritical);
  const auto mits = tree.mitigations();
  ASSERT_EQ(mits.size(), 2u);
}

TEST(AttackTree, ConstructionValidation) {
  EXPECT_THROW(sec::AttackNode::and_node("g", {}), std::invalid_argument);
  EXPECT_THROW(sec::AttackNode::leaf(sec::AttackStepInfo{}), std::invalid_argument);
  EXPECT_THROW(sec::AttackTree("t", nullptr), std::invalid_argument);
  auto gate = sec::AttackNode::or_node(
      "g", {sec::AttackNode::leaf(step("CAPEC-1", "a"))});
  EXPECT_THROW(gate->set_triggered(true), std::logic_error);
}

TEST(SpoofingTree, StructureAndLeaves) {
  auto tree = sec::make_spoofing_attack_tree();
  EXPECT_EQ(tree.name(), "ros_message_spoofing");
  EXPECT_NE(tree.find_leaf("CAPEC-151"), nullptr);
  EXPECT_NE(tree.find_leaf("CAPEC-594"), nullptr);
  EXPECT_NE(tree.find_leaf("CAPEC-627"), nullptr);
  EXPECT_NE(tree.find_leaf("CAPEC-125"), nullptr);
  EXPECT_EQ(tree.find_leaf("CAPEC-999"), nullptr);
  // Injection alone is not enough for the AND branch.
  tree.trigger("CAPEC-594");
  EXPECT_FALSE(tree.goal_achieved());
  tree.trigger("CAPEC-151");
  EXPECT_TRUE(tree.goal_achieved());
}

TEST(Ids, ValidatesConfig) {
  mw::Bus bus;
  sec::IdsConfig cfg;
  cfg.max_speed_mps = 0.0;
  EXPECT_THROW(sec::IntrusionDetectionSystem(bus, cfg), std::invalid_argument);
}

TEST(Ids, UnauthorizedSourceAlert) {
  mw::Bus bus;
  sec::IntrusionDetectionSystem ids(bus);
  ids.authorize("uav/u1/position_fix", "u1");
  std::vector<sec::IdsAlert> alerts;
  auto sub = bus.subscribe<sec::IdsAlert>(
      sec::ids_alert_topic(),
      [&](const mw::MessageHeader&, const sec::IdsAlert& a) {
        alerts.push_back(a);
      });
  bus.publish("uav/u1/position_fix", kBase, "u1", 0.0);  // legit
  EXPECT_TRUE(alerts.empty());
  bus.publish("uav/u1/position_fix", kBase, "attacker", 1.0);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "unauthorized_source");
  EXPECT_EQ(alerts[0].capec_id, "CAPEC-594");
  EXPECT_EQ(alerts[0].source, "attacker");
}

TEST(Ids, PositionJumpAlert) {
  mw::Bus bus;
  sec::IdsConfig cfg;
  cfg.max_speed_mps = 25.0;
  sec::IntrusionDetectionSystem ids(bus, cfg);
  ids.track_position_topic("uav/u1/position_fix");
  std::vector<sec::IdsAlert> alerts;
  auto sub = bus.subscribe<sec::IdsAlert>(
      sec::ids_alert_topic(),
      [&](const mw::MessageHeader&, const sec::IdsAlert& a) {
        alerts.push_back(a);
      });
  bus.publish("uav/u1/position_fix", kBase, "u1", 0.0);
  // 10 m in 1 s: plausible.
  bus.publish("uav/u1/position_fix", geo::destination(kBase, 90.0, 10.0), "u1",
              1.0);
  EXPECT_TRUE(alerts.empty());
  // 500 m in 1 s: impossible -> CAPEC-627.
  bus.publish("uav/u1/position_fix", geo::destination(kBase, 90.0, 510.0), "u1",
              2.0);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "position_jump");
  EXPECT_EQ(alerts[0].capec_id, "CAPEC-627");
}

TEST(Ids, FloodingAlert) {
  mw::Bus bus;
  sec::IdsConfig cfg;
  cfg.flood_threshold = 10;
  cfg.flood_window_s = 1.0;
  sec::IntrusionDetectionSystem ids(bus, cfg);
  std::vector<sec::IdsAlert> alerts;
  auto sub = bus.subscribe<sec::IdsAlert>(
      sec::ids_alert_topic(),
      [&](const mw::MessageHeader&, const sec::IdsAlert& a) {
        alerts.push_back(a);
      });
  for (int i = 0; i < 15; ++i) {
    bus.publish("cmd", i, "attacker", 0.01 * i);
  }
  ASSERT_GE(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "flooding");
  // Slow traffic never alerts.
  alerts.clear();
  for (int i = 0; i < 15; ++i) {
    bus.publish("cmd", i, "operator", 10.0 + i);
  }
  EXPECT_TRUE(alerts.empty());
}

TEST(Ids, DoesNotInspectOwnAlerts) {
  mw::Bus bus;
  sec::IdsConfig cfg;
  cfg.flood_threshold = 2;
  sec::IntrusionDetectionSystem ids(bus, cfg);
  // Flood from one source; the alerts themselves come from source "ids"
  // and must not recursively alert.
  for (int i = 0; i < 10; ++i) bus.publish("cmd", i, "attacker", 0.0);
  EXPECT_GT(ids.alerts_raised(), 0u);
  EXPECT_LT(ids.alerts_raised(), 6u);  // no alert storm
}

TEST(SecurityEddi, DetectsInjectionPath) {
  mw::Bus bus;
  sec::IntrusionDetectionSystem ids(bus);
  ids.authorize("uav/u1/position_fix", "u1");
  sec::SecurityEddi eddi(bus, sec::make_spoofing_attack_tree());

  std::vector<sec::SecurityEvent> events;
  auto sub = bus.subscribe<sec::SecurityEvent>(
      sec::security_event_topic(),
      [&](const mw::MessageHeader&, const sec::SecurityEvent& e) {
        events.push_back(e);
      });

  EXPECT_FALSE(eddi.attack_detected());
  bus.publish("uav/u1/position_fix", kBase, "attacker", 5.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(eddi.attack_detected());
  EXPECT_EQ(events[0].tree, "ros_message_spoofing");
  EXPECT_DOUBLE_EQ(events[0].time_s, 5.0);
  ASSERT_FALSE(events[0].suspicious_sources.empty());
  EXPECT_EQ(events[0].suspicious_sources[0], "attacker");
  EXPECT_FALSE(events[0].attack_path.empty());
  EXPECT_FALSE(events[0].mitigations.empty());
}

TEST(SecurityEddi, ReportsGoalOnlyOnce) {
  mw::Bus bus;
  sec::IntrusionDetectionSystem ids(bus);
  ids.authorize("t", "legit");
  sec::SecurityEddi eddi(bus, sec::make_spoofing_attack_tree());
  bus.publish("t", 1, "attacker", 0.0);
  bus.publish("t", 2, "attacker", 1.0);
  EXPECT_EQ(eddi.events_raised(), 1u);
  EXPECT_GE(eddi.alerts_consumed(), 2u);
}

TEST(SecurityEddi, CallbackInvoked) {
  mw::Bus bus;
  sec::IntrusionDetectionSystem ids(bus);
  ids.track_position_topic("uav/u1/position_fix");
  sec::SecurityEddi eddi(bus, sec::make_spoofing_attack_tree());
  int called = 0;
  eddi.on_event([&](const sec::SecurityEvent&) { ++called; });
  bus.publish("uav/u1/position_fix", kBase, "u1", 0.0);
  bus.publish("uav/u1/position_fix", geo::destination(kBase, 0.0, 900.0), "u1",
              1.0);
  EXPECT_EQ(called, 1);
}

TEST(SecurityEddi, IgnoresAlertsOutsideItsTree) {
  mw::Bus bus;
  sec::SecurityEddi eddi(
      bus, sec::AttackTree("other",
                           sec::AttackNode::leaf(step("CAPEC-777", "x"))));
  sec::IdsAlert alert;
  alert.capec_id = "CAPEC-594";  // not in this tree
  bus.publish(sec::ids_alert_topic(), alert, "ids", 0.0);
  EXPECT_FALSE(eddi.attack_detected());
  EXPECT_EQ(eddi.alerts_consumed(), 1u);
}

TEST(SeverityNames, Distinct) {
  EXPECT_EQ(sec::severity_name(sec::Severity::kLow), "Low");
  EXPECT_EQ(sec::severity_name(sec::Severity::kCritical), "Critical");
}

namespace {

/// A second tree beside the spoofing one: GNSS jamming (CAPEC-601) or
/// command-link flooding (CAPEC-125, shared with the spoofing tree).
sec::AttackTree jamming_tree() {
  sec::AttackStepInfo jam;
  jam.capec_id = "CAPEC-601";
  jam.title = "Jam GNSS reception";
  sec::AttackStepInfo flood;
  flood.capec_id = "CAPEC-125";
  flood.title = "Flood the command-and-control channel";
  return sec::AttackTree(
      "denial_of_navigation",
      sec::AttackNode::or_node("Deny navigation or command",
                               {sec::AttackNode::leaf(jam),
                                sec::AttackNode::leaf(flood)}));
}

}  // namespace

TEST(SecondTree, StructureAndIndependentEddis) {
  // One Security EDDI per attack tree, running side by side on one bus.
  mw::Bus bus;
  sec::SecurityEddi spoof_eddi(bus, sec::make_spoofing_attack_tree());
  sec::SecurityEddi jam_eddi(bus, jamming_tree());

  // A jamming alert (physical-layer sensor) reaches only the jamming tree.
  sec::IdsAlert jam;
  jam.rule = "gps_fix_lost";
  jam.capec_id = "CAPEC-601";
  jam.source = "gnss_sensor";
  jam.time_s = 12.0;
  bus.publish(sec::ids_alert_topic(), jam, "gnss_sensor", 12.0);
  EXPECT_TRUE(jam_eddi.attack_detected());
  EXPECT_FALSE(spoof_eddi.attack_detected());
}

TEST(SecondTree, FloodingReachesBothTrees) {
  // CAPEC-125 appears in both trees: one alert fires both EDDIs.
  mw::Bus bus;
  sec::SecurityEddi spoof_eddi(bus, sec::make_spoofing_attack_tree());
  sec::SecurityEddi jam_eddi(bus, jamming_tree());
  sec::IdsAlert flood;
  flood.rule = "flooding";
  flood.capec_id = "CAPEC-125";
  flood.source = "attacker";
  bus.publish(sec::ids_alert_topic(), flood, "ids", 1.0);
  EXPECT_TRUE(spoof_eddi.attack_detected());
  EXPECT_TRUE(jam_eddi.attack_detected());
}

// --- WireMonitor (sesame.wire.* counters as IDS evidence) ------------------

#include "sesame/mw/framing.hpp"
#include "sesame/obs/observability.hpp"
#include "sesame/security/wire_monitor.hpp"

namespace {

/// Framing handshake pump for the wire-evidence tests.
void pump_framing(mw::Framing& a, mw::Framing& b) {
  const mw::Framing::MessageSink drop = [](std::span<const std::uint8_t>,
                                           std::uint64_t) {};
  for (int i = 0; i < 64; ++i) {
    const auto fa = a.take_outbound();
    const auto fb = b.take_outbound();
    if (fa.empty() && fb.empty()) return;
    if (!fa.empty()) b.feed(fa, drop);
    if (!fb.empty()) a.feed(fb, drop);
  }
  FAIL() << "link did not quiesce";
}

}  // namespace

TEST(WireMonitor, RejectsZeroThresholds) {
  mw::Bus bus;
  sec::WireMonitorConfig cfg;
  cfg.tamper_threshold = 0;
  EXPECT_THROW(sec::WireMonitor(bus, "c2", cfg), std::invalid_argument);
}

// The ROADMAP item 1 gap, end to end: a frame replayed at the framing
// layer must reach the Security EDDI as CAPEC-594 evidence and achieve the
// spoofing tree's root (594 implies the 151 access leaf — the injection
// AND-branch completes from wire evidence alone).
TEST(WireMonitor, ReplayedFrameAchievesSpoofingTreeRoot) {
  mw::Framing a, b;
  a.start();
  b.start();
  pump_framing(a, b);

  a.send_message(std::vector<std::uint8_t>{1, 2, 3});
  const auto wire = a.take_outbound();
  const mw::Framing::MessageSink drop = [](std::span<const std::uint8_t>,
                                           std::uint64_t) {};
  b.feed(wire, drop);
  b.feed(wire, drop);  // verbatim replay: rejected + counted by Framing
  ASSERT_GE(b.counters().replays_rejected, 1u);

  mw::Bus bus;
  sec::SecurityEddi eddi(bus, sec::make_spoofing_attack_tree());
  std::vector<sec::IdsAlert> alerts;
  auto sub = bus.subscribe<sec::IdsAlert>(
      sec::ids_alert_topic(),
      [&](const mw::MessageHeader&, const sec::IdsAlert& al) {
        alerts.push_back(al);
      });

  sec::WireMonitor monitor(bus, "c2");
  monitor.observe(b.counters(), 7.5);

  ASSERT_EQ(monitor.alerts_raised(), 1u);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "wire_replay");
  EXPECT_EQ(alerts[0].capec_id, "CAPEC-594");
  EXPECT_EQ(alerts[0].source, "wire/c2");
  EXPECT_DOUBLE_EQ(alerts[0].time_s, 7.5);
  EXPECT_TRUE(eddi.attack_detected());

  // Quiet polls afterwards stay silent (evidence was consumed).
  monitor.observe(b.counters(), 8.5);
  EXPECT_EQ(monitor.alerts_raised(), 1u);
}

TEST(WireMonitor, TamperEvidenceAccumulatesToThresholdWithLatency) {
  mw::Bus bus;
  sec::WireMonitor monitor(bus, "serial0");  // tamper_threshold = 3
  sesame::obs::Observability o;
  monitor.set_observability(&o);

  std::vector<sec::IdsAlert> alerts;
  auto sub = bus.subscribe<sec::IdsAlert>(
      sec::ids_alert_topic(),
      [&](const mw::MessageHeader&, const sec::IdsAlert& al) {
        alerts.push_back(al);
      });

  mw::LinkCounters c;
  c.crc_errors = 1;
  monitor.observe(c, 10.0);  // first evidence: below threshold, no alert
  EXPECT_TRUE(alerts.empty());
  c.crc_errors = 2;
  c.malformed_frames = 1;  // cumulative tampering = 3: threshold reached
  monitor.observe(c, 14.0);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "wire_tampering");
  EXPECT_EQ(alerts[0].capec_id, "CAPEC-94");

  // Detection latency = first evidence (10 s) -> alerting poll (14 s).
  const auto snap = o.metrics.snapshot();
  const auto* lat = snap.find("sesame.security.wire_detection_latency_s",
                              {{"link", "serial0"}});
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->observations, 1u);
  EXPECT_DOUBLE_EQ(lat->value, 4.0);  // histogram sum
  const auto* total = snap.find("sesame.security.wire_alerts_total",
                                {{"rule", "wire_tampering"}});
  ASSERT_NE(total, nullptr);
  EXPECT_DOUBLE_EQ(total->value, 1.0);

  // CAPEC-94 is a leaf of the spoofing tree in its own right.
  auto tree = sec::make_spoofing_attack_tree();
  EXPECT_NE(tree.find_leaf("CAPEC-94"), nullptr);
  EXPECT_TRUE(tree.trigger("CAPEC-94"));
  EXPECT_TRUE(tree.goal_achieved());
}
