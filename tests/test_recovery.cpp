// Unit tests for the fleet recovery state machine and the safety-invariant
// checker (docs/ROBUSTNESS.md). Both are pure components — no world, no
// bus — so the tests drive them with hand-rolled staleness signals.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "sesame/platform/invariants.hpp"
#include "sesame/platform/recovery.hpp"

namespace pf = sesame::platform;
namespace sim = sesame::sim;

namespace {

/// Records every hook invocation as "event:uav<index>" in call order.
struct HookLog {
  std::vector<std::string> calls;
  pf::RecoveryHooks hooks() {
    pf::RecoveryHooks h;
    h.ping = [this](std::size_t i) { log("ping", i); };
    h.demote = [this](std::size_t i) { log("demote", i); };
    h.command_rth = [this](std::size_t i) { log("rth", i); };
    h.declare_lost = [this](std::size_t i) { log("lost", i); };
    h.recovered = [this](std::size_t i) { log("recovered", i); };
    return h;
  }
  void log(const char* event, std::size_t i) {
    calls.push_back(std::string(event) + ":uav" + std::to_string(i));
  }
};

pf::RecoveryConfig default_config() { return pf::RecoveryConfig{}; }

/// Staleness that grows linearly from a silence-onset time (contact is
/// fresh before onset, then nothing ever arrives again).
pf::RecoveryManager::StalenessFn silent_since(double onset_s, double* now_s) {
  return [onset_s, now_s](std::size_t) {
    return *now_s < onset_s ? 0.0 : *now_s - onset_s;
  };
}

}  // namespace

TEST(RecoveryManager, EscalatesThroughAllStatesWhenSilent) {
  HookLog log;
  double now = 0.0;
  pf::RecoveryManager mgr({"u1"}, default_config(), log.hooks());
  const auto staleness = silent_since(0.0, &now);

  // Defaults: window 5, ping 2 s backed off x2 (2 pings), grace 5, RTH 20.
  // Escalation timeline for silence from t=0, stepping at 1 Hz:
  //   t=6  staleness 6 > 5   -> ping #1 (deadline t=8)
  //   t=8  unanswered        -> ping #2 (deadline t=8+2*2=12)
  //   t=12 unanswered        -> demoted (grace until 17)
  //   t=17 grace over        -> RTH commanded (timeout 37)
  //   t=37 never came home   -> lost
  const std::map<double, pf::RecoveryState> expect = {
      {5.0, pf::RecoveryState::kHealthy},
      {6.0, pf::RecoveryState::kPinging},
      {11.0, pf::RecoveryState::kPinging},
      {12.0, pf::RecoveryState::kDemoted},
      {16.0, pf::RecoveryState::kDemoted},
      {17.0, pf::RecoveryState::kRthCommanded},
      {36.0, pf::RecoveryState::kRthCommanded},
      {37.0, pf::RecoveryState::kLost},
  };
  for (now = 1.0; now <= 40.0; now += 1.0) {
    mgr.step(now, staleness);
    if (const auto it = expect.find(now); it != expect.end()) {
      EXPECT_EQ(mgr.state(0), it->second) << "at t=" << now;
    }
  }

  EXPECT_EQ(log.calls, (std::vector<std::string>{
                           "ping:uav0", "ping:uav0", "demote:uav0", "rth:uav0",
                           "lost:uav0"}));
  EXPECT_EQ(mgr.pings_sent(), 2u);
  EXPECT_EQ(mgr.demotions(), 1u);
  EXPECT_EQ(mgr.rth_commands(), 1u);
  EXPECT_EQ(mgr.lost_uavs(), std::vector<std::string>{"u1"});
  EXPECT_DOUBLE_EQ(mgr.times(0).detect_s, 6.0);
  EXPECT_DOUBLE_EQ(mgr.times(0).lost_s, 37.0);
}

TEST(RecoveryManager, RecoversWithSingleReArmMidEscalation) {
  HookLog log;
  double now = 0.0;
  pf::RecoveryManager mgr({"u1"}, default_config(), log.hooks());

  // Silent from t=0 until contact resumes at t=13 (vehicle was demoted at
  // t=12); staleness then drops back to zero.
  const auto staleness = [&now](std::size_t) {
    return now < 13.0 ? now : 0.0;
  };
  for (now = 1.0; now <= 20.0; now += 1.0) mgr.step(now, staleness);

  EXPECT_EQ(mgr.state(0), pf::RecoveryState::kHealthy);
  EXPECT_EQ(mgr.recoveries(), 1u);
  // Exactly one recovered event: the re-arm must not repeat every tick.
  int recovered = 0;
  for (const auto& c : log.calls) recovered += (c == "recovered:uav0");
  EXPECT_EQ(recovered, 1);
  EXPECT_TRUE(mgr.lost_uavs().empty());
}

TEST(RecoveryManager, LostIsTerminalEvenIfContactResumes) {
  HookLog log;
  double now = 0.0;
  pf::RecoveryManager mgr({"u1"}, default_config(), log.hooks());
  // Silent long enough to be written off, then the radio comes back.
  const auto staleness = [&now](std::size_t) {
    return now < 50.0 ? now : 0.0;
  };
  for (now = 1.0; now <= 80.0; now += 1.0) mgr.step(now, staleness);
  EXPECT_EQ(mgr.state(0), pf::RecoveryState::kLost);
  EXPECT_EQ(mgr.recoveries(), 0u);
}

TEST(RecoveryManager, EscalationIsPerVehicle) {
  HookLog log;
  double now = 0.0;
  pf::RecoveryManager mgr({"u1", "u2"}, default_config(), log.hooks());
  // Only u2 (index 1) goes silent.
  const auto staleness = [&now](std::size_t i) { return i == 1 ? now : 0.0; };
  for (now = 1.0; now <= 40.0; now += 1.0) mgr.step(now, staleness);
  EXPECT_EQ(mgr.state(0), pf::RecoveryState::kHealthy);
  EXPECT_EQ(mgr.state(1), pf::RecoveryState::kLost);
  EXPECT_EQ(mgr.lost_uavs(), std::vector<std::string>{"u2"});
  EXPECT_EQ(log.calls.back(), "lost:uav1");
}

TEST(RecoveryManager, PingBackoffIsBounded) {
  HookLog log;
  double now = 0.0;
  pf::RecoveryConfig cfg;
  cfg.max_pings = 4;
  cfg.ping_backoff = 2.0;
  pf::RecoveryManager mgr({"u1"}, cfg, log.hooks());
  const auto staleness = silent_since(0.0, &now);
  for (now = 0.5; now <= 120.0; now += 0.5) mgr.step(now, staleness);
  // Never more pings than the budget, no matter how long the silence.
  EXPECT_EQ(mgr.pings_sent(), 4u);
  EXPECT_EQ(mgr.state(0), pf::RecoveryState::kLost);
}

TEST(RecoveryManager, RejectsBadConfig) {
  pf::RecoveryHooks hooks;
  pf::RecoveryConfig bad = default_config();
  bad.ping_backoff = 0.5;  // backoff < 1 would shrink the retry window
  EXPECT_THROW(pf::RecoveryManager({"u1"}, bad, hooks), std::invalid_argument);
  bad = default_config();
  bad.staleness_window_s = 0.0;
  EXPECT_THROW(pf::RecoveryManager({"u1"}, bad, hooks), std::invalid_argument);
  EXPECT_THROW(pf::RecoveryManager({}, default_config(), hooks),
               std::invalid_argument);
  pf::RecoveryManager mgr({"u1"}, default_config(), hooks);
  EXPECT_THROW(mgr.state(1), std::out_of_range);
  EXPECT_THROW(mgr.times(1), std::out_of_range);
}

TEST(InvariantChecker, MinSocFloorFiresOnlyWhileServing) {
  pf::InvariantChecker checker{pf::InvariantConfig{}};
  checker.check_min_soc(10.0, "u1", 0.5, sim::FlightMode::kMission);
  EXPECT_EQ(checker.total(), 0u);
  checker.check_min_soc(11.0, "u1", 0.01, sim::FlightMode::kMission);
  EXPECT_EQ(checker.total(), 1u);
  // A landed or returning vehicle may legitimately be nearly empty.
  checker.check_min_soc(12.0, "u1", 0.01, sim::FlightMode::kLanded);
  checker.check_min_soc(13.0, "u1", 0.01, sim::FlightMode::kReturnToBase);
  EXPECT_EQ(checker.total(), 1u);
  EXPECT_EQ(checker.violations()[0].invariant, "min_soc_floor");
}

TEST(InvariantChecker, LostUavMustNotServe) {
  pf::InvariantChecker checker{pf::InvariantConfig{}};
  checker.check_lost_uav_inactive(5.0, "u1", /*declared_lost=*/false,
                                  sim::FlightMode::kMission,
                                  /*mission_active=*/true);
  EXPECT_EQ(checker.total(), 0u);
  checker.check_lost_uav_inactive(6.0, "u1", /*declared_lost=*/true,
                                  sim::FlightMode::kCrashed,
                                  /*mission_active=*/false);
  EXPECT_EQ(checker.total(), 0u);  // lost and inert: fine
  checker.check_lost_uav_inactive(7.0, "u1", /*declared_lost=*/true,
                                  sim::FlightMode::kMission,
                                  /*mission_active=*/true);
  EXPECT_EQ(checker.total(), 2u);  // still active AND still flying tasks
  EXPECT_EQ(checker.violations()[0].invariant, "lost_uav_serving");
}

TEST(InvariantChecker, DetectionsNeverFromBlindOrCrashedSensor) {
  pf::InvariantChecker checker{pf::InvariantConfig{}};
  checker.check_detection_source(1.0, "u1", /*vision_healthy=*/true,
                                 sim::FlightMode::kMission);
  EXPECT_EQ(checker.total(), 0u);
  checker.check_detection_source(2.0, "u1", /*vision_healthy=*/false,
                                 sim::FlightMode::kMission);
  EXPECT_EQ(checker.total(), 1u);
  checker.check_detection_source(3.0, "u1", /*vision_healthy=*/true,
                                 sim::FlightMode::kCrashed);
  EXPECT_EQ(checker.total(), 2u);
  EXPECT_EQ(checker.violations()[1].invariant, "blind_detection");
}

TEST(InvariantChecker, EvidenceMustBeFresh) {
  pf::InvariantChecker checker{pf::InvariantConfig{}};
  checker.check_evidence_fresh(1.0, "u1", /*comm_evidence_good=*/true,
                               /*staleness_s=*/2.0);
  EXPECT_EQ(checker.total(), 0u);
  // Stale telemetry with the evidence already withdrawn is fine...
  checker.check_evidence_fresh(2.0, "u1", false, 60.0);
  EXPECT_EQ(checker.total(), 0u);
  // ...but asserting good comms on dead-silent telemetry is the violation.
  checker.check_evidence_fresh(3.0, "u1", true, 60.0);
  EXPECT_EQ(checker.total(), 1u);
  EXPECT_EQ(checker.violations()[0].invariant, "stale_evidence");
}

TEST(InvariantChecker, RejectsBadConfig) {
  pf::InvariantConfig bad;
  bad.min_soc_floor = 1.5;
  EXPECT_THROW(pf::InvariantChecker{bad}, std::invalid_argument);
  bad = {};
  bad.max_evidence_age_s = 0.0;
  EXPECT_THROW(pf::InvariantChecker{bad}, std::invalid_argument);
}
