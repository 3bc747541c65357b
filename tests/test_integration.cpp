// Cross-module integration tests: full pipelines spanning the simulator,
// middleware, EDDI monitors, ConSert network, and platform — the paths the
// paper's three evaluation scenarios exercise end-to-end.
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sesame/eddi/uav_eddi.hpp"
#include "sesame/localization/collaborative.hpp"
#include "sesame/platform/mission_runner.hpp"
#include "sesame/security/attack_tree.hpp"
#include "sesame/security/ids.hpp"
#include "sesame/security/security_eddi.hpp"

namespace {

using namespace sesame;

const geo::GeoPoint kOrigin{35.1856, 33.3823, 0.0};

// ---------------------------------------------------------------------------
// Scenario: Fig. 6 + Fig. 7 pipeline — injection, detection, mitigation,
// GPS-free landing — wired exactly as the benches do it.
// ---------------------------------------------------------------------------

TEST(SpoofingPipeline, DetectionThenCollaborativeLanding) {
  sim::World world(kOrigin, 77);
  for (const char* name : {"victim", "assist1", "assist2"}) {
    sim::UavConfig cfg;
    cfg.name = name;
    world.add_uav(cfg, kOrigin);
  }
  sim::Uav& victim = world.uav_by_name("victim");
  victim.add_waypoint({0.0, 500.0, 30.0});
  world.uav_by_name("assist1").add_waypoint({40.0, 60.0, 30.0});
  world.uav_by_name("assist2").add_waypoint({-40.0, 60.0, 30.0});
  for (std::size_t i = 0; i < world.num_uavs(); ++i) {
    world.uav(i).command_takeoff();
  }

  security::IntrusionDetectionSystem ids(world.bus());
  ids.authorize(sim::position_fix_topic("victim"), "collaborative_localization");
  security::SecurityEddi eddi(world.bus(),
                              security::make_spoofing_attack_tree());
  double detection_time = -1.0;
  eddi.on_event([&](const security::SecurityEvent& ev) {
    if (detection_time < 0.0) detection_time = ev.time_s;
  });

  // Phase 1: attack at t=30, detection expected on the first bogus message.
  double offset = 0.0;
  for (int t = 0; t < 60; ++t) {
    world.step(1.0);
    if (t >= 30) {
      offset += 2.0;
      world.bus().publish(sim::position_fix_topic("victim"),
                          geo::destination(victim.true_geo(), 90.0, offset),
                          "attacker", world.time_s());
    }
  }
  ASSERT_TRUE(eddi.attack_detected());
  EXPECT_NEAR(detection_time, 31.0, 1.5);
  // The falsified fixes really steered the vehicle (Fig. 6 deviation).
  EXPECT_LT(victim.true_position().east_m, -10.0);

  // Phase 2: mitigation — GPS distrusted, CL guides to the pad (Fig. 7).
  victim.gps().set_disabled(true);
  localization::ObservationModel model;
  model.detection_range_m = 700.0;
  model.detection_probability = 1.0;
  localization::CollaborativeLocalizer cl(world, "victim",
                                          {"assist1", "assist2"}, model);
  localization::SafeLandingGuide guide(world, cl, {10.0, 10.0, 30.0});
  for (int t = 0; t < 400 && !guide.landed(); ++t) {
    world.step(1.0);
    guide.step();
  }
  ASSERT_TRUE(guide.landed());
  EXPECT_LT(guide.true_distance_to_target_m(), 8.0);
  EXPECT_FALSE(victim.gps().read(victim.true_geo(), 1.0).has_value());
}

// ---------------------------------------------------------------------------
// Scenario: EDDI evidence feeds the ConSert network and the action follows
// the degradation sequence high-reliability -> medium -> abort.
// ---------------------------------------------------------------------------

TEST(EddiConsertPipeline, ReliabilityDegradationWalksActionLattice) {
  mathx::Rng rng(55);
  std::vector<std::vector<double>> reference(3);
  for (int i = 0; i < 200; ++i) {
    reference[0].push_back(rng.normal(1.0, 0.1));
    reference[1].push_back(rng.normal(0.8, 0.05));
    reference[2].push_back(rng.normal(25.0, 2.0));
  }
  eddi::UavEddiConfig cfg;
  cfg.safeml.window = 8;
  cfg.reliability.medium_threshold = 0.3;
  cfg.reliability.low_threshold = 0.88;
  cfg.reliability.abort_threshold = 0.90;
  eddi::UavEddi uav_eddi("u", cfg, reference);

  conserts::ConSertNetwork net;
  conserts::add_uav_conserts(net, "u");
  conserts::Plan plan(net);
  const conserts::UavBinding u(plan, "u");

  auto evaluate = [&] {
    u.apply(plan, uav_eddi.consert_evidence());
    plan.evaluate();
    return u.action(plan);
  };

  eddi::EddiInputs in;
  in.dt_s = 5.0;
  in.telemetry.battery_soc = 0.95;
  in.telemetry.battery_temp_c = 30.0;
  in.frame_features = {rng.normal(1.0, 0.1), rng.normal(0.8, 0.05),
                       rng.normal(25.0, 2.0)};
  in.comm_link_good = true;
  in.nearby_uav_available = true;
  in.vision_sensor_healthy = true;
  in.altitude_band = sinadra::AltitudeBand::kLow;

  // Healthy: continue with capacity to take over.
  for (int i = 0; i < 10; ++i) {
    in.frame_features = {rng.normal(1.0, 0.1), rng.normal(0.8, 0.05),
                         rng.normal(25.0, 2.0)};
    uav_eddi.tick(in);
  }
  EXPECT_EQ(evaluate(), conserts::UavAction::kContinueExtended);

  // Battery fault: cumulative probability climbs through the lattice.
  in.telemetry.battery_soc = 0.40;
  in.telemetry.battery_temp_c = 70.0;
  bool saw_continue = false, saw_abortish = false;
  for (int i = 0; i < 120; ++i) {
    in.frame_features = {rng.normal(1.0, 0.1), rng.normal(0.8, 0.05),
                         rng.normal(25.0, 2.0)};
    uav_eddi.tick(in);
    const auto action = evaluate();
    const auto& rel = uav_eddi.assessment().reliability;
    if (rel.level == safedrones::ReliabilityLevel::kMedium &&
        action == conserts::UavAction::kContinue) {
      saw_continue = true;
    }
    if (rel.abort_recommended) {
      saw_abortish = true;
      break;
    }
  }
  EXPECT_TRUE(saw_continue);  // medium reliability still continues (Fig. 5)
  EXPECT_TRUE(saw_abortish);  // and the 0.9 threshold eventually fires
}

// ---------------------------------------------------------------------------
// Scenario: platform managers observing a live mission over the bus.
// ---------------------------------------------------------------------------

TEST(PlatformPipeline, DatabaseTracksMissionTelemetry) {
  platform::RunnerConfig cfg;
  cfg.n_uavs = 2;
  cfg.area = {0.0, 100.0, 0.0, 100.0};
  cfg.n_persons = 2;
  cfg.max_time_s = 600.0;
  platform::MissionRunner runner(cfg);

  // Attach an external observer database, and a battery log of our own
  // (in record time: a lossy bus may reorder deliveries), before running.
  platform::DatabaseManager db(runner.world().bus());
  db.allow_client("gcs");
  std::map<std::string, std::map<double, double>> soc_at;
  std::vector<mw::Subscription> logs;
  for (const auto& name : runner.uav_names()) {
    db.attach_uav(name);
    logs.push_back(runner.world().bus().subscribe<sim::Telemetry>(
        sim::telemetry_topic(name),
        [&soc_at, name](const mw::MessageHeader&, const sim::Telemetry& t) {
          soc_at[name][t.time_s] = t.battery_soc;
        }));
  }

  const auto result = runner.run();
  ASSERT_TRUE(result.mission_complete_time_s.has_value());

  for (const auto& name : runner.uav_names()) {
    const auto latest = db.latest("gcs", name);
    ASSERT_TRUE(latest.has_value()) << name;
    EXPECT_NEAR(latest->time_s, result.total_time_s, 1e-9);
    const std::map<double, double>& history = soc_at[name];
    EXPECT_GT(history.size(), 50u);
    // Battery is monotone non-increasing while airborne (no swaps here).
    double previous = 1.0;
    for (const auto& [time_s, soc] : history) {
      EXPECT_LE(soc, previous + 1e-9) << name << " at t=" << time_s;
      previous = soc;
    }
  }
}

// ---------------------------------------------------------------------------
// Scenario: altitude change propagates through perception features into
// SafeML confidence and the ConSert vision guarantee.
// ---------------------------------------------------------------------------

TEST(PerceptionPipeline, AltitudeShiftFlipsVisionGuarantee) {
  mathx::Rng rng(88);
  perception::PersonDetector detector{perception::DetectorConfig{}};
  std::vector<std::vector<double>> reference(
      perception::FrameFeatures::kNumFeatures);
  for (int i = 0; i < 300; ++i) {
    const auto v = detector.frame_features(18.0, rng).as_vector();
    for (std::size_t k = 0; k < v.size(); ++k) reference[k].push_back(v[k]);
  }
  eddi::UavEddiConfig cfg;
  cfg.safeml.window = 16;
  eddi::UavEddi e("u", cfg, reference);

  conserts::ConSertNetwork net;
  conserts::add_uav_conserts(net, "u");
  conserts::Plan plan(net);
  const conserts::UavBinding u(plan, "u");
  const std::size_t vision =
      plan.consert_id(conserts::uav_consert_names("u").vision_localization);
  auto vision_granted = [&] {
    u.apply(plan, e.consert_evidence());
    plan.evaluate();
    return plan.granted(vision, 0);
  };

  eddi::EddiInputs in;
  in.vision_sensor_healthy = true;
  in.gps_fix_available = false;  // vision is the only candidate channel
  for (int i = 0; i < 20; ++i) {
    in.frame_features = detector.frame_features(18.0, rng).as_vector();
    e.tick(in);
  }
  EXPECT_TRUE(vision_granted());

  // Climb: features shift, SafeML confidence collapses, guarantee drops.
  for (int i = 0; i < 20; ++i) {
    in.frame_features = detector.frame_features(75.0, rng).as_vector();
    e.tick(in);
  }
  EXPECT_FALSE(vision_granted());
}

}  // namespace

// ---------------------------------------------------------------------------
// System-level determinism: two identical runs produce identical results.
// ---------------------------------------------------------------------------

TEST(Determinism, FullScenarioBitReproducible) {
  auto run_once = [] {
    platform::RunnerConfig cfg;
    cfg.n_uavs = 2;
    cfg.area = {0.0, 120.0, 0.0, 120.0};
    cfg.n_persons = 4;
    cfg.max_time_s = 400.0;
    cfg.battery_fault = platform::BatteryFaultEvent{"uav1", 50.0, 0.40, 70.0};
    cfg.seed = 4242;
    platform::MissionRunner runner(cfg);
    return runner.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.series.size(), b.series.size());
  for (const auto& [name, series_a] : a.series) {
    const auto& series_b = b.series.at(name);
    ASSERT_EQ(series_a.size(), series_b.size()) << name;
    for (std::size_t i = 0; i < series_a.size(); ++i) {
      EXPECT_EQ(series_a[i].p_fail, series_b[i].p_fail);
      EXPECT_EQ(series_a[i].soc, series_b[i].soc);
      EXPECT_EQ(series_a[i].mode, series_b[i].mode);
      EXPECT_EQ(series_a[i].sar_uncertainty, series_b[i].sar_uncertainty);
    }
  }
  EXPECT_EQ(a.mission_complete_time_s, b.mission_complete_time_s);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.detection.persons_found, b.detection.persons_found);
  EXPECT_EQ(a.assurance_trace.size(), b.assurance_trace.size());
}

// ---------------------------------------------------------------------------
// Jamming fallback: with no GNSS fix, a nearby buddy keeps the vehicle on
// its mission through the communication-localization guarantee.
// ---------------------------------------------------------------------------

TEST(JammingFallback, CommLocalizationGuaranteeContinuesMission) {
  conserts::ConSertNetwork net;
  conserts::add_uav_conserts(net, "victim");
  conserts::UavEvidence e;
  e.gps_quality_good = false;  // no fix
  e.no_security_attack = true; // jamming is availability, not integrity
  e.comm_link_good = true;
  e.nearby_uav_available = true;
  e.vision_sensor_healthy = true;
  e.reliability_high = true;
  conserts::Plan plan(net);
  const conserts::UavBinding binding(plan, "victim");
  binding.apply(plan, e);
  plan.evaluate();
  EXPECT_EQ(binding.action(plan), conserts::UavAction::kContinue);
}

// ---------------------------------------------------------------------------
// Motor failure mid-mission flows through telemetry into SafeDrones.
// ---------------------------------------------------------------------------

TEST(MotorFailurePipeline, DegradedPropulsionRaisesRiskButMissionFinishes) {
  platform::RunnerConfig cfg;
  cfg.n_uavs = 2;
  cfg.area = {0.0, 120.0, 0.0, 120.0};
  cfg.n_persons = 2;
  cfg.max_time_s = 600.0;
  // Make propulsion risk visible at mission scale.
  cfg.eddi.reliability.propulsion.motor_failure_rate = 2e-4;
  platform::MissionRunner runner(cfg);
  runner.world().uav_by_name("uav1").fail_motor();  // tolerated loss
  const auto result = runner.run();
  ASSERT_TRUE(result.mission_complete_time_s.has_value());
  // The degraded UAV's propulsion term dominates its healthy peer's.
  const auto& hurt = runner.uav_eddi("uav1").assessment();
  const auto& fine = runner.uav_eddi("uav2").assessment();
  EXPECT_GT(hurt.reliability.p_propulsion, fine.reliability.p_propulsion);
}

// ---------------------------------------------------------------------------
// Fault injection end-to-end: reproducibility under a fault plan, and the
// Fig. 6 security pipeline on a lossy link.
// ---------------------------------------------------------------------------

#include "sesame/mw/fault_plan.hpp"
#include "support/tap_recorder.hpp"

TEST(Determinism, FaultPlanRunIsBitReproducible) {
  // Same seed + same fault plan + lossy links => identical stream of
  // publication attempts and identical recorded state series, run after
  // run.
  //
  // The recorder taps the bus after the runner built it, so the IDS tap is
  // already registered ahead of it. The IDS publishes its alerts from
  // inside its tap, which runs the alert's whole pipeline first: this
  // recorder lists each alert *before* the publication that triggered it.
  // Both runs are recorded the same way, so the comparison holds.
  auto run_once = [] {
    platform::RunnerConfig cfg;
    cfg.n_uavs = 2;
    cfg.area = {0.0, 120.0, 0.0, 120.0};
    cfg.n_persons = 4;
    cfg.max_time_s = 300.0;
    cfg.seed = 4242;
    cfg.lossy_links = true;
    mw::FaultPlan plan = mw::FaultPlan::telemetry_stress();
    mw::FaultRule fix_rule;  // exercise the delay queue on the fix channel
    fix_rule.topic_suffix = "/position_fix";
    fix_rule.delay_probability = 0.5;
    fix_rule.delay_steps = 2;
    plan.rules.push_back(fix_rule);
    cfg.fault_plan = plan;
    cfg.spoofing = platform::SpoofingEvent{"uav1", 40.0, 2.0};
    platform::MissionRunner runner(cfg);
    const sesame::test::TapRecorder recorder(runner.world().bus());
    auto result = runner.run();
    return std::make_pair(std::move(result), recorder.rows());
  };
  const auto [a, attempts_a] = run_once();
  const auto [b, attempts_b] = run_once();

  ASSERT_EQ(attempts_a.size(), attempts_b.size());
  for (std::size_t i = 0; i < attempts_a.size(); ++i) {
    EXPECT_EQ(attempts_a[i].seq, attempts_b[i].seq);
    EXPECT_EQ(attempts_a[i].time_s, attempts_b[i].time_s);
    EXPECT_EQ(attempts_a[i].source, attempts_b[i].source);
    EXPECT_EQ(attempts_a[i].topic, attempts_b[i].topic);
    EXPECT_EQ(attempts_a[i].type_name, attempts_b[i].type_name);
  }
  ASSERT_EQ(a.series.size(), b.series.size());
  for (const auto& [name, series_a] : a.series) {
    const auto& series_b = b.series.at(name);
    ASSERT_EQ(series_a.size(), series_b.size()) << name;
    for (std::size_t i = 0; i < series_a.size(); ++i) {
      EXPECT_EQ(series_a[i].p_fail, series_b[i].p_fail);
      EXPECT_EQ(series_a[i].soc, series_b[i].soc);
      EXPECT_EQ(series_a[i].mode, series_b[i].mode);
      EXPECT_EQ(series_a[i].altitude_m, series_b[i].altitude_m);
    }
  }
  EXPECT_EQ(a.attack_detected, b.attack_detected);
  EXPECT_EQ(a.attack_detection_time_s, b.attack_detection_time_s);
  EXPECT_EQ(a.assurance_trace.size(), b.assurance_trace.size());
}

TEST(SpoofingPipeline, DetectionSurvivesTelemetryLoss) {
  // Satellite of the Fig. 6 scenario: with 10% of telemetry lost in
  // flight, the IDS still sees the counterfeit position fixes and the
  // platform still detects, mitigates, and safe-lands the victim.
  platform::RunnerConfig cfg;
  cfg.n_uavs = 2;
  cfg.area = {0.0, 120.0, 0.0, 120.0};
  cfg.n_persons = 3;
  cfg.max_time_s = 900.0;
  cfg.sesame_enabled = true;
  cfg.spoofing = platform::SpoofingEvent{"uav1", 40.0, 2.0};
  mw::FaultPlan plan;
  plan.seed = 616;
  mw::FaultRule rule;
  rule.topic_suffix = "/telemetry";
  rule.drop_probability = 0.10;
  plan.rules.push_back(rule);
  cfg.fault_plan = plan;

  platform::MissionRunner runner(cfg);
  const auto result = runner.run();

  EXPECT_TRUE(result.attack_detected);
  EXPECT_NEAR(result.attack_detection_time_s, 41.0, 5.0);
  EXPECT_GE(result.spoofed_uav_landing_error_m, 0.0);
  EXPECT_LT(result.spoofed_uav_landing_error_m, 15.0);
  EXPECT_GT(runner.world().bus().faults_dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Scenario: fleet robustness (docs/ROBUSTNESS.md) — one vehicle is lost
// mid-mission to a hard crash, the recovery subsystem detects and writes it
// off, and the survivors absorb its coverage. The acceptance bar: at least
// 90% of the nominal run's area coverage, with zero safety-invariant
// violations.
TEST(RecoveryPipeline, HardCrashSurvivorsAbsorbCoverage) {
  const auto scenario = [] {
    platform::RunnerConfig cfg;
    cfg.n_uavs = 3;
    cfg.area = {0.0, 180.0, 0.0, 180.0};
    cfg.coverage.altitude_m = 20.0;
    cfg.coverage.lane_spacing_m = 30.0;
    cfg.n_persons = 4;
    cfg.max_time_s = 900.0;
    cfg.sesame_enabled = true;
    cfg.seed = 21;
    return cfg;
  };

  platform::RunnerConfig nominal = scenario();
  platform::MissionRunner nominal_runner(nominal);
  const auto nominal_result = nominal_runner.run();
  ASSERT_TRUE(nominal_result.mission_complete_time_s.has_value());
  ASSERT_GT(nominal_result.area_coverage, 0.5);

  platform::RunnerConfig crashed = scenario();
  crashed.recovery_enabled = true;
  sim::FailureSchedule schedule;
  sim::FailureEvent crash;
  crash.uav = "uav2";
  crash.mode = sim::FailureMode::kHardCrash;
  crash.time_s = 0.4 * nominal_result.mission_complete_time_s.value();
  schedule.events.push_back(crash);
  crashed.failure_schedule = schedule;

  platform::MissionRunner crashed_runner(crashed);
  const auto crashed_result = crashed_runner.run();

  // The loss was detected and the coverage re-planned to the survivors.
  EXPECT_EQ(crashed_result.uavs_lost, std::vector<std::string>{"uav2"});
  EXPECT_GT(crashed_result.waypoints_redistributed, 0u);
  EXPECT_GE(crashed_result.recovery_replans, 1u);
  EXPECT_TRUE(crashed_result.mission_complete_time_s.has_value());

  // Coverage holds: losing a third of the fleet costs < 10% of the area.
  EXPECT_GE(crashed_result.area_coverage,
            0.9 * nominal_result.area_coverage);
  // Absorbing the strip costs time, never safety.
  EXPECT_TRUE(crashed_result.invariant_violations.empty());
  EXPECT_GE(crashed_result.total_time_s, nominal_result.total_time_s);
}
