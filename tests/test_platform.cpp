// Tests for the multi-UAV platform: database manager access control,
// ConSert action translation, and MissionRunner end-to-end scenarios
// (nominal, battery fault with/without SESAME).
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sesame/platform/database.hpp"
#include "sesame/platform/gcs.hpp"
#include "sesame/security/attack_tree.hpp"
#include "sesame/security/ids.hpp"
#include "sesame/platform/mission_runner.hpp"

namespace pf = sesame::platform;
namespace sim = sesame::sim;
namespace cs = sesame::conserts;

namespace {

const sesame::geo::GeoPoint kOrigin{35.1856, 33.3823, 0.0};

pf::RunnerConfig small_scenario() {
  pf::RunnerConfig cfg;
  cfg.n_uavs = 2;
  cfg.area = {0.0, 120.0, 0.0, 120.0};
  cfg.coverage.altitude_m = 20.0;
  cfg.coverage.lane_spacing_m = 30.0;
  cfg.n_persons = 3;
  cfg.max_time_s = 900.0;
  return cfg;
}

}  // namespace

TEST(DatabaseManager, StoresAndServesTelemetry) {
  sim::World world(kOrigin);
  sim::UavConfig uc;
  uc.name = "u1";
  world.add_uav(uc, kOrigin);
  pf::DatabaseManager db(world.bus());
  db.attach_uav("u1");
  db.allow_client("gcs");
  world.run(3, 1.0);
  const auto latest = db.latest("gcs", "u1");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->uav, "u1");
  EXPECT_DOUBLE_EQ(latest->time_s, 3.0);
  EXPECT_EQ(db.records_stored(), 3u);
}

TEST(DatabaseManager, RejectsOutsideClients) {
  sim::World world(kOrigin);
  sim::UavConfig uc;
  uc.name = "u1";
  world.add_uav(uc, kOrigin);
  pf::DatabaseManager db(world.bus());
  db.attach_uav("u1");
  world.run(1, 1.0);
  EXPECT_THROW(db.latest("internet_rando", "u1"), std::runtime_error);
}

TEST(DatabaseManager, DiscardsStaleAndDuplicateTelemetry) {
  // Regression: a duplicating/reordering transport must not corrupt the
  // state database — a late copy of an old record may not shadow newer
  // state, and duplicates may not count as stored records.
  sim::World world(kOrigin);
  pf::DatabaseManager db(world.bus());
  db.attach_uav("u1");
  db.allow_client("gcs");
  const auto publish_at = [&](double t, double soc) {
    sim::Telemetry tel;
    tel.uav = "u1";
    tel.time_s = t;
    tel.battery_soc = soc;
    world.bus().publish(sim::telemetry_topic("u1"), tel, "u1", t);
  };
  publish_at(1.0, 0.99);
  publish_at(2.0, 0.98);
  publish_at(2.0, 0.98);  // duplicate delivery
  publish_at(1.5, 0.985);  // reordered stale copy
  EXPECT_DOUBLE_EQ(db.latest("gcs", "u1")->time_s, 2.0);
  EXPECT_DOUBLE_EQ(db.latest("gcs", "u1")->battery_soc, 0.98);
  publish_at(3.0, 0.97);
  EXPECT_DOUBLE_EQ(db.latest("gcs", "u1")->time_s, 3.0);
  EXPECT_DOUBLE_EQ(db.latest("gcs", "u1")->battery_soc, 0.97);
  EXPECT_EQ(db.records_stored(), 3u);
  EXPECT_EQ(db.records_rejected(), 2u);
}

TEST(ApplyAction, TranslatesConsertActions) {
  sim::World world(kOrigin);
  sim::UavConfig uc;
  uc.name = "u1";
  world.add_uav(uc, kOrigin);

  auto& uav = world.uav(0);
  uav.add_waypoint({50.0, 0.0, 30.0});
  uav.command_takeoff();
  world.run(20, 1.0);
  ASSERT_EQ(uav.mode(), sim::FlightMode::kMission);

  pf::apply_action(uav, cs::UavAction::kHold);
  EXPECT_EQ(uav.mode(), sim::FlightMode::kHold);

  pf::apply_action(uav, cs::UavAction::kContinue);
  EXPECT_EQ(uav.mode(), sim::FlightMode::kMission);

  pf::apply_action(uav, cs::UavAction::kEmergencyLand);
  EXPECT_EQ(uav.mode(), sim::FlightMode::kEmergencyLand);
}

TEST(MissionRunner, ValidatesConfig) {
  pf::RunnerConfig cfg = small_scenario();
  cfg.n_uavs = 0;
  EXPECT_THROW(pf::MissionRunner{cfg}, std::invalid_argument);
  cfg = small_scenario();
  cfg.dt_s = 0.0;
  EXPECT_THROW(pf::MissionRunner{cfg}, std::invalid_argument);
  // NaN passes every `<= 0` test; each timing field must also be finite.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double pf::RunnerConfig::*field :
       {&pf::RunnerConfig::dt_s, &pf::RunnerConfig::max_time_s,
        &pf::RunnerConfig::consert_period_s,
        &pf::RunnerConfig::telemetry_staleness_window_s,
        &pf::RunnerConfig::health_heartbeat_period_s}) {
    for (const double bad : {nan, inf, -inf}) {
      cfg = small_scenario();
      cfg.*field = bad;
      EXPECT_THROW(pf::MissionRunner{cfg}, std::invalid_argument) << bad;
    }
  }
}

TEST(MissionRunner, NominalMissionCompletesWithSesame) {
  pf::RunnerConfig cfg = small_scenario();
  cfg.sesame_enabled = true;
  pf::MissionRunner runner(cfg);
  const auto result = runner.run();
  ASSERT_TRUE(result.mission_complete_time_s.has_value());
  EXPECT_GT(result.availability, 0.7);
  EXPECT_GT(result.detection.persons_found, 0u);
  // Time series recorded for both UAVs.
  EXPECT_EQ(result.series.size(), 2u);
  for (const auto& [name, series] : result.series) {
    (void)name;
    EXPECT_FALSE(series.empty());
  }
}

TEST(MissionRunner, NominalMissionCompletesBaseline) {
  pf::RunnerConfig cfg = small_scenario();
  cfg.sesame_enabled = false;
  pf::MissionRunner runner(cfg);
  const auto result = runner.run();
  ASSERT_TRUE(result.mission_complete_time_s.has_value());
  EXPECT_GT(result.availability, 0.7);
}

TEST(MissionRunner, BatteryFaultBaselineReturnsAndSwaps) {
  pf::RunnerConfig cfg = small_scenario();
  cfg.sesame_enabled = false;
  cfg.battery_fault = pf::BatteryFaultEvent{"uav1", 60.0, 0.40, 70.0};
  pf::MissionRunner runner(cfg);
  const auto result = runner.run();
  // The baseline vehicle must have gone home at some point (RTB mode seen).
  bool saw_rtb = false;
  for (const auto& rec : result.series.at("uav1")) {
    if (rec.mode == sim::FlightMode::kReturnToBase) saw_rtb = true;
  }
  EXPECT_TRUE(saw_rtb);
  ASSERT_TRUE(result.mission_complete_time_s.has_value());
}

TEST(MissionRunner, BatteryFaultSesameContinuesAndBeatsBaseline) {
  pf::RunnerConfig with = small_scenario();
  with.sesame_enabled = true;
  with.battery_fault = pf::BatteryFaultEvent{"uav1", 60.0, 0.40, 70.0};
  pf::RunnerConfig without = with;
  without.sesame_enabled = false;

  const auto r_with = pf::MissionRunner(with).run();
  const auto r_without = pf::MissionRunner(without).run();

  ASSERT_TRUE(r_with.mission_complete_time_s.has_value());
  ASSERT_TRUE(r_without.mission_complete_time_s.has_value());
  // SESAME finishes sooner and with higher availability (Fig. 5 shape).
  EXPECT_LT(*r_with.mission_complete_time_s, *r_without.mission_complete_time_s);
  EXPECT_GT(r_with.availability, r_without.availability);

  // P(fail) series for the faulted UAV rises after injection.
  const auto& series = r_with.series.at("uav1");
  double before = 0.0, after = 0.0;
  for (const auto& rec : series) {
    if (rec.time_s < 60.0) before = std::max(before, rec.p_fail);
    if (rec.time_s > 70.0) after = std::max(after, rec.p_fail);
  }
  EXPECT_GT(after, before);
}

TEST(MissionRunner, HighAltitudeTriggersDescendAdaptation) {
  pf::RunnerConfig cfg = small_scenario();
  cfg.sesame_enabled = true;
  cfg.coverage.altitude_m = 60.0;  // high-altitude sweep: uncertainty > 90%
  cfg.descend_altitude_m = 18.0;
  pf::MissionRunner runner(cfg);
  const auto result = runner.run();
  EXPECT_TRUE(result.descended);
  // After descending the recorded altitude drops to the low band.
  double final_alt = 1e9;
  for (const auto& rec : result.series.at("uav1")) {
    if (rec.mode == sim::FlightMode::kMission) final_alt = rec.altitude_m;
  }
  EXPECT_LT(final_alt, 30.0);
}

TEST(MissionRunner, SpoofingDetectedAndSafeLandedWithSesame) {
  pf::RunnerConfig cfg = small_scenario();
  cfg.sesame_enabled = true;
  cfg.spoofing = pf::SpoofingEvent{"uav1", 40.0, 2.0};
  pf::MissionRunner runner(cfg);
  const auto result = runner.run();

  EXPECT_TRUE(result.attack_detected);
  // First counterfeit message lands within one step of the event time.
  EXPECT_NEAR(result.attack_detection_time_s, 41.0, 2.0);
  // The victim safe-landed near its home pad without GPS.
  EXPECT_GE(result.spoofed_uav_landing_error_m, 0.0);
  EXPECT_LT(result.spoofed_uav_landing_error_m, 10.0);
  // Its tasks were redistributed and the mission still completed.
  EXPECT_GT(result.waypoints_redistributed, 0u);
  ASSERT_TRUE(result.mission_complete_time_s.has_value());
  // The victim ends up grounded.
  bool landed = false;
  for (const auto& rec : result.series.at("uav1")) {
    if (rec.mode == sim::FlightMode::kLanded) landed = true;
  }
  EXPECT_TRUE(landed);
}

TEST(MissionRunner, SpoofingUnnoticedWithoutSesame) {
  pf::RunnerConfig cfg = small_scenario();
  cfg.sesame_enabled = false;
  cfg.spoofing = pf::SpoofingEvent{"uav1", 40.0, 2.0};
  pf::MissionRunner runner(cfg);
  const auto result = runner.run();

  EXPECT_FALSE(result.attack_detected);
  EXPECT_LT(result.spoofed_uav_landing_error_m, 0.0);  // never safe-landed
  // The falsified fixes corrupted the mapping: large ground-truth error.
  EXPECT_GT(result.spoofed_uav_peak_error_m, 30.0);
}

TEST(Gcs, LogsModeTransitionsAndBatteryWarnings) {
  sim::World world(kOrigin);
  sim::UavConfig uc;
  uc.name = "u1";
  uc.battery.initial_soc = 0.28;  // crosses the 25% warning mid-flight
  world.add_uav(uc, kOrigin);
  pf::DatabaseManager db(world.bus());
  pf::GroundControlStation gcs(world.bus(), db);
  gcs.watch_uav("u1");

  auto& uav = world.uav_by_name("u1");
  uav.add_waypoint({150.0, 0.0, 30.0});
  uav.command_takeoff();
  world.run(120, 1.0);

  const auto modes = gcs.events_of("mode");
  ASSERT_GE(modes.size(), 3u);  // initial, takeoff->mission, mission->hold
  EXPECT_EQ(modes[0].uav, "u1");

  const auto battery = gcs.events_of("battery");
  ASSERT_EQ(battery.size(), 1u);
  EXPECT_NE(battery[0].message.find("battery low"), std::string::npos);
}

TEST(Gcs, RecordsSecurityEvents) {
  sim::World world(kOrigin);
  sim::UavConfig uc;
  uc.name = "u1";
  world.add_uav(uc, kOrigin);
  pf::DatabaseManager db(world.bus());
  pf::GroundControlStation gcs(world.bus(), db);

  sesame::security::IntrusionDetectionSystem ids(world.bus());
  ids.authorize(sim::position_fix_topic("u1"), "collaborative_localization");
  sesame::security::SecurityEddi eddi(
      world.bus(), sesame::security::make_spoofing_attack_tree());

  world.bus().publish(sim::position_fix_topic("u1"), kOrigin, "attacker", 7.0);
  const auto sec = gcs.events_of("security");
  ASSERT_EQ(sec.size(), 1u);
  EXPECT_DOUBLE_EQ(sec[0].time_s, 7.0);
  EXPECT_NE(sec[0].message.find("attacker"), std::string::npos);
}

TEST(Gcs, RendersStatusTable) {
  sim::World world(kOrigin);
  for (const char* n : {"u1", "u2"}) {
    sim::UavConfig uc;
    uc.name = n;
    world.add_uav(uc, kOrigin);
  }
  pf::DatabaseManager db(world.bus());
  pf::GroundControlStation gcs(world.bus(), db);
  gcs.watch_uav("u1");
  gcs.watch_uav("u2");
  world.uav_by_name("u1").command_takeoff();
  world.run(5, 1.0);
  const std::string status = gcs.render_status();
  EXPECT_NE(status.find("u1"), std::string::npos);
  EXPECT_NE(status.find("u2"), std::string::npos);
  EXPECT_NE(status.find("Takeoff"), std::string::npos);
  EXPECT_NE(status.find("Idle"), std::string::npos);
}

TEST(Gcs, OperatorNotesAndEventLimit) {
  sim::World world(kOrigin);
  pf::DatabaseManager db(world.bus());
  pf::GcsConfig cfg;
  cfg.event_limit = 3;
  pf::GroundControlStation gcs(world.bus(), db, "gcs", cfg);
  for (int i = 0; i < 5; ++i) {
    gcs.log_operator_note(i, "note " + std::to_string(i));
  }
  ASSERT_EQ(gcs.events().size(), 3u);
  EXPECT_EQ(gcs.events().front().message, "note 2");  // oldest dropped
}

TEST(MissionRunner, VisionSensorFaultBlindsDetectionButMissionContinues) {
  pf::RunnerConfig cfg = small_scenario();
  cfg.sesame_enabled = true;
  pf::MissionRunner runner(cfg);
  // Blind uav1's camera before launch: it flies its strip but detects
  // nothing there; uav2's strip is still searched.
  runner.world().uav_by_name("uav1").set_vision_sensor_healthy(false);
  const auto result = runner.run();
  ASSERT_TRUE(result.mission_complete_time_s.has_value());
  // Coverage is roughly halved: only uav2's camera imaged the ground.
  EXPECT_LT(result.area_coverage, 0.75);
  EXPECT_GT(result.area_coverage, 0.25);
}

TEST(MissionRunner, DeepKnowledgeReportPresentAfterWarmup) {
  pf::RunnerConfig cfg = small_scenario();
  cfg.sesame_enabled = true;
  pf::MissionRunner runner(cfg);
  const auto result = runner.run();
  ASSERT_TRUE(result.mission_complete_time_s.has_value());
  // Coverage accounting ran for the whole mission.
  EXPECT_GT(result.area_coverage, 0.9);
}

#include <sstream>

#include "sesame/platform/report.hpp"

TEST(Report, SeriesCsvWellFormed) {
  pf::RunnerConfig cfg = small_scenario();
  cfg.max_time_s = 120.0;
  pf::MissionRunner runner(cfg);
  const auto result = runner.run();
  std::ostringstream out;
  pf::write_series_csv(result, out);
  const std::string csv = out.str();
  // Header plus one row per UAV per tick.
  std::size_t lines = 0;
  for (char c : csv) {
    if (c == '\n') ++lines;
  }
  std::size_t expected = 1;
  for (const auto& [name, series] : result.series) {
    (void)name;
    expected += series.size();
  }
  EXPECT_EQ(lines, expected);
  EXPECT_EQ(csv.rfind("uav,time_s,", 0), 0u);  // header first
  EXPECT_NE(csv.find("uav1,"), std::string::npos);
}

TEST(Report, SummaryCsvListsFleet) {
  pf::RunnerConfig cfg = small_scenario();
  cfg.max_time_s = 60.0;
  pf::MissionRunner runner(cfg);
  const auto result = runner.run();
  std::ostringstream out;
  pf::write_summary_csv(result, out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("uav1,"), std::string::npos);
  EXPECT_NE(csv.find("uav2,"), std::string::npos);
  EXPECT_NE(csv.find("fleet,"), std::string::npos);
}

TEST(Report, ExportRejectsBadPath) {
  pf::RunnerConfig cfg = small_scenario();
  cfg.max_time_s = 30.0;
  pf::MissionRunner runner(cfg);
  const auto result = runner.run();
  EXPECT_THROW(
      pf::export_result(result, "/nonexistent_dir/x.csv", "/tmp/ok.csv"),
      std::runtime_error);
}

TEST(MissionRunner, AssuranceTraceRecordsLifecycle) {
  pf::RunnerConfig cfg = small_scenario();
  cfg.sesame_enabled = true;
  cfg.battery_fault = pf::BatteryFaultEvent{"uav1", 60.0, 0.40, 75.0};
  // Tight reliability bands so the short test mission sees the Medium
  // transition before the sweep completes.
  cfg.eddi.reliability.medium_threshold = 0.05;
  cfg.eddi.reliability.low_threshold = 0.50;
  pf::MissionRunner runner(cfg);
  const auto result = runner.run();
  ASSERT_FALSE(result.assurance_trace.empty());
  // The faulted UAV's safety ConSert must have walked down from High.
  const auto safety = cs::uav_consert_names("uav1").safety;
  bool saw_high = false, saw_degraded = false;
  for (const auto& t : result.assurance_trace) {
    if (t.consert != safety) continue;
    if (t.to == cs::guarantees::kReliabilityHigh) saw_high = true;
    if (t.to == cs::guarantees::kReliabilityMedium ||
        t.to == cs::guarantees::kReliabilityLow) {
      saw_degraded = true;
      EXPECT_GT(t.time_s, 60.0);  // only after the fault
    }
  }
  EXPECT_TRUE(saw_high);
  EXPECT_TRUE(saw_degraded);
}

TEST(MissionRunner, BaselineHasNoAssuranceTrace) {
  pf::RunnerConfig cfg = small_scenario();
  cfg.sesame_enabled = false;
  cfg.max_time_s = 120.0;
  pf::MissionRunner runner(cfg);
  EXPECT_TRUE(runner.run().assurance_trace.empty());
}

#include "sesame/security/security_eddi.hpp"

TEST(GroundControlStation, PrefixSharingNamesKeepSeparateState) {
  // "uav1" and "uav10" share a prefix. The GCS keeps one state slot per
  // vehicle; every mode event and battery warning must land on the
  // vehicle whose telemetry caused it. The expected GCS mode log is
  // rebuilt here from the telemetry stream.
  sim::World world(kOrigin, 81);
  const std::vector<std::string> names{"uav1", "uav10"};
  for (const auto& name : names) {
    sim::UavConfig uc;
    uc.name = name;
    // Only uav1 crosses the 25% warning mid-flight.
    uc.battery.initial_soc = name == "uav1" ? 0.28 : 0.9;
    world.add_uav(uc, kOrigin);
  }
  std::map<std::string, std::vector<std::string>> want_modes;
  std::map<std::string, sim::FlightMode> last_mode;
  std::vector<sesame::mw::Subscription> oracle;
  for (const auto& name : names) {
    oracle.push_back(world.bus().subscribe<sim::Telemetry>(
        sim::telemetry_topic(name),
        [&, name](const sesame::mw::MessageHeader&, const sim::Telemetry& t) {
          const auto it = last_mode.find(name);
          if (it == last_mode.end() || it->second != t.mode) {
            want_modes[name].push_back(
                (it == last_mode.end() ? "initial mode " : "mode -> ") +
                sim::flight_mode_name(t.mode));
            last_mode[name] = t.mode;
          }
        }));
  }
  pf::DatabaseManager db(world.bus());
  pf::GroundControlStation gcs(world.bus(), db);
  for (const auto& name : names) {
    gcs.watch_uav(name);
    auto& uav = world.uav_by_name(name);
    uav.add_waypoint({150.0, 0.0, 30.0});
    uav.command_takeoff();
  }
  world.run(120, 1.0);

  for (const auto& name : names) {
    std::vector<std::string> got;
    for (const auto& e : gcs.events_of("mode")) {
      if (e.uav == name) got.push_back(e.message);
    }
    ASSERT_GE(got.size(), 2u) << name;
    EXPECT_EQ(got, want_modes[name]) << name;
  }
  const auto battery = gcs.events_of("battery");
  ASSERT_EQ(battery.size(), 1u);
  EXPECT_EQ(battery[0].uav, "uav1");
  for (const std::string name : {"uav1", "uav10"}) {
    const auto latest = db.latest("gcs", name);
    ASSERT_TRUE(latest.has_value()) << name;
    EXPECT_EQ(latest->uav, name);
    EXPECT_DOUBLE_EQ(latest->time_s, 120.0) << name;
  }
  EXPECT_EQ(db.records_stored(), 240u);  // 120 per vehicle
}

#include "sesame/platform/config_io.hpp"

TEST(ConfigIo, RoundTripsAllScenarioFields) {
  pf::RunnerConfig cfg;
  cfg.sesame_enabled = false;
  cfg.dt_s = 0.5;
  cfg.max_time_s = 777.0;
  cfg.n_uavs = 5;
  cfg.n_persons = 13;
  cfg.area = {1.0, 201.0, 2.0, 302.0};
  cfg.coverage.altitude_m = 44.0;
  cfg.coverage.lane_spacing_m = 27.0;
  cfg.battery_fault = pf::BatteryFaultEvent{"uav4", 123.0, 0.35, 66.0};
  cfg.spoofing = pf::SpoofingEvent{"uav2", 45.0, 3.5};
  cfg.seed = 987654321;

  const auto doc = pf::config_to_json(cfg);
  const auto back = pf::config_from_json(
      sesame::eddi::ode::parse_json(doc.to_json()));
  EXPECT_EQ(back.sesame_enabled, cfg.sesame_enabled);
  EXPECT_DOUBLE_EQ(back.dt_s, cfg.dt_s);
  EXPECT_DOUBLE_EQ(back.max_time_s, cfg.max_time_s);
  EXPECT_EQ(back.n_uavs, cfg.n_uavs);
  EXPECT_EQ(back.n_persons, cfg.n_persons);
  EXPECT_DOUBLE_EQ(back.area.east_max, 201.0);
  EXPECT_DOUBLE_EQ(back.coverage.altitude_m, 44.0);
  ASSERT_TRUE(back.battery_fault.has_value());
  EXPECT_EQ(back.battery_fault->uav, "uav4");
  EXPECT_DOUBLE_EQ(back.battery_fault->temp_c, 66.0);
  ASSERT_TRUE(back.spoofing.has_value());
  EXPECT_DOUBLE_EQ(back.spoofing->walk_mps, 3.5);
  EXPECT_EQ(back.seed, cfg.seed);
}

TEST(ConfigIo, AbsentKeysKeepDefaults) {
  const auto cfg = pf::config_from_json(
      sesame::eddi::ode::parse_json(R"({"n_uavs": 2})"));
  EXPECT_EQ(cfg.n_uavs, 2u);
  EXPECT_TRUE(cfg.sesame_enabled);  // default
  EXPECT_FALSE(cfg.battery_fault.has_value());
  EXPECT_DOUBLE_EQ(cfg.max_time_s, pf::RunnerConfig{}.max_time_s);
}

TEST(ConfigIo, RejectsUnknownAndMistypedKeys) {
  EXPECT_THROW(pf::config_from_json(
                   sesame::eddi::ode::parse_json(R"({"n_uavss": 2})")),
               std::runtime_error);
  EXPECT_THROW(pf::config_from_json(sesame::eddi::ode::parse_json(
                   R"({"area": {"east_mid": 5}})")),
               std::runtime_error);
  EXPECT_THROW(pf::config_from_json(
                   sesame::eddi::ode::parse_json(R"({"dt_s": "fast"})")),
               std::invalid_argument);
  EXPECT_THROW(pf::config_from_json(sesame::eddi::ode::parse_json(R"([1])")),
               std::invalid_argument);
}

TEST(ConfigIo, FileRoundTrip) {
  pf::RunnerConfig cfg;
  cfg.n_uavs = 4;
  cfg.spoofing = pf::SpoofingEvent{"uav3", 99.0, 1.0};
  const std::string path = "/tmp/sesame_config_test.json";
  pf::save_config(cfg, path);
  const auto back = pf::load_config(path);
  EXPECT_EQ(back.n_uavs, 4u);
  ASSERT_TRUE(back.spoofing.has_value());
  EXPECT_EQ(back.spoofing->uav, "uav3");
  EXPECT_THROW(pf::load_config("/nonexistent/nope.json"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Fault injection: telemetry-staleness watchdog, alert paths under loss,
// and config round-tripping of the new fields.

#include <cmath>

#include "sesame/mw/fault_plan.hpp"

namespace mw = sesame::mw;

TEST(MissionRunner, TelemetryStalenessDemotesCommGuarantee) {
  pf::RunnerConfig cfg = small_scenario();
  cfg.sesame_enabled = true;
  // Total uav1 telemetry blackout from t=60 on — a dead C2 link.
  mw::FaultPlan plan;
  mw::FaultRule rule;
  rule.topic_prefix = "uav/uav1/";
  rule.topic_suffix = "/telemetry";
  rule.drop_probability = 1.0;
  rule.start_time_s = 60.0;
  plan.rules.push_back(rule);
  cfg.fault_plan = plan;
  cfg.telemetry_staleness_window_s = 5.0;

  pf::MissionRunner runner(cfg);
  const auto result = runner.run();

  // The watchdog saw the outage...
  EXPECT_GT(runner.telemetry_staleness_s("uav1"),
            cfg.telemetry_staleness_window_s);
  EXPECT_LE(runner.telemetry_staleness_s("uav2"),
            cfg.telemetry_staleness_window_s);

  // ...and the comm_localization ConSert guarantee was granted, then
  // demoted within the staleness window plus one evaluation period.
  const auto comm = cs::uav_consert_names("uav1").comm_localization;
  bool granted = false, demoted = false;
  double demotion_time_s = -1.0;
  for (const auto& t : result.assurance_trace) {
    if (t.consert != comm) continue;
    if (t.to == cs::guarantees::kCommAvailable) granted = true;
    if (granted && !demoted && t.to.empty()) {
      demoted = true;
      demotion_time_s = t.time_s;
    }
  }
  EXPECT_TRUE(granted);
  ASSERT_TRUE(demoted);
  EXPECT_GT(demotion_time_s, 60.0);
  EXPECT_LE(demotion_time_s, 60.0 + cfg.telemetry_staleness_window_s +
                                 2.0 * cfg.consert_period_s);
}

TEST(ConfigIo, RoundTripsFaultInjectionFields) {
  pf::RunnerConfig cfg;
  cfg.lossy_links = true;
  cfg.telemetry_staleness_window_s = 7.5;
  cfg.comm_link.nominal_range_m = 350.0;
  cfg.comm_link.max_range_m = 900.0;
  cfg.comm_link.fading_sigma = 0.02;
  cfg.comm_link.usable_threshold = 0.4;
  mw::FaultPlan plan;
  plan.seed = 2024;
  mw::FaultRule windowed;
  windowed.topic_prefix = "uav/uav1/";
  windowed.topic_suffix = "/telemetry";
  windowed.source = "uav1";
  windowed.start_time_s = 30.0;
  windowed.stop_time_s = 90.0;
  windowed.drop_probability = 0.2;
  windowed.delay_probability = 0.3;
  windowed.delay_steps = 4;
  windowed.duplicate_probability = 0.1;
  windowed.reorder = true;
  mw::FaultRule open_ended;  // infinite stop must survive the JSON trip
  open_ended.drop_probability = 0.05;
  plan.rules = {windowed, open_ended};
  cfg.fault_plan = plan;

  const auto back = pf::config_from_json(
      sesame::eddi::ode::parse_json(pf::config_to_json(cfg).to_json()));
  EXPECT_TRUE(back.lossy_links);
  EXPECT_DOUBLE_EQ(back.telemetry_staleness_window_s, 7.5);
  EXPECT_DOUBLE_EQ(back.comm_link.nominal_range_m, 350.0);
  EXPECT_DOUBLE_EQ(back.comm_link.usable_threshold, 0.4);
  ASSERT_TRUE(back.fault_plan.has_value());
  EXPECT_EQ(back.fault_plan->seed, 2024u);
  ASSERT_EQ(back.fault_plan->rules.size(), 2u);
  const auto& r0 = back.fault_plan->rules[0];
  EXPECT_EQ(r0.topic_prefix, "uav/uav1/");
  EXPECT_EQ(r0.topic_suffix, "/telemetry");
  EXPECT_EQ(r0.source, "uav1");
  EXPECT_DOUBLE_EQ(r0.start_time_s, 30.0);
  EXPECT_DOUBLE_EQ(r0.stop_time_s, 90.0);
  EXPECT_DOUBLE_EQ(r0.drop_probability, 0.2);
  EXPECT_EQ(r0.delay_steps, 4u);
  EXPECT_TRUE(r0.reorder);
  EXPECT_TRUE(std::isinf(back.fault_plan->rules[1].stop_time_s));
  // Rules are validated on the way in.
  EXPECT_THROW(
      pf::config_from_json(sesame::eddi::ode::parse_json(
          R"({"fault_plan": {"rules": [{"drop_probability": 2.0}]}})")),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fleet failure & recovery (docs/ROBUSTNESS.md): edge-triggered watchdog
// demotion, hard-crash detection with coverage re-planning, and config
// round-tripping of the recovery / invariant / failure-schedule fields.

#include "sesame/obs/sinks.hpp"

namespace obs = sesame::obs;

namespace {

/// Count of `events` carrying an attribute uav=`uav`.
int events_for(const std::vector<obs::TraceEvent>& events,
               const std::string& uav) {
  int n = 0;
  for (const auto& e : events) {
    for (const auto& [key, value] : e.attributes) {
      if (key == "uav" && value == uav) ++n;
    }
  }
  return n;
}

}  // namespace

TEST(MissionRunner, WatchdogDemotionIsEdgeTriggered) {
  pf::RunnerConfig cfg = small_scenario();
  cfg.sesame_enabled = true;
  // One bounded uav1 telemetry outage, t=60..75. Edge-triggering means
  // exactly one demotion event and one re-arm for the whole outage — not
  // one per tick of staleness.
  mw::FaultPlan plan;
  mw::FaultRule rule;
  rule.topic_prefix = "uav/uav1/";
  rule.topic_suffix = "/telemetry";
  rule.drop_probability = 1.0;
  rule.start_time_s = 60.0;
  rule.stop_time_s = 75.0;
  plan.rules.push_back(rule);
  cfg.fault_plan = plan;
  cfg.telemetry_staleness_window_s = 5.0;

  pf::MissionRunner runner(cfg);
  obs::Observability o;
  obs::MemorySink sink;
  o.tracer.set_sink(&sink);
  runner.attach_observability(o);
  const auto result = runner.run();
  ASSERT_GT(result.total_time_s, 75.0);  // outage fully inside the run

  const auto demoted = sink.named("sesame.platform.comm_demoted");
  const auto rearmed = sink.named("sesame.platform.comm_rearmed");
  EXPECT_EQ(events_for(demoted, "uav1"), 1);
  EXPECT_EQ(events_for(rearmed, "uav1"), 1);
  EXPECT_EQ(events_for(demoted, "uav2"), 0);
  EXPECT_DOUBLE_EQ(
      o.metrics.counter("sesame.platform.comm_demotions_total",
                        {{"uav", "uav1"}})
          .value(),
      1.0);
  EXPECT_DOUBLE_EQ(
      o.metrics.counter("sesame.platform.comm_demotions_total",
                        {{"uav", "uav2"}})
          .value(),
      0.0);
}

TEST(MissionRunner, HardCrashEscalatesToLostAndReplansCoverage) {
  pf::RunnerConfig cfg = small_scenario();
  cfg.sesame_enabled = true;
  cfg.recovery_enabled = true;
  sim::FailureSchedule schedule;
  sim::FailureEvent crash;
  crash.uav = "uav1";
  crash.mode = sim::FailureMode::kHardCrash;
  crash.time_s = 60.0;
  schedule.events.push_back(crash);
  cfg.failure_schedule = schedule;

  pf::MissionRunner runner(cfg);
  obs::Observability o;
  obs::MemorySink sink;
  o.tracer.set_sink(&sink);
  runner.attach_observability(o);
  const auto result = runner.run();

  // The wreck was detected, escalated re-ping -> demote -> RTH -> lost.
  EXPECT_EQ(result.uavs_lost, std::vector<std::string>{"uav1"});
  EXPECT_GE(result.recovery_pings, 2u);
  EXPECT_EQ(result.recovery_demotions, 1u);
  EXPECT_EQ(result.recovery_rth_commands, 1u);
  EXPECT_EQ(result.recovery_replans, 1u);
  EXPECT_GT(result.waypoints_redistributed, 0u);

  // Latencies are measured from the crash time. Detection must land within
  // the staleness window plus one escalation tick. In a SESAME run the
  // ConSert dropped-out path can re-plan within one evaluation period —
  // before the heartbeat escalation even completes — so the re-plan bound
  // is the looser of the two responders.
  const double window = std::max(cfg.recovery.staleness_window_s,
                                 cfg.telemetry_staleness_window_s);
  EXPECT_GT(result.time_to_detect_loss_s, 0.0);
  EXPECT_LE(result.time_to_detect_loss_s, window + 2.0 * cfg.dt_s);
  EXPECT_GE(result.time_to_replan_s, 0.0);
  EXPECT_LE(result.time_to_replan_s,
            window + cfg.consert_period_s + 2.0 * cfg.dt_s);

  // The survivor absorbed the coverage; no safety invariant broke.
  EXPECT_TRUE(result.mission_complete_time_s.has_value());
  EXPECT_TRUE(result.invariant_violations.empty());
  EXPECT_EQ(events_for(sink.named("sesame.recovery.uav_lost"), "uav1"), 1);
  EXPECT_EQ(events_for(sink.named("sesame.recovery.rth_commanded"), "uav1"),
            1);
  ASSERT_EQ(sink.named("sesame.recovery.replan").size(), 1u);
}

TEST(ConfigIo, RoundTripsRecoveryAndFailureScheduleFields) {
  pf::RunnerConfig cfg;
  cfg.recovery_enabled = true;
  cfg.health_heartbeat_period_s = 2.5;
  cfg.recovery.staleness_window_s = 6.0;
  cfg.recovery.ping_timeout_s = 3.0;
  cfg.recovery.max_pings = 4;
  cfg.recovery.ping_backoff = 1.5;
  cfg.recovery.demote_grace_s = 7.0;
  cfg.recovery.rth_timeout_s = 25.0;
  cfg.recovery.min_soc_rtb = 0.2;
  cfg.invariants.min_soc_floor = 0.04;
  cfg.invariants.max_evidence_age_s = 12.0;
  sim::FailureSchedule schedule;
  sim::FailureEvent crash;
  crash.uav = "uav2";
  crash.mode = sim::FailureMode::kHardCrash;
  crash.time_s = 120.0;
  sim::FailureEvent blackout;
  blackout.uav = "uav1";
  blackout.mode = sim::FailureMode::kCommsBlackout;
  blackout.time_s = 90.0;
  blackout.duration_s = 30.0;
  sim::FailureEvent cell;
  cell.uav = "uav3";
  cell.mode = sim::FailureMode::kBatteryCellFault;
  cell.time_s = 60.0;
  cell.soc_after = 0.25;
  cell.temp_c = 80.0;
  schedule.events = {crash, blackout, cell};
  cfg.failure_schedule = schedule;

  const auto back = pf::config_from_json(
      sesame::eddi::ode::parse_json(pf::config_to_json(cfg).to_json()));
  EXPECT_TRUE(back.recovery_enabled);
  EXPECT_DOUBLE_EQ(back.health_heartbeat_period_s, 2.5);
  EXPECT_DOUBLE_EQ(back.recovery.staleness_window_s, 6.0);
  EXPECT_DOUBLE_EQ(back.recovery.ping_timeout_s, 3.0);
  EXPECT_EQ(back.recovery.max_pings, 4u);
  EXPECT_DOUBLE_EQ(back.recovery.ping_backoff, 1.5);
  EXPECT_DOUBLE_EQ(back.recovery.demote_grace_s, 7.0);
  EXPECT_DOUBLE_EQ(back.recovery.rth_timeout_s, 25.0);
  EXPECT_DOUBLE_EQ(back.recovery.min_soc_rtb, 0.2);
  EXPECT_DOUBLE_EQ(back.invariants.min_soc_floor, 0.04);
  EXPECT_DOUBLE_EQ(back.invariants.max_evidence_age_s, 12.0);
  ASSERT_TRUE(back.failure_schedule.has_value());
  ASSERT_EQ(back.failure_schedule->events.size(), 3u);
  const auto& e0 = back.failure_schedule->events[0];
  EXPECT_EQ(e0.uav, "uav2");
  EXPECT_EQ(e0.mode, sim::FailureMode::kHardCrash);
  EXPECT_DOUBLE_EQ(e0.time_s, 120.0);
  const auto& e1 = back.failure_schedule->events[1];
  EXPECT_EQ(e1.mode, sim::FailureMode::kCommsBlackout);
  EXPECT_DOUBLE_EQ(e1.duration_s, 30.0);
  const auto& e2 = back.failure_schedule->events[2];
  EXPECT_DOUBLE_EQ(e2.soc_after, 0.25);
  EXPECT_DOUBLE_EQ(e2.temp_c, 80.0);
  // Bad mode names are rejected, not silently defaulted.
  EXPECT_THROW(
      pf::config_from_json(sesame::eddi::ode::parse_json(
          R"({"failure_schedule": {"events": [{"uav": "u1",
              "mode": "gremlins", "time_s": 1.0}]}})")),
      std::invalid_argument);
}
