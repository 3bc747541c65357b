// Tests for the world simulator: battery discharge and fault injection,
// GPS noise and signal loss, UAV flight modes and navigation, camera geometry,
// and world/bus wiring.
#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string_view>

#include <gtest/gtest.h>

#include "sesame/mathx/rng.hpp"
#include "sesame/mathx/stats.hpp"
#include "sesame/sim/camera.hpp"
#include "sesame/sim/comm_link.hpp"
#include "sesame/sim/failure_schedule.hpp"
#include "sesame/sim/world.hpp"

namespace sim = sesame::sim;
namespace geo = sesame::geo;

namespace {

const geo::GeoPoint kOrigin{35.1856, 33.3823, 0.0};

sim::UavConfig test_uav(const std::string& name) {
  sim::UavConfig cfg;
  cfg.name = name;
  cfg.gps.noise_sigma_m = 0.0;  // deterministic navigation in unit tests
  return cfg;
}

}  // namespace

TEST(Battery, DischargesUnderLoad) {
  sim::Battery b;
  const double initial = b.soc();
  b.step(60.0, sim::BatteryLoad::kCruise);
  EXPECT_LT(b.soc(), initial);
  EXPECT_GT(b.soc(), 0.9);  // one minute should not drain much
}

TEST(Battery, IdleDrawIsSmall) {
  sim::Battery idle, cruise;
  idle.step(600.0, sim::BatteryLoad::kIdle);
  cruise.step(600.0, sim::BatteryLoad::kCruise);
  EXPECT_GT(idle.soc(), cruise.soc());
}

TEST(Battery, HeatsUpUnderLoadCoolsAtIdle) {
  sim::Battery b;
  for (int i = 0; i < 600; ++i) b.step(1.0, sim::BatteryLoad::kHover);
  EXPECT_GT(b.temperature_c(), 30.0);
  for (int i = 0; i < 1200; ++i) b.step(1.0, sim::BatteryLoad::kIdle);
  EXPECT_LT(b.temperature_c(), 27.0);
}

TEST(Battery, ThermalFaultCollapsesSoc) {
  sim::Battery b;
  b.step(100.0, sim::BatteryLoad::kCruise);
  b.inject_thermal_fault(0.40, 70.0);
  EXPECT_NEAR(b.soc(), 0.40, 1e-12);
  EXPECT_NEAR(b.temperature_c(), 70.0, 1e-12);
  EXPECT_TRUE(b.fault_active());
  EXPECT_THROW(b.inject_thermal_fault(1.5, 70.0), std::invalid_argument);
}

TEST(Battery, FaultDoesNotRaiseSoc) {
  sim::BatteryConfig cfg;
  cfg.initial_soc = 0.3;
  sim::Battery b(cfg);
  b.inject_thermal_fault(0.4, 70.0);
  EXPECT_NEAR(b.soc(), 0.3, 1e-12);  // min(current, fault level)
}

TEST(Battery, SwapRestoresFullCharge) {
  sim::Battery b;
  b.inject_thermal_fault(0.4, 70.0);
  b.swap();
  EXPECT_DOUBLE_EQ(b.soc(), 1.0);
  EXPECT_FALSE(b.fault_active());
}

TEST(Battery, ValidatesConfig) {
  sim::BatteryConfig cfg;
  cfg.capacity_wh = 0.0;
  EXPECT_THROW(sim::Battery{cfg}, std::invalid_argument);
  cfg.capacity_wh = 100.0;
  cfg.initial_soc = 1.5;
  EXPECT_THROW(sim::Battery{cfg}, std::invalid_argument);
}

TEST(Gps, HealthyFixNearTruth) {
  sesame::mathx::Rng rng(3);
  sim::GpsConfig cfg;
  cfg.noise_sigma_m = 0.4;
  sim::Gps gps(cfg, rng);
  for (int i = 0; i < 50; ++i) {
    const auto fix = gps.read(kOrigin, 0.1);
    ASSERT_TRUE(fix.has_value());
    EXPECT_LT(geo::haversine_m(fix->position, kOrigin), 3.0);
    EXPECT_EQ(fix->satellites, cfg.healthy_satellites);
  }
}

TEST(Gps, SignalLossAndDisable) {
  sesame::mathx::Rng rng(9);
  sim::Gps gps(sim::GpsConfig{}, rng);
  gps.set_signal_lost(true);
  EXPECT_FALSE(gps.read(kOrigin, 0.1).has_value());
  gps.set_signal_lost(false);
  gps.set_disabled(true);
  EXPECT_FALSE(gps.read(kOrigin, 0.1).has_value());
  gps.set_disabled(false);
  EXPECT_TRUE(gps.read(kOrigin, 0.1).has_value());
}

TEST(Uav, TakeoffReachesMissionAltitude) {
  sim::World world(kOrigin);
  world.add_uav(test_uav("u1"), kOrigin);
  auto& uav = world.uav(0);
  uav.command_takeoff();
  world.run(30, 1.0);
  EXPECT_NEAR(uav.true_position().up_m, uav.estimated_position().up_m, 0.1);
  EXPECT_GE(uav.true_position().up_m, 29.0);
  EXPECT_EQ(uav.mode(), sim::FlightMode::kHold);  // no waypoints queued
}

TEST(Uav, FliesWaypointsAndHolds) {
  sim::World world(kOrigin);
  world.add_uav(test_uav("u1"), kOrigin);
  auto& uav = world.uav(0);
  uav.add_waypoint({100.0, 0.0, 30.0});
  uav.add_waypoint({100.0, 100.0, 30.0});
  uav.command_takeoff();
  world.run(60, 1.0);
  EXPECT_EQ(uav.waypoints_remaining(), 0u);
  EXPECT_EQ(uav.mode(), sim::FlightMode::kHold);
  EXPECT_NEAR(uav.true_position().east_m, 100.0, 5.0);
  EXPECT_NEAR(uav.true_position().north_m, 100.0, 5.0);
}

TEST(Uav, ReturnToBaseLands) {
  sim::World world(kOrigin);
  world.add_uav(test_uav("u1"), kOrigin);
  auto& uav = world.uav(0);
  uav.add_waypoint({50.0, 0.0, 30.0});
  uav.command_takeoff();
  world.run(30, 1.0);
  uav.command_return_to_base();
  world.run(60, 1.0);
  EXPECT_EQ(uav.mode(), sim::FlightMode::kLanded);
  EXPECT_LT(geo::enu_ground_distance_m(uav.true_position(), {0.0, 0.0, 0.0}),
            5.0);
  EXPECT_FALSE(uav.airborne());
}

TEST(Uav, EmergencyLandDescendsInPlace) {
  sim::World world(kOrigin);
  world.add_uav(test_uav("u1"), kOrigin);
  auto& uav = world.uav(0);
  uav.add_waypoint({80.0, 0.0, 30.0});
  uav.command_takeoff();
  world.run(20, 1.0);
  const double east_before = uav.true_position().east_m;
  uav.command_emergency_land();
  world.run(40, 1.0);
  EXPECT_EQ(uav.mode(), sim::FlightMode::kLanded);
  EXPECT_NEAR(uav.true_position().east_m, east_before, 3.0);
  EXPECT_LE(uav.true_position().up_m, 0.1);
}

TEST(Uav, DeadReckoningDriftsWithWind) {
  sim::World world(kOrigin);
  world.add_uav(test_uav("u1"), kOrigin);
  world.wind().east_mps = 1.0;  // steady breeze the estimator cannot see
  auto& uav = world.uav(0);
  uav.add_waypoint({0.0, 200.0, 30.0});
  uav.command_takeoff();
  world.run(15, 1.0);
  uav.gps().set_signal_lost(true);
  world.run(30, 1.0);
  // 30 s of unobserved 1 m/s wind -> ~30 m estimation error.
  EXPECT_GT(uav.estimation_error_m(), 20.0);
}

TEST(Uav, CorrectEstimateRestoresAccuracy) {
  sim::World world(kOrigin);
  world.add_uav(test_uav("u1"), kOrigin);
  world.wind().east_mps = 1.0;
  auto& uav = world.uav(0);
  uav.add_waypoint({0.0, 200.0, 30.0});
  uav.command_takeoff();
  world.run(15, 1.0);
  uav.gps().set_signal_lost(true);
  world.run(30, 1.0);
  ASSERT_GT(uav.estimation_error_m(), 10.0);
  uav.correct_estimate(uav.true_geo());
  EXPECT_LT(uav.estimation_error_m(), 0.1);
}

TEST(Uav, BatteryDepletionForcesEmergencyLand) {
  sim::World world(kOrigin);
  auto cfg = test_uav("u1");
  cfg.battery.initial_soc = 0.002;  // nearly empty
  world.add_uav(cfg, kOrigin);
  auto& uav = world.uav(0);
  uav.add_waypoint({500.0, 0.0, 30.0});
  uav.command_takeoff();
  world.run(120, 1.0);
  EXPECT_TRUE(uav.mode() == sim::FlightMode::kEmergencyLand ||
              uav.mode() == sim::FlightMode::kLanded);
}

TEST(Uav, OdometerAccumulates) {
  sim::World world(kOrigin);
  world.add_uav(test_uav("u1"), kOrigin);
  auto& uav = world.uav(0);
  uav.add_waypoint({100.0, 0.0, 30.0});
  uav.command_takeoff();
  world.run(40, 1.0);
  EXPECT_GT(uav.odometer_m(), 100.0);  // climb + cruise
}

TEST(Camera, FootprintScalesWithAltitude) {
  sim::Camera cam;
  const auto low = cam.footprint({0.0, 0.0, 10.0});
  const auto high = cam.footprint({0.0, 0.0, 40.0});
  EXPECT_NEAR(high.half_width_m, 4.0 * low.half_width_m, 1e-9);
  EXPECT_GT(high.area_m2(), low.area_m2());
  const auto grounded = cam.footprint({0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(grounded.area_m2(), 0.0);
}

TEST(Camera, GsdGrowsWithAltitude) {
  sim::Camera cam;
  EXPECT_GT(cam.ground_sample_distance_m(60.0),
            cam.ground_sample_distance_m(20.0));
  EXPECT_DOUBLE_EQ(cam.ground_sample_distance_m(0.0), 0.0);
}

TEST(Camera, ValidatesConfig) {
  sim::CameraConfig cfg;
  cfg.hfov_deg = 0.0;
  EXPECT_THROW(sim::Camera{cfg}, std::invalid_argument);
  cfg.hfov_deg = 69.0;
  cfg.image_width_px = 0;
  EXPECT_THROW(sim::Camera{cfg}, std::invalid_argument);
}

TEST(World, RejectsDuplicateUavNames) {
  sim::World world(kOrigin);
  world.add_uav(test_uav("u1"), kOrigin);
  EXPECT_THROW(world.add_uav(test_uav("u1"), kOrigin), std::invalid_argument);
}

TEST(World, UavByName) {
  sim::World world(kOrigin);
  world.add_uav(test_uav("alpha"), kOrigin);
  world.add_uav(test_uav("beta"), kOrigin);
  EXPECT_EQ(world.uav_by_name("beta").name(), "beta");
  EXPECT_THROW(world.uav_by_name("gamma"), std::out_of_range);
}

TEST(World, PublishesTelemetryEachStep) {
  sim::World world(kOrigin);
  world.add_uav(test_uav("u1"), kOrigin);
  int count = 0;
  sim::Telemetry last;
  auto sub = world.bus().subscribe<sim::Telemetry>(
      sim::telemetry_topic("u1"),
      [&](const sesame::mw::MessageHeader&, const sim::Telemetry& t) {
        ++count;
        last = t;
      });
  world.run(5, 1.0);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(last.uav, "u1");
  EXPECT_DOUBLE_EQ(last.time_s, 5.0);
  EXPECT_TRUE(last.gps_fix);
}

TEST(World, PositionFixChannelIsTrusted) {
  // Publishing a falsified fix on the position_fix topic shifts the UAV's
  // estimate — the vulnerability the spoofing scenario uses.
  sim::World world(kOrigin);
  world.add_uav(test_uav("u1"), kOrigin);
  auto& uav = world.uav(0);
  uav.gps().set_signal_lost(true);  // otherwise the next GPS read overwrites
  const geo::GeoPoint fake = geo::destination(kOrigin, 90.0, 250.0);
  world.bus().publish(sim::position_fix_topic("u1"), fake, "attacker", 0.0);
  EXPECT_GT(uav.estimation_error_m(), 200.0);
}

TEST(World, PersonsBookkeeping) {
  sim::World world(kOrigin);
  world.add_person({10.0, 10.0, 0.0});
  world.add_person({20.0, 20.0, 0.0});
  EXPECT_EQ(world.persons().size(), 2u);
  EXPECT_EQ(world.persons_detected(), 0u);
  world.persons()[1].detected = true;
  EXPECT_EQ(world.persons_detected(), 1u);
}

TEST(World, ClockAdvances) {
  sim::World world(kOrigin);
  world.run(10, 0.5);
  EXPECT_NEAR(world.time_s(), 5.0, 1e-12);
  EXPECT_THROW(world.step(0.0), std::invalid_argument);
}

TEST(World, DeterministicAcrossSeeds) {
  auto run_once = [] {
    sim::World world(kOrigin, 99);
    auto cfg = test_uav("u1");
    cfg.gps.noise_sigma_m = 0.5;
    world.add_uav(cfg, kOrigin);
    auto& uav = world.uav(0);
    uav.add_waypoint({120.0, 80.0, 30.0});
    uav.command_takeoff();
    world.run(50, 1.0);
    return uav.true_position();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.east_m, b.east_m);
  EXPECT_DOUBLE_EQ(a.north_m, b.north_m);
}

TEST(Uav, ToleratedMotorFailureDegradesSpeed) {
  sim::World world(kOrigin);
  world.add_uav(test_uav("u1"), kOrigin);
  auto& uav = world.uav(0);
  EXPECT_DOUBLE_EQ(uav.effective_cruise_speed(), 8.0);
  uav.fail_motor();
  EXPECT_EQ(uav.motors_failed(), 1u);
  EXPECT_NEAR(uav.effective_cruise_speed(), 8.0 * 0.7, 1e-12);
  EXPECT_NE(uav.mode(), sim::FlightMode::kEmergencyLand);
}

TEST(Uav, ExceedingMotorToleranceForcesEmergencyLanding) {
  sim::World world(kOrigin);
  world.add_uav(test_uav("u1"), kOrigin);
  auto& uav = world.uav(0);
  uav.add_waypoint({100.0, 0.0, 30.0});
  uav.command_takeoff();
  world.run(20, 1.0);
  ASSERT_TRUE(uav.airborne());
  uav.fail_motor();  // tolerated (hexa default: 1)
  EXPECT_EQ(uav.mode(), sim::FlightMode::kMission);
  uav.fail_motor();  // loss of control
  EXPECT_EQ(uav.mode(), sim::FlightMode::kEmergencyLand);
  world.run(40, 1.0);
  EXPECT_EQ(uav.mode(), sim::FlightMode::kLanded);
}

TEST(Uav, DegradedVehicleStillReachesWaypoint) {
  sim::World world(kOrigin);
  world.add_uav(test_uav("u1"), kOrigin);
  auto& uav = world.uav(0);
  uav.fail_motor();
  uav.add_waypoint({80.0, 0.0, 30.0});
  uav.command_takeoff();
  world.run(60, 1.0);
  EXPECT_EQ(uav.waypoints_remaining(), 0u);
}

TEST(CommLink, ValidatesConfig) {
  sim::CommLinkConfig cfg;
  cfg.nominal_range_m = 0.0;
  EXPECT_THROW(sim::CommLink{cfg}, std::invalid_argument);
  cfg = {};
  cfg.max_range_m = cfg.nominal_range_m;  // max must exceed nominal
  EXPECT_THROW(sim::CommLink{cfg}, std::invalid_argument);
  cfg = {};
  cfg.usable_threshold = 1.0;
  EXPECT_THROW(sim::CommLink{cfg}, std::invalid_argument);
}

TEST(CommLink, QualityProfile) {
  sim::CommLink link;
  EXPECT_DOUBLE_EQ(link.quality(0.0), 1.0);
  EXPECT_DOUBLE_EQ(link.quality(500.0), 1.0);   // nominal edge
  EXPECT_DOUBLE_EQ(link.quality(1500.0), 0.0);  // max edge
  EXPECT_DOUBLE_EQ(link.quality(5000.0), 0.0);
  // Monotone non-increasing between the edges.
  double prev = 1.0;
  for (double d = 500.0; d <= 1500.0; d += 100.0) {
    const double q = link.quality(d);
    EXPECT_LE(q, prev + 1e-12);
    prev = q;
  }
  EXPECT_THROW(link.quality(-1.0), std::invalid_argument);
}

TEST(CommLink, UsableRangeConsistent) {
  sim::CommLink link;
  const double r = link.usable_range_m();
  EXPECT_GT(r, link.config().nominal_range_m);
  EXPECT_LT(r, link.config().max_range_m);
  EXPECT_TRUE(link.usable(r - 1.0));
  EXPECT_FALSE(link.usable(r + 1.0));
}

TEST(CommLink, FadingJitterBoundedAndCentred) {
  sim::CommLinkConfig cfg;
  cfg.fading_sigma = 0.1;
  sim::CommLink link(cfg);
  sesame::mathx::Rng rng(77);
  std::vector<double> qs;
  for (int i = 0; i < 2000; ++i) {
    const double q = link.sample_quality(800.0, rng);
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 1.0);
    qs.push_back(q);
  }
  EXPECT_NEAR(sesame::mathx::mean(qs), link.quality(800.0), 0.01);
}

TEST(Uav, CommandsIgnoredInWrongStates) {
  sim::World world(kOrigin);
  world.add_uav(test_uav("u1"), kOrigin);
  auto& uav = world.uav(0);
  // Grounded vehicle ignores airborne-only commands.
  uav.command_hold();
  EXPECT_EQ(uav.mode(), sim::FlightMode::kIdle);
  uav.command_return_to_base();
  EXPECT_EQ(uav.mode(), sim::FlightMode::kIdle);
  uav.command_emergency_land();
  EXPECT_EQ(uav.mode(), sim::FlightMode::kIdle);
  // Takeoff works from idle, is idempotent while airborne.
  uav.command_takeoff();
  EXPECT_EQ(uav.mode(), sim::FlightMode::kTakeoff);
  uav.command_takeoff();
  EXPECT_EQ(uav.mode(), sim::FlightMode::kTakeoff);
}

TEST(Uav, RelaunchAfterLanding) {
  sim::World world(kOrigin);
  world.add_uav(test_uav("u1"), kOrigin);
  auto& uav = world.uav(0);
  uav.command_takeoff();
  world.run(15, 1.0);
  uav.command_return_to_base();
  world.run(40, 1.0);
  ASSERT_EQ(uav.mode(), sim::FlightMode::kLanded);
  uav.command_takeoff();  // a landed vehicle can relaunch
  world.run(20, 1.0);
  EXPECT_TRUE(uav.airborne() || uav.mode() == sim::FlightMode::kHold);
}

TEST(Uav, WaypointTransferValidation) {
  sim::World world(kOrigin);
  world.add_uav(test_uav("u1"), kOrigin);
  auto& uav = world.uav(0);
  EXPECT_THROW(uav.transfer_waypoints_to(uav), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fault injection at world level: delayed-message drain and the lossy-link
// radio model.

#include "sesame/mw/fault_plan.hpp"

TEST(World, StepDrainsDelayedBusMessages) {
  sim::World world(kOrigin, 3);
  world.add_uav(test_uav("u1"), kOrigin);

  sesame::mw::FaultPlan plan;
  sesame::mw::FaultRule rule;
  rule.topic_suffix = "/telemetry";
  rule.delay_probability = 1.0;
  rule.delay_steps = 2;
  plan.rules.push_back(rule);
  sesame::mw::FaultInjector injector(plan);
  auto policy = world.bus().add_delivery_policy(&injector);

  std::vector<double> rx_times;
  auto sub = world.bus().subscribe<sim::Telemetry>(
      sim::telemetry_topic("u1"),
      [&](const sesame::mw::MessageHeader&, const sim::Telemetry& t) {
        rx_times.push_back(t.time_s);
      });

  world.step(1.0);  // publishes t=1 telemetry, delayed 2 steps
  EXPECT_TRUE(rx_times.empty());
  EXPECT_EQ(world.bus().delayed_pending(), 1u);
  world.step(1.0);  // drain #1: not due yet; publishes t=2 (delayed too)
  EXPECT_TRUE(rx_times.empty());
  world.step(1.0);  // drain #2: t=1 telemetry matures
  ASSERT_EQ(rx_times.size(), 1u);
  EXPECT_DOUBLE_EQ(rx_times[0], 1.0);
  world.step(1.0);
  ASSERT_EQ(rx_times.size(), 2u);
  EXPECT_DOUBLE_EQ(rx_times[1], 2.0);
}

TEST(World, LossyLinksDropTelemetryWithDistance) {
  // Fig. 6 geometry writ small: three parked UAVs at increasing range from
  // the GCS. Per the log-linear CommLink model the telemetry drop rate
  // must rise with distance: ~0% inside nominal range, ~63% at 1000 m
  // (quality 0.369), 100% past max range.
  sim::World world(kOrigin, 11);
  const geo::LocalFrame& frame = world.frame();
  world.add_uav(test_uav("near"), frame.to_geo({100.0, 0.0, 0.0}));
  world.add_uav(test_uav("mid"), frame.to_geo({1000.0, 0.0, 0.0}));
  world.add_uav(test_uav("far"), frame.to_geo({2000.0, 0.0, 0.0}));

  sim::LossyLinkConfig llc;
  llc.link.fading_sigma = 0.0;  // pure distance effect
  llc.gcs_enu = {0.0, 0.0, 0.0};
  llc.seed = 99;
  world.enable_lossy_links(llc);
  EXPECT_TRUE(world.lossy_links_enabled());

  std::map<std::string, int> delivered;
  std::vector<sesame::mw::Subscription> subs;
  for (const char* name : {"near", "mid", "far"}) {
    subs.push_back(world.bus().subscribe<sim::Telemetry>(
        sim::telemetry_topic(name),
        [&delivered, name](const sesame::mw::MessageHeader&,
                           const sim::Telemetry&) { ++delivered[name]; }));
  }

  const int steps = 300;
  world.run(steps, 1.0);
  EXPECT_EQ(delivered["near"], steps);          // inside nominal range
  EXPECT_GT(delivered["mid"], 70);              // ~110 of 300 expected
  EXPECT_LT(delivered["mid"], 150);
  EXPECT_EQ(delivered["far"], 0);               // beyond max range
  EXPECT_GT(delivered["near"], delivered["mid"]);
  EXPECT_GT(delivered["mid"], delivered["far"]);
}

TEST(World, LossyLinksDoNotPerturbTrajectories) {
  // The link model's RNG is private: a clean run and a lossy run with the
  // same world seed must fly byte-identical trajectories.
  const auto fly = [](bool lossy) {
    sim::World world(kOrigin, 21);
    sim::UavConfig cfg;
    cfg.name = "u1";
    world.add_uav(cfg, kOrigin);  // default GPS noise: consumes world RNG
    if (lossy) {
      sim::LossyLinkConfig llc;
      llc.gcs_enu = {0.0, 0.0, 0.0};
      world.enable_lossy_links(llc);
    }
    auto& uav = world.uav_by_name("u1");
    uav.add_waypoint({400.0, 300.0, 30.0});
    uav.command_takeoff();
    std::vector<geo::EnuPoint> track;
    for (int i = 0; i < 60; ++i) {
      world.step(1.0);
      track.push_back(world.uav_by_name("u1").true_position());
    }
    return track;
  };
  const auto clean = fly(false);
  const auto lossy = fly(true);
  ASSERT_EQ(clean.size(), lossy.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_DOUBLE_EQ(clean[i].east_m, lossy[i].east_m);
    EXPECT_DOUBLE_EQ(clean[i].north_m, lossy[i].north_m);
    EXPECT_DOUBLE_EQ(clean[i].up_m, lossy[i].up_m);
  }
}

TEST(SpatialGrid, QueryReturnsAscendingCandidatesFromOverlappingCells) {
  sim::SpatialGrid grid(10.0);
  const std::vector<geo::EnuPoint> pts{{5.0, 5.0, 0.0},
                                       {-3.0, -7.0, 0.0},
                                       {25.0, 5.0, 0.0},
                                       {5.0, 6.0, 10.0},
                                       {95.0, 95.0, 0.0}};
  grid.rebuild(pts.size(),
               [&pts](std::size_t i) -> const geo::EnuPoint& { return pts[i]; });
  EXPECT_EQ(grid.indexed_points(), pts.size());

  std::vector<std::uint32_t> out;
  grid.query_rect(0.0, 9.0, 0.0, 9.0, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 3}));

  out.clear();
  grid.query_rect(-10.0, 30.0, -10.0, 10.0, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1, 2, 3}));  // sorted

  out.clear();
  grid.query_rect(200.0, 300.0, 200.0, 300.0, out);
  EXPECT_TRUE(out.empty());

  // Rebuild drops stale points and reuses buckets.
  grid.rebuild(1, [&pts](std::size_t) -> const geo::EnuPoint& { return pts[4]; });
  out.clear();
  grid.query_rect(-10.0, 30.0, -10.0, 10.0, out);
  EXPECT_TRUE(out.empty());

  EXPECT_THROW(sim::SpatialGrid(0.0), std::invalid_argument);
}

TEST(World, HasNeighborWithinMatchesDistancesAndAirborneFilter) {
  sim::World world(kOrigin, 3);
  const geo::LocalFrame& frame = world.frame();
  world.add_uav(test_uav("a"), frame.to_geo({0.0, 0.0, 0.0}));
  world.add_uav(test_uav("b"), frame.to_geo({120.0, 0.0, 0.0}));
  world.add_uav(test_uav("c"), frame.to_geo({5000.0, 0.0, 0.0}));

  EXPECT_TRUE(world.has_neighbor_within(0, 250.0));
  EXPECT_TRUE(world.has_neighbor_within(1, 250.0));
  EXPECT_FALSE(world.has_neighbor_within(2, 250.0));
  EXPECT_FALSE(world.has_neighbor_within(0, 100.0));  // b is 120 m away
  // Everyone is parked: the airborne-only flavour finds nobody.
  EXPECT_FALSE(world.has_neighbor_within(0, 250.0, /*airborne_only=*/true));

  world.uav_by_name("b").command_takeoff();
  world.step(1.0);  // b lifts off; grid refreshes lazily after the step
  EXPECT_TRUE(world.has_neighbor_within(0, 250.0, /*airborne_only=*/true));

  EXPECT_FALSE(world.has_neighbor_within(0, 0.0));
  EXPECT_THROW(world.has_neighbor_within(99, 250.0), std::out_of_range);
}

TEST(World, PerVehicleLinkStreamsSurviveFleetLoss) {
  // Link-quality draws ride per-vehicle RNG streams derived from the
  // lossy-link seed, so one vehicle's mid-run loss (its traffic — and
  // therefore its draws — stop) must not perturb any survivor's drop
  // pattern. Under a shared stream the crash would shift every later draw,
  // silently changing survivors' delivery sequences.
  const auto fly = [](bool crash_u3) {
    sim::World world(kOrigin, 33);
    const geo::LocalFrame& frame = world.frame();
    double north = 0.0;
    for (const char* name : {"u1", "u2", "u3", "u4"}) {
      // Parked ~1000 m from the GCS: drop probability ~0.63, so the
      // delivery sequences are non-trivial mixtures.
      world.add_uav(test_uav(name), frame.to_geo({1000.0, north, 0.0}));
      north += 10.0;
    }
    sim::LossyLinkConfig llc;
    llc.link.fading_sigma = 0.0;  // quality purely from geometry
    llc.gcs_enu = {0.0, 0.0, 0.0};
    llc.seed = 5;
    world.enable_lossy_links(llc);

    std::map<std::string, std::vector<double>> rx;
    std::vector<sesame::mw::Subscription> subs;
    for (const char* name : {"u1", "u2", "u3", "u4"}) {
      subs.push_back(world.bus().subscribe<sim::Telemetry>(
          sim::telemetry_topic(name),
          [&rx, name](const sesame::mw::MessageHeader&,
                      const sim::Telemetry& t) { rx[name].push_back(t.time_s); }));
    }
    for (int i = 0; i < 60; ++i) {
      if (crash_u3 && i == 30) world.uav_by_name("u3").force_crash();
      world.step(1.0);
    }
    return rx;
  };

  auto intact = fly(false);
  auto after_loss = fly(true);
  for (const char* name : {"u1", "u2", "u4"}) {
    EXPECT_EQ(intact[name], after_loss[name]) << name;
  }
  // The wreck itself stops delivering at the crash.
  EXPECT_LT(after_loss["u3"].size(), intact["u3"].size());
}

TEST(World, LossyLinkQualityRecordedPerVehicle) {
  // The link gate mirrors each vehicle's last sampled quality into the
  // fleet arrays: near the GCS ~1, around 1 km ~0.37, past max range ~0.
  sim::World world(kOrigin, 11);
  const geo::LocalFrame& frame = world.frame();
  world.add_uav(test_uav("near"), frame.to_geo({100.0, 0.0, 0.0}));
  world.add_uav(test_uav("far"), frame.to_geo({1000.0, 0.0, 0.0}));
  sim::LossyLinkConfig llc;
  llc.link.fading_sigma = 0.0;
  llc.gcs_enu = {0.0, 0.0, 0.0};
  world.enable_lossy_links(llc);
  world.run(3, 1.0);
  ASSERT_EQ(world.fleet().link_quality.size(), 2u);
  EXPECT_GT(world.fleet().link_quality[0], 0.9);
  EXPECT_LT(world.fleet().link_quality[1], 0.6);
  EXPECT_GT(world.fleet().link_quality[0], world.fleet().link_quality[1]);
}

TEST(World, LossyLinksEnableTwiceThrows) {
  sim::World world(kOrigin);
  world.enable_lossy_links({});
  EXPECT_THROW(world.enable_lossy_links({}), std::logic_error);
}

// A world reused for a second scenario must not replay the first run's
// fault-delayed traffic into freshly wired subscribers.
// ---------------------------------------------------------------------------
// Vehicle-level failure schedules (docs/ROBUSTNESS.md)

TEST(FailureSchedule, ChaosIsSeedDeterministic) {
  const std::vector<std::string> fleet{"u1", "u2", "u3"};
  const auto a = sim::FailureSchedule::chaos(42, fleet);
  const auto b = sim::FailureSchedule::chaos(42, fleet);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].uav, b.events[i].uav);
    EXPECT_EQ(a.events[i].mode, b.events[i].mode);
    EXPECT_DOUBLE_EQ(a.events[i].time_s, b.events[i].time_s);
    EXPECT_DOUBLE_EQ(a.events[i].duration_s, b.events[i].duration_s);
  }
}

TEST(FailureSchedule, ChaosRespectsProfileBounds) {
  sim::ChaosProfile profile;
  profile.max_events_per_uav = 3;
  profile.max_hard_crashes = 1;
  const std::vector<std::string> fleet{"u1", "u2", "u3", "u4"};
  // Many seeds: the bounds must hold for every draw, not just a lucky one.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto s = sim::FailureSchedule::chaos(seed, fleet, profile);
    std::size_t crashes = 0;
    std::map<std::string, std::size_t> per_uav;
    double prev_time = -1.0;
    for (const auto& e : s.events) {
      EXPECT_GE(e.time_s, profile.earliest_time_s);
      EXPECT_LE(e.time_s, profile.latest_time_s);
      EXPECT_GE(e.duration_s, profile.min_duration_s);
      EXPECT_LE(e.duration_s, profile.max_duration_s);
      EXPECT_GE(e.time_s, prev_time);  // sorted by time
      prev_time = e.time_s;
      ++per_uav[e.uav];
      crashes += (e.mode == sim::FailureMode::kHardCrash);
    }
    EXPECT_LE(crashes, profile.max_hard_crashes);
    for (const auto& [uav, n] : per_uav) {
      EXPECT_LE(n, profile.max_events_per_uav) << uav;
    }
  }
}

TEST(FailureSchedule, ModeNamesRoundTrip) {
  for (const auto m :
       {sim::FailureMode::kMotorDegradation, sim::FailureMode::kSensorDropout,
        sim::FailureMode::kBatteryCellFault, sim::FailureMode::kCommsBlackout,
        sim::FailureMode::kHardCrash}) {
    EXPECT_EQ(sim::failure_mode_from_name(sim::failure_mode_name(m)), m);
  }
  EXPECT_THROW(sim::failure_mode_from_name("gremlins"), std::invalid_argument);
}

TEST(FailureInjector, MotorDegradationFailsOneMotor) {
  sim::World world(kOrigin, 7);
  world.add_uav(test_uav("u1"), kOrigin);
  sim::FailureSchedule schedule;
  schedule.events.push_back({"u1", sim::FailureMode::kMotorDegradation, 2.0,
                             0.0, 0.35, 70.0});
  sim::FailureInjector injector(world, schedule);
  world.uav_by_name("u1").command_takeoff();
  world.step(1.0);
  injector.step(world.time_s());
  EXPECT_EQ(world.uav_by_name("u1").motors_failed(), 0u);
  world.step(1.0);
  injector.step(world.time_s());
  EXPECT_EQ(world.uav_by_name("u1").motors_failed(), 1u);
  EXPECT_EQ(injector.events_applied(), 1u);
}

TEST(FailureInjector, SensorDropoutBlindsThenRestores) {
  sim::World world(kOrigin, 7);
  world.add_uav(test_uav("u1"), kOrigin);
  sim::FailureSchedule schedule;
  schedule.events.push_back(
      {"u1", sim::FailureMode::kSensorDropout, 1.0, 3.0, 0.35, 70.0});
  sim::FailureInjector injector(world, schedule);
  for (int i = 0; i < 2; ++i) {
    world.step(1.0);
    injector.step(world.time_s());
  }
  EXPECT_FALSE(world.uav_by_name("u1").vision_sensor_healthy());
  for (int i = 0; i < 4; ++i) {
    world.step(1.0);
    injector.step(world.time_s());
  }
  EXPECT_TRUE(world.uav_by_name("u1").vision_sensor_healthy());
}

TEST(FailureInjector, BatteryCellFaultOnlyCollapsesDownward) {
  sim::World world(kOrigin, 7);
  world.add_uav(test_uav("u1"), kOrigin);
  sim::FailureSchedule schedule;
  schedule.events.push_back(
      {"u1", sim::FailureMode::kBatteryCellFault, 0.5, 0.0, 0.30, 72.0});
  sim::FailureInjector injector(world, schedule);
  world.step(1.0);
  injector.step(world.time_s());
  auto& battery = world.uav_by_name("u1").battery();
  EXPECT_NEAR(battery.soc(), 0.30, 1e-9);
  EXPECT_TRUE(battery.fault_active());
}

TEST(FailureInjector, CommsBlackoutSilencesAndRestoresTheVehicle) {
  sim::World world(kOrigin, 7);
  world.add_uav(test_uav("u1"), kOrigin);
  world.add_uav(test_uav("u2"), kOrigin);
  sim::FailureSchedule schedule;
  schedule.events.push_back(
      {"u1", sim::FailureMode::kCommsBlackout, 2.0, 3.0, 0.35, 70.0});
  sim::FailureInjector injector(world, schedule);

  std::map<std::string, int> telemetry;
  auto s1 = world.bus().subscribe<sim::Telemetry>(
      sim::telemetry_topic("u1"),
      [&](const sesame::mw::MessageHeader&, const sim::Telemetry&) {
        ++telemetry["u1"];
      });
  auto s2 = world.bus().subscribe<sim::Telemetry>(
      sim::telemetry_topic("u2"),
      [&](const sesame::mw::MessageHeader&, const sim::Telemetry&) {
        ++telemetry["u2"];
      });

  // 10 steps; the blackout covers the window (2, 5].
  for (int i = 0; i < 10; ++i) {
    world.step(1.0);
    injector.step(world.time_s());
  }
  EXPECT_EQ(telemetry["u2"], 10);          // bystander unaffected
  EXPECT_EQ(telemetry["u1"], 10 - 3);      // silent while blacked out
  EXPECT_FALSE(injector.comms_blacked_out(0));
}

TEST(FailureInjector, BlackoutDropsFollowTheNameRule) {
  // The gate answers from interned ids; its decisions must equal the
  // string rule: drop when the source is a blacked-out vehicle or the
  // topic is "uav/<that vehicle>/...". Probed here with prefix-sharing
  // names, overlapping blackouts ending at different times (one vehicle
  // blacked out twice at once) and topics first interned mid-blackout.
  sim::World world(kOrigin, 7);
  const std::vector<std::string> names{"uav1", "uav10", "uav2"};
  for (const auto& n : names) world.add_uav(test_uav(n), kOrigin);
  sim::FailureSchedule schedule;
  schedule.events.push_back(
      {"uav1", sim::FailureMode::kCommsBlackout, 2.0, 8.0, 0.35, 70.0});
  schedule.events.push_back(
      {"uav10", sim::FailureMode::kCommsBlackout, 4.0, 3.0, 0.35, 70.0});
  schedule.events.push_back(
      {"uav1", sim::FailureMode::kCommsBlackout, 5.0, 2.0, 0.35, 70.0});
  schedule.events.push_back(
      {"uav2", sim::FailureMode::kCommsBlackout, 12.0, 1.0, 0.35, 70.0});
  sim::FailureInjector injector(world, schedule);

  const auto string_rule = [&](std::string_view source,
                               std::string_view topic) {
    for (std::size_t k = 0; k < names.size(); ++k) {
      if (!injector.comms_blacked_out(k)) continue;
      const std::string& n = names[k];
      if (source == n) return true;
      if (topic.starts_with("uav/") && topic.substr(4).starts_with(n + "/")) {
        return true;
      }
    }
    return false;
  };
  const std::vector<std::string> sources{"uav1", "uav10", "uav2", "gcs",
                                          "uav1/", "uav100"};
  std::vector<std::string> topics{"uav/uav1/probe", "uav/uav10/probe",
                                  "uav/uav2/probe", "uav/uav1",
                                  "uav/uav1/",      "uav/uav100/probe",
                                  "fleet/probe",    "uav1/probe"};
  std::set<std::string> active_sets_seen;
  std::size_t drops = 0;
  for (int step = 0; step < 16; ++step) {
    world.step(1.0);
    injector.step(world.time_s());
    std::string active;
    for (std::size_t k = 0; k < names.size(); ++k) {
      if (injector.comms_blacked_out(k)) active += names[k] + " ";
    }
    active_sets_seen.insert(active);
    // A fresh topic per vehicle every step: interned while blackouts run.
    for (const auto& n : names) {
      topics.push_back("uav/" + n + "/late" + std::to_string(step));
    }
    for (const auto& source : sources) {
      for (const auto& topic : topics) {
        const std::uint64_t before = world.bus().faults_dropped();
        world.bus().publish(topic, step, source, world.time_s());
        const bool dropped = world.bus().faults_dropped() != before;
        drops += dropped;
        ASSERT_EQ(dropped, string_rule(source, topic))
            << "t=" << world.time_s() << " active [" << active << "] source "
            << source << " topic " << topic;
      }
    }
  }
  EXPECT_GT(drops, 0u);
  // Every phase of the timetable was probed.
  EXPECT_TRUE(active_sets_seen.count(""));
  EXPECT_TRUE(active_sets_seen.count("uav1 "));
  EXPECT_TRUE(active_sets_seen.count("uav1 uav10 "));
  EXPECT_TRUE(active_sets_seen.count("uav2 "));
}

TEST(FailureInjector, IndexedGateMatchesNameRuleOnSeededSchedules) {
  // The gate resolves each interned id to the vehicles it names once and
  // then reads per-vehicle blackout counts. Checked against the string
  // rule over seeded timetables with prefix-sharing names, a name holding
  // '/' (its topics name two vehicles), overlapping blackouts of one
  // vehicle, a blackout ending on the tick another begins, a blackout
  // that never ends, and a vehicle added after the injector.
  constexpr int kSteps = 40;
  std::vector<std::string> names{"uav1", "uav10", "uav100", "uav1/x"};
  for (int k = 2; k <= 9; ++k) names.push_back("uav" + std::to_string(k));
  for (int k = 20; k <= 31; ++k) names.push_back("uav" + std::to_string(k));
  ASSERT_EQ(names.size(), 24u);
  std::size_t drops = 0;
  std::size_t passes = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sesame::mathx::Rng rng(seed);
    sim::World world(kOrigin, seed);
    for (const auto& n : names) world.add_uav(test_uav(n), kOrigin);
    sim::FailureSchedule schedule;
    const auto blackout = [&](const std::string& uav, int at, int duration) {
      schedule.events.push_back({uav, sim::FailureMode::kCommsBlackout,
                                 static_cast<double>(at),
                                 static_cast<double>(duration), 0.35, 70.0});
    };
    for (const auto& n : names) {
      const auto count = rng.uniform_index(3);
      for (std::uint64_t e = 0; e < count; ++e) {
        blackout(n, 1 + static_cast<int>(rng.uniform_index(kSteps - 5)),
                 1 + static_cast<int>(rng.uniform_index(10)));
      }
    }
    blackout("uav1", 5, 10);    // [5, 15) ...
    blackout("uav1", 8, 3);     // ... overlapped by [8, 11)
    blackout("uav1/x", 10, 4);  // [10, 14) ends on the tick ...
    blackout("uav1/x", 14, 5);  // ... [14, 19) begins
    blackout("uav9", 30, 0);    // never ends
    sim::FailureInjector injector(world, schedule);
    std::vector<std::string> fleet = names;
    fleet.push_back("uav10/late");  // its topics also name uav10
    world.add_uav(test_uav(fleet.back()), kOrigin);

    // A vehicle is out at integer time t when a blackout of it started
    // at or before t and has not run its duration.
    const auto scheduled_out = [&](const std::string& uav, double t) {
      return std::any_of(
          schedule.events.begin(), schedule.events.end(), [&](const auto& e) {
            return e.uav == uav && e.time_s <= t &&
                   (e.duration_s <= 0.0 || t < e.time_s + e.duration_s);
          });
    };
    std::vector<std::string> sources = fleet;
    for (const char* s : {"gcs", "attacker", "uav1/", ""}) sources.push_back(s);
    std::vector<std::string> topics{"uav/uav1", "uav/uav1/", "uav//probe",
                                    "fleet/probe", "gcs/uplink"};
    for (const auto& n : fleet) topics.push_back("uav/" + n + "/probe");
    for (int step = 1; step <= kSteps; ++step) {
      world.step(1.0);
      injector.step(world.time_s());
      ASSERT_EQ(world.time_s(), static_cast<double>(step));
      std::vector<std::string> out;
      for (std::size_t k = 0; k < fleet.size(); ++k) {
        const bool expected = scheduled_out(fleet[k], world.time_s());
        ASSERT_EQ(injector.comms_blacked_out(k), expected)
            << "seed " << seed << " t=" << step << " vehicle " << fleet[k];
        if (expected) out.push_back(fleet[k]);
      }
      // A topic first interned while blackouts run.
      topics.push_back("uav/" + fleet[step % fleet.size()] + "/late" +
                       std::to_string(step));
      for (const auto& source : sources) {
        for (const auto& topic : topics) {
          const bool rule = std::any_of(
              out.begin(), out.end(), [&](const std::string& n) {
                return source == n || (topic.starts_with("uav/") &&
                                       topic.substr(4).starts_with(n + "/"));
              });
          const std::uint64_t before = world.bus().faults_dropped();
          world.bus().publish(topic, step, source, world.time_s());
          const bool dropped = world.bus().faults_dropped() != before;
          ASSERT_EQ(dropped, rule) << "seed " << seed << " t=" << step
                                   << " source '" << source << "' topic "
                                   << topic;
          ++(dropped ? drops : passes);
        }
      }
    }
  }
  EXPECT_GT(drops, 0u);
  EXPECT_GT(passes, drops);
}

TEST(FailureInjector, HardCrashIsTerminal) {
  sim::World world(kOrigin, 7);
  world.add_uav(test_uav("u1"), kOrigin);
  sim::FailureSchedule schedule;
  schedule.events.push_back(
      {"u1", sim::FailureMode::kHardCrash, 3.0, 0.0, 0.35, 70.0});
  sim::FailureInjector injector(world, schedule);

  int telemetry = 0;
  auto sub = world.bus().subscribe<sim::Telemetry>(
      sim::telemetry_topic("u1"),
      [&](const sesame::mw::MessageHeader&, const sim::Telemetry&) {
        ++telemetry;
      });
  world.uav_by_name("u1").command_takeoff();
  for (int i = 0; i < 10; ++i) {
    world.step(1.0);
    injector.step(world.time_s());
  }
  auto& uav = world.uav_by_name("u1");
  EXPECT_EQ(uav.mode(), sim::FlightMode::kCrashed);
  EXPECT_FALSE(uav.airborne());
  EXPECT_DOUBLE_EQ(uav.true_position().up_m, 0.0);
  EXPECT_EQ(telemetry, 3);  // radio died with the airframe

  // A wreck ignores every command and never flies again.
  uav.command_takeoff();
  uav.command_resume_mission();
  uav.command_return_to_base();
  world.step(1.0);
  EXPECT_EQ(uav.mode(), sim::FlightMode::kCrashed);
}

TEST(FailureInjector, RejectsUnknownVehiclesAndNegativeTimes) {
  sim::World world(kOrigin, 7);
  world.add_uav(test_uav("u1"), kOrigin);
  sim::FailureSchedule unknown;
  unknown.events.push_back(
      {"ghost", sim::FailureMode::kHardCrash, 1.0, 0.0, 0.35, 70.0});
  EXPECT_THROW(sim::FailureInjector(world, unknown), std::out_of_range);
  sim::FailureSchedule negative;
  negative.events.push_back(
      {"u1", sim::FailureMode::kHardCrash, -1.0, 0.0, 0.35, 70.0});
  EXPECT_THROW(sim::FailureInjector(world, negative), std::invalid_argument);
}

TEST(World, HealthHeartbeatsPublishAtPeriod) {
  sim::World world(kOrigin, 7);
  world.add_uav(test_uav("u1"), kOrigin);
  world.enable_health_heartbeats(2.0);
  EXPECT_TRUE(world.health_heartbeats_enabled());
  EXPECT_THROW(world.enable_health_heartbeats(0.0), std::invalid_argument);

  std::vector<sim::HealthHeartbeat> beats;
  auto sub = world.bus().subscribe<sim::HealthHeartbeat>(
      sim::health_topic("u1"),
      [&](const sesame::mw::MessageHeader&, const sim::HealthHeartbeat& hb) {
        beats.push_back(hb);
      });
  world.run(10, 1.0);
  ASSERT_EQ(beats.size(), 5u);  // t = 2, 4, 6, 8, 10
  EXPECT_EQ(beats.front().uav, "u1");
  EXPECT_DOUBLE_EQ(beats.front().time_s, 2.0);
  EXPECT_TRUE(beats.front().vision_sensor_healthy);
}

TEST(World, PingAnswersWithImmediateTelemetry) {
  sim::World world(kOrigin, 7);
  world.add_uav(test_uav("u1"), kOrigin);
  int telemetry = 0;
  auto sub = world.bus().subscribe<sim::Telemetry>(
      sim::telemetry_topic("u1"),
      [&](const sesame::mw::MessageHeader&, const sim::Telemetry&) {
        ++telemetry;
      });
  world.bus().publish(sim::ping_topic("u1"), 0.0, "gcs", 0.0);
  EXPECT_EQ(telemetry, 1);  // pong, without waiting for the next step

  // A crashed vehicle never answers.
  world.crash_uav(0);
  world.bus().publish(sim::ping_topic("u1"), 1.0, "gcs", 1.0);
  EXPECT_EQ(telemetry, 1);
  EXPECT_THROW(world.crash_uav(1), std::out_of_range);
}

TEST(World, CrashDropsPendingDelayedTraffic) {
  sim::World world(kOrigin, 7);
  world.add_uav(test_uav("u1"), kOrigin);
  world.add_uav(test_uav("u2"), kOrigin);

  sesame::mw::FaultPlan plan;
  sesame::mw::FaultRule rule;
  rule.topic_suffix = "/telemetry";
  rule.delay_probability = 1.0;
  rule.delay_steps = 5;
  plan.rules.push_back(rule);
  sesame::mw::FaultInjector injector(plan);
  auto policy = world.bus().add_delivery_policy(&injector);

  world.step(1.0);  // both vehicles' telemetry now held in the delay queue
  EXPECT_EQ(world.bus().delayed_pending(), 2u);
  world.crash_uav(0);
  // The wreck's in-flight message is gone; the survivor's still matures.
  EXPECT_EQ(world.bus().delayed_pending(), 1u);
}
