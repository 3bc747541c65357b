// Tests for SAR coverage planning and mission bookkeeping/redistribution.
#include <gtest/gtest.h>

#include "sesame/sar/coverage.hpp"
#include "sesame/sar/mission.hpp"

namespace sar = sesame::sar;
namespace sim = sesame::sim;
namespace geo = sesame::geo;

namespace {

const geo::GeoPoint kOrigin{35.1856, 33.3823, 0.0};

sar::Area test_area() { return {0.0, 300.0, 0.0, 200.0}; }

sim::UavConfig fast_uav(const std::string& name) {
  sim::UavConfig cfg;
  cfg.name = name;
  cfg.cruise_speed_mps = 12.0;
  cfg.gps.noise_sigma_m = 0.0;
  return cfg;
}

}  // namespace

TEST(Coverage, ValidatesInput) {
  sar::CoverageConfig cfg;
  EXPECT_THROW(sar::plan_coverage({0, 0, 0, 10}, 2, cfg), std::invalid_argument);
  EXPECT_THROW(sar::plan_coverage(test_area(), 0, cfg), std::invalid_argument);
  cfg.lane_spacing_m = 0.0;
  EXPECT_THROW(sar::plan_coverage(test_area(), 2, cfg), std::invalid_argument);
}

TEST(Coverage, StripsPartitionAreaWithoutOverlap) {
  sar::CoverageConfig cfg;
  const auto plans = sar::plan_coverage(test_area(), 3, cfg);
  ASSERT_EQ(plans.size(), 3u);
  double covered = 0.0;
  for (const auto& p : plans) covered += p.strip.width();
  EXPECT_NEAR(covered, test_area().width(), 1e-9);
  EXPECT_NEAR(plans[0].strip.east_max, plans[1].strip.east_min, 1e-9);
  EXPECT_NEAR(plans[1].strip.east_max, plans[2].strip.east_min, 1e-9);
}

TEST(Coverage, WaypointsStayInsideStripAndAltitude) {
  sar::CoverageConfig cfg;
  cfg.altitude_m = 42.0;
  const auto plans = sar::plan_coverage(test_area(), 2, cfg);
  for (const auto& p : plans) {
    ASSERT_FALSE(p.waypoints.empty());
    for (const auto& wp : p.waypoints) {
      EXPECT_GE(wp.east_m, p.strip.east_min - 1e-9);
      EXPECT_LE(wp.east_m, p.strip.east_max + 1e-9);
      EXPECT_GE(wp.north_m, test_area().north_min - 1e-9);
      EXPECT_LE(wp.north_m, test_area().north_max + 1e-9);
      EXPECT_DOUBLE_EQ(wp.up_m, 42.0);
    }
  }
}

TEST(Coverage, LanesCoverStripWidth) {
  sar::CoverageConfig cfg;
  cfg.lane_spacing_m = 30.0;
  const auto plans = sar::plan_coverage(test_area(), 1, cfg);
  // Lane east coordinates should reach both strip edges.
  double min_east = 1e18, max_east = -1e18;
  for (const auto& wp : plans[0].waypoints) {
    min_east = std::min(min_east, wp.east_m);
    max_east = std::max(max_east, wp.east_m);
  }
  EXPECT_NEAR(min_east, test_area().east_min, 1e-9);
  EXPECT_NEAR(max_east, test_area().east_max, 1e-9);
}

TEST(Coverage, SerpentineAlternatesDirection) {
  sar::CoverageConfig cfg;
  cfg.lane_spacing_m = 100.0;
  cfg.along_track_spacing_m = 500.0;  // only endpoints per lane
  const auto plans = sar::plan_coverage({0, 200, 0, 100}, 1, cfg);
  const auto& wps = plans[0].waypoints;
  ASSERT_GE(wps.size(), 4u);
  // First lane goes north, second lane south.
  EXPECT_LT(wps[0].north_m, wps[1].north_m);
  EXPECT_GT(wps[2].north_m, wps[3].north_m);
}

TEST(Mission, ValidatesSetup) {
  sim::World world(kOrigin);
  world.add_uav(fast_uav("u1"), kOrigin);
  sar::CoverageConfig cfg;
  auto plans = sar::plan_coverage(test_area(), 2, cfg);
  EXPECT_THROW(sar::SarMission(world, {"u1"}, plans), std::invalid_argument);
}

TEST(Mission, AssignsWaypointsToUavs) {
  sim::World world(kOrigin);
  world.add_uav(fast_uav("u1"), kOrigin);
  world.add_uav(fast_uav("u2"), kOrigin);
  sar::CoverageConfig cfg;
  auto plans = sar::plan_coverage(test_area(), 2, cfg);
  sar::SarMission mission(world, {"u1", "u2"}, plans);
  EXPECT_EQ(mission.remaining_waypoints(0), plans[0].waypoints.size());
  EXPECT_EQ(mission.total_remaining(),
            plans[0].waypoints.size() + plans[1].waypoints.size());
  EXPECT_FALSE(mission.complete());
}

TEST(Mission, DetectsPersonsDuringSweep) {
  sim::World world(kOrigin, 31);
  world.add_uav(fast_uav("u1"), kOrigin);
  // Persons along the first sweep lane.
  world.add_person({5.0, 50.0, 0.0});
  world.add_person({5.0, 120.0, 0.0});
  sar::CoverageConfig cfg;
  cfg.altitude_m = 25.0;
  auto plans = sar::plan_coverage({0.0, 60.0, 0.0, 160.0}, 1, cfg);
  sar::SarMission mission(world, {"u1"}, plans);
  world.uav_by_name("u1").command_takeoff();
  for (int t = 0; t < 400 && !mission.complete(); ++t) {
    world.step(1.0);
    mission.tick();
  }
  EXPECT_TRUE(mission.complete());
  EXPECT_EQ(world.persons_detected(), 2u);
  EXPECT_EQ(mission.stats().persons_found, 2u);
  EXPECT_GT(mission.stats().true_detections, 2u);  // repeated frames
  // Persons are only in the footprint for a handful of frames, so the 1%
  // per-frame false-alarm rate caps precision well below 1.
  EXPECT_GT(mission.stats().precision(), 0.5);
  EXPECT_LT(mission.stats().false_alarms, mission.stats().frames / 20);
  EXPECT_DOUBLE_EQ(mission.stats().recall(), 1.0);
}

TEST(Mission, RedistributeMovesRemainingWaypoints) {
  sim::World world(kOrigin);
  world.add_uav(fast_uav("u1"), kOrigin);
  world.add_uav(fast_uav("u2"), kOrigin);
  sar::CoverageConfig cfg;
  auto plans = sar::plan_coverage(test_area(), 2, cfg);
  sar::SarMission mission(world, {"u1", "u2"}, plans);
  const std::size_t before_u2 = mission.remaining_waypoints(1);
  const std::size_t from_u1 = mission.remaining_waypoints(0);
  const std::size_t moved = mission.redistribute(0, 1);
  EXPECT_EQ(moved, from_u1);
  EXPECT_EQ(mission.remaining_waypoints(1), before_u2 + from_u1);
  ASSERT_EQ(mission.active_uavs().size(), 1u);
  EXPECT_EQ(mission.active_uavs()[0], 1u);
  EXPECT_FALSE(mission.active(0));
  EXPECT_TRUE(mission.active(1));
  // Total preserved.
  EXPECT_EQ(mission.total_remaining(), before_u2 + from_u1);
}

TEST(Mission, RedistributeValidation) {
  sim::World world(kOrigin);
  world.add_uav(fast_uav("u1"), kOrigin);
  world.add_uav(fast_uav("u2"), kOrigin);
  sar::CoverageConfig cfg;
  auto plans = sar::plan_coverage(test_area(), 2, cfg);
  sar::SarMission mission(world, {"u1", "u2"}, plans);
  EXPECT_THROW(mission.redistribute(7, 1), std::invalid_argument);  // unknown
  EXPECT_THROW(mission.redistribute(0, 0), std::invalid_argument);  // self
  EXPECT_THROW(mission.redistribute(0, 7), std::invalid_argument);  // unknown
  // A retired vehicle is off the roster on both sides of a hand-over.
  mission.retire(1);
  EXPECT_THROW(mission.redistribute(1, 0), std::invalid_argument);
  EXPECT_THROW(mission.redistribute(0, 1), std::invalid_argument);
  EXPECT_THROW(mission.retire(1), std::invalid_argument);
}

TEST(Mission, TakeoverRuleSkipsUnfitVehiclesAndBreaksTiesByRoster) {
  // u1 has failed. u2 returns to base, u3 is emergency-landing and u4
  // never took off: each carries one waypoint, the lightest load, yet none
  // can fly it. u5 and u6 tie on two waypoints, and u5 comes first.
  sim::World world(kOrigin);
  std::vector<std::string> names;
  std::vector<sar::SweepPlan> plans;
  for (int k = 1; k <= 6; ++k) {
    names.push_back("u" + std::to_string(k));
    world.add_uav(fast_uav(names.back()), kOrigin);
    sar::SweepPlan plan;
    plan.waypoints = {{10.0, 10.0, 30.0}};
    if (k == 1 || k >= 5) plan.waypoints.push_back({20.0, 20.0, 30.0});
    plans.push_back(plan);
  }
  sar::SarMission mission(world, names, plans);
  for (std::size_t i : {0u, 1u, 2u, 4u, 5u}) world.uav(i).command_takeoff();
  world.uav(1).command_return_to_base();
  world.uav(2).command_emergency_land();
  ASSERT_FALSE(world.uav(3).airborne());
  EXPECT_EQ(mission.takeover_for(0), std::optional<std::size_t>{4});

  // The least-loaded fit vehicle wins over roster order.
  world.uav(4).add_waypoint({30.0, 30.0, 30.0});
  EXPECT_EQ(mission.takeover_for(0), std::optional<std::size_t>{5});

  // No fit candidate left on the roster: nobody takes over.
  mission.retire(4);
  mission.retire(5);
  EXPECT_EQ(mission.takeover_for(0), std::nullopt);
}

TEST(Mission, StatsDefaults) {
  sar::DetectionStats s;
  EXPECT_DOUBLE_EQ(s.precision(), 1.0);
  EXPECT_DOUBLE_EQ(s.recall(), 1.0);
  s.persons_total = 4;
  s.persons_found = 1;
  EXPECT_DOUBLE_EQ(s.recall(), 0.25);
  s.true_detections = 3;
  s.false_alarms = 1;
  EXPECT_DOUBLE_EQ(s.precision(), 0.75);
}

TEST(CoverageTracker, ValidatesConstruction) {
  EXPECT_THROW(sar::CoverageTracker({0, 0, 0, 10}, 5.0), std::invalid_argument);
  EXPECT_THROW(sar::CoverageTracker(test_area(), 0.0), std::invalid_argument);
}

TEST(CoverageTracker, GridDimensions) {
  sar::CoverageTracker tracker({0, 100, 0, 50}, 10.0);
  EXPECT_EQ(tracker.cells_east(), 10u);
  EXPECT_EQ(tracker.cells_north(), 5u);
  EXPECT_EQ(tracker.cells_total(), 50u);
  EXPECT_DOUBLE_EQ(tracker.fraction_covered(), 0.0);
}

TEST(CoverageTracker, MarksFootprintCells) {
  sar::CoverageTracker tracker({0, 100, 0, 100}, 10.0);
  sesame::sim::Footprint fp;
  fp.center_east_m = 50.0;
  fp.center_north_m = 50.0;
  fp.half_width_m = 15.0;   // covers cell centres in [35, 65] inclusive
  fp.half_height_m = 15.0;
  tracker.mark(fp);
  EXPECT_EQ(tracker.cells_covered(), 16u);  // 4x4 block of 10 m cells
  EXPECT_TRUE(tracker.covered_at({50.0, 50.0, 0.0}));
  EXPECT_FALSE(tracker.covered_at({5.0, 5.0, 0.0}));
  EXPECT_FALSE(tracker.covered_at({500.0, 50.0, 0.0}));  // outside area
  // Re-marking the same footprint adds nothing.
  tracker.mark(fp);
  EXPECT_EQ(tracker.cells_covered(), 16u);
}

TEST(CoverageTracker, ZeroAreaFootprintIgnored) {
  sar::CoverageTracker tracker({0, 100, 0, 100}, 10.0);
  sesame::sim::Footprint grounded;  // zero half-extents
  tracker.mark(grounded);
  EXPECT_EQ(tracker.cells_covered(), 0u);
}

TEST(CoverageTracker, FootprintOverhangingAreaIsClamped) {
  sar::CoverageTracker tracker({0, 50, 0, 50}, 10.0);
  sesame::sim::Footprint fp;
  fp.center_east_m = 0.0;  // half outside the west edge
  fp.center_north_m = 25.0;
  fp.half_width_m = 30.0;
  fp.half_height_m = 30.0;
  tracker.mark(fp);
  EXPECT_GT(tracker.cells_covered(), 0u);
  EXPECT_LE(tracker.cells_covered(), tracker.cells_total());
}

TEST(CoverageTracker, PartialEdgeCellsWeightedByTrueArea) {
  // 25 x 17 m area with 10 m cells: 3x2 grid whose last column is 5 m wide
  // and last row 7 m tall. Covering everything must report exactly 1.0, and
  // covering only the full-size corner cell must report its true area share
  // (100 / 425), not 1/6 of the cell count.
  sar::CoverageTracker tracker({0, 25, 0, 17}, 10.0);
  EXPECT_EQ(tracker.cells_east(), 3u);
  EXPECT_EQ(tracker.cells_north(), 2u);

  sesame::sim::Footprint corner;
  corner.center_east_m = 5.0;
  corner.center_north_m = 5.0;
  corner.half_width_m = 5.0;
  corner.half_height_m = 5.0;
  tracker.mark(corner);
  EXPECT_EQ(tracker.cells_covered(), 1u);
  EXPECT_DOUBLE_EQ(tracker.covered_area_m2(), 100.0);
  EXPECT_DOUBLE_EQ(tracker.fraction_covered(), 100.0 / 425.0);

  sesame::sim::Footprint all;
  all.center_east_m = 12.5;
  all.center_north_m = 8.5;
  all.half_width_m = 50.0;
  all.half_height_m = 50.0;
  tracker.mark(all);
  EXPECT_EQ(tracker.cells_covered(), tracker.cells_total());
  EXPECT_DOUBLE_EQ(tracker.covered_area_m2(), 425.0);
  EXPECT_DOUBLE_EQ(tracker.fraction_covered(), 1.0);
}

TEST(CoverageTracker, PartialEdgeCellCentreStaysInsideArea) {
  // A 10 m-cell grid over a 25 x 17 m area: the old nominal-centre rule
  // placed the last column's centre at east 25 (on the boundary) and the
  // last row's at north 25 (outside entirely). A footprint hugging the
  // area's far edges must still be able to mark those edge cells.
  sar::CoverageTracker tracker({0, 25, 0, 17}, 10.0);
  sesame::sim::Footprint edge;
  edge.center_east_m = 23.0;  // clipped east cell spans [20, 25]: centre 22.5
  edge.center_north_m = 15.0;  // clipped north cell spans [10, 17]: centre 13.5
  edge.half_width_m = 1.6;
  edge.half_height_m = 1.6;
  tracker.mark(edge);
  EXPECT_EQ(tracker.cells_covered(), 1u);
  EXPECT_TRUE(tracker.covered_at({22.0, 14.0, 0.0}));
}

TEST(Mission, SweepCoversAreaWhenLaneSpacingMatchesFootprint) {
  sim::World world(kOrigin, 61);
  world.add_uav(fast_uav("u1"), kOrigin);
  sar::CoverageConfig cfg;
  cfg.altitude_m = 30.0;
  // Footprint width at 30 m with the default camera is ~41 m; 30 m lanes
  // give full overlap.
  cfg.lane_spacing_m = 30.0;
  const sar::Area area{0.0, 90.0, 0.0, 120.0};
  auto plans = sar::plan_coverage(area, 1, cfg);
  sar::SarMission mission(world, {"u1"}, plans);
  mission.enable_coverage_tracking(area, 5.0);
  ASSERT_NE(mission.coverage(), nullptr);
  world.uav_by_name("u1").command_takeoff();
  for (int t = 0; t < 400 && !mission.complete(); ++t) {
    world.step(1.0);
    mission.tick();
  }
  ASSERT_TRUE(mission.complete());
  EXPECT_GT(mission.coverage()->fraction_covered(), 0.95);
}

TEST(Mission, WideLaneSpacingLeavesGaps) {
  sim::World world(kOrigin, 67);
  world.add_uav(fast_uav("u1"), kOrigin);
  sar::CoverageConfig cfg;
  cfg.altitude_m = 20.0;  // footprint ~27 m wide
  cfg.lane_spacing_m = 80.0;  // big gaps between lanes
  const sar::Area area{0.0, 160.0, 0.0, 120.0};
  auto plans = sar::plan_coverage(area, 1, cfg);
  sar::SarMission mission(world, {"u1"}, plans);
  mission.enable_coverage_tracking(area, 5.0);
  world.uav_by_name("u1").command_takeoff();
  for (int t = 0; t < 400 && !mission.complete(); ++t) {
    world.step(1.0);
    mission.tick();
  }
  EXPECT_LT(mission.coverage()->fraction_covered(), 0.8);
}
