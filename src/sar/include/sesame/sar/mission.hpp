// SAR mission orchestration: assigns sweep plans to UAVs, runs the person
// detector every tick, keeps detection/accuracy bookkeeping, and supports
// the task-redistribution behaviour of the mission-level ConSert ("&
// redistribute task among remaining capable UAVs", paper Fig. 1).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sesame/perception/detector.hpp"
#include "sesame/sar/coverage.hpp"
#include "sesame/sar/coverage_tracker.hpp"
#include "sesame/sim/spatial_grid.hpp"
#include "sesame/sim/world.hpp"

namespace sesame::sar {

/// Aggregate detection quality statistics of a mission.
struct DetectionStats {
  std::size_t frames = 0;
  std::size_t true_detections = 0;   ///< detections matching a real person
  std::size_t false_alarms = 0;
  std::size_t persons_total = 0;
  std::size_t persons_found = 0;

  /// Precision of raw detections (1.0 when no detections yet).
  double precision() const;
  /// Fraction of persons found so far.
  double recall() const;
};

class SarMission {
 public:
  /// Assigns one sweep plan per UAV (sizes must match; UAVs are world
  /// names, resolved to fleet indices here once). Waypoints are pushed to
  /// the vehicles; takeoff must be commanded by the caller (the platform
  /// layer owns mode decisions). Every other member addresses vehicles by
  /// their world fleet index.
  SarMission(sim::World& world, const std::vector<std::string>& uav_names,
             std::vector<SweepPlan> plans, perception::DetectorConfig detector = {});

  /// Runs one detection tick: every airborne mission UAV images the ground
  /// and detections are matched against the world's persons (marking them
  /// detected). Call once per world step.
  void tick();

  const DetectionStats& stats() const noexcept { return stats_; }

  /// Remaining waypoints of one UAV.
  std::size_t remaining_waypoints(std::size_t uav) const;

  /// Total remaining waypoints across the fleet.
  std::size_t total_remaining() const;

  /// True when every UAV consumed its plan.
  bool complete() const;

  /// Removes `failed_uav` from the mission and appends its unfinished
  /// waypoints to `takeover_uav`'s queue (task redistribution). Returns
  /// the number of reassigned waypoints. Throws std::invalid_argument
  /// unless both are distinct mission-active vehicles.
  std::size_t redistribute(std::size_t failed_uav, std::size_t takeover_uav);

  /// Removes a vehicle from the mission *without* reassigning its tasks
  /// (no surviving vehicle could absorb them); its remaining waypoints are
  /// abandoned. Returns the number of waypoints stranded. Throws
  /// std::invalid_argument on a vehicle that is not mission-active.
  std::size_t retire(std::size_t uav);

  /// The takeover rule of task redistribution: the mission-active vehicle
  /// other than `failed_uav` with the fewest remaining waypoints that can
  /// still fly them (airborne, neither emergency-landing nor returning to
  /// base). Ties go to the earliest roster entry; nullopt when no vehicle
  /// qualifies.
  std::optional<std::size_t> takeover_for(std::size_t failed_uav) const;

  /// Fleet indices of the UAVs currently carrying mission tasks, in roster
  /// order (the order tick() images the ground in).
  const std::vector<std::size_t>& active_uavs() const noexcept {
    return active_uavs_;
  }

  /// Whether the UAV is on the active roster (constant time).
  bool active(std::size_t uav) const noexcept {
    return uav < on_roster_.size() && on_roster_[uav] != 0;
  }

  /// UAVs whose camera produced at least one detection on the most recent
  /// tick() (the safety-invariant checker cross-references these against
  /// sensor health: a detection must never come from a blind sensor).
  const std::vector<std::size_t>& last_tick_detectors() const noexcept {
    return last_tick_detectors_;
  }

  const perception::PersonDetector& detector() const noexcept {
    return detector_;
  }

  /// Enables ground-coverage accounting over `area`; every subsequent tick
  /// marks the cells inside each airborne UAV's camera footprint.
  void enable_coverage_tracking(const Area& area, double cell_m = 5.0);

  /// The tracker, or nullptr when tracking was not enabled.
  const CoverageTracker* coverage() const noexcept {
    return tracker_ ? &*tracker_ : nullptr;
  }

 private:
  /// Drops a mission-active UAV from the roster, keeping the others' order.
  void leave_roster(std::size_t uav);

  sim::World* world_;
  std::vector<std::size_t> active_uavs_;
  std::vector<std::uint8_t> on_roster_;  ///< by fleet index
  std::vector<std::size_t> last_tick_detectors_;
  perception::PersonDetector detector_;
  DetectionStats stats_;
  std::optional<CoverageTracker> tracker_;

  // Spatial index over the world's (static) person positions: each tick
  // queries the camera footprint instead of scanning every person per
  // vehicle. Rebuilt only when the person count changes.
  sim::SpatialGrid person_grid_{50.0};
  std::vector<std::uint32_t> candidate_scratch_;
};

}  // namespace sesame::sar
