// SAR coverage planning: rectangular-area decomposition among N UAVs and
// boustrophedon (lawnmower) sweep paths — the multi-UAV scanning pattern
// of the paper's Fig. 4 (three UAVs sweeping adjacent strips).
#pragma once

#include <cstddef>
#include <vector>

#include "sesame/geo/geodesy.hpp"

namespace sesame::sar {

/// Axis-aligned mission area in world ENU metres.
struct Area {
  double east_min = 0.0;
  double east_max = 0.0;
  double north_min = 0.0;
  double north_max = 0.0;

  double width() const { return east_max - east_min; }
  double height() const { return north_max - north_min; }
  bool contains(const geo::EnuPoint& p) const {
    return p.east_m >= east_min && p.east_m <= east_max &&
           p.north_m >= north_min && p.north_m <= north_max;
  }
};

struct CoverageConfig {
  double altitude_m = 30.0;
  /// Distance between adjacent sweep lines. Choose <= camera footprint
  /// width at the mission altitude for gap-free coverage.
  double lane_spacing_m = 25.0;
  /// Waypoint spacing along a sweep line (granularity of progress
  /// bookkeeping; the vehicle flies straight between them anyway).
  double along_track_spacing_m = 50.0;
};

/// One UAV's sweep assignment.
struct SweepPlan {
  Area strip;                          ///< sub-area assigned to the UAV
  std::vector<geo::EnuPoint> waypoints;  ///< boustrophedon path at altitude
};

/// Splits `area` into `n_uavs` equal-width north-south strips and plans a
/// boustrophedon sweep for each. Throws std::invalid_argument on a
/// degenerate area, zero UAV count, or non-positive spacings.
std::vector<SweepPlan> plan_coverage(const Area& area, std::size_t n_uavs,
                                     const CoverageConfig& config);

}  // namespace sesame::sar
