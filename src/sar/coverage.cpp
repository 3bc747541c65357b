#include "sesame/sar/coverage.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sesame::sar {

std::vector<SweepPlan> plan_coverage(const Area& area, std::size_t n_uavs,
                                     const CoverageConfig& config) {
  if (area.width() <= 0.0 || area.height() <= 0.0) {
    throw std::invalid_argument("plan_coverage: degenerate area");
  }
  if (n_uavs == 0) throw std::invalid_argument("plan_coverage: zero UAVs");
  if (config.lane_spacing_m <= 0.0 || config.along_track_spacing_m <= 0.0 ||
      config.altitude_m <= 0.0) {
    throw std::invalid_argument("plan_coverage: non-positive config value");
  }

  std::vector<SweepPlan> plans;
  const double strip_width = area.width() / static_cast<double>(n_uavs);
  for (std::size_t u = 0; u < n_uavs; ++u) {
    SweepPlan plan;
    plan.strip = area;
    plan.strip.east_min = area.east_min + strip_width * static_cast<double>(u);
    plan.strip.east_max = plan.strip.east_min + strip_width;

    // North-south lanes east-to-west across the strip, serpentine order.
    const auto lanes = static_cast<std::size_t>(
        std::ceil(plan.strip.width() / config.lane_spacing_m));
    bool northbound = true;
    for (std::size_t lane = 0; lane <= lanes; ++lane) {
      const double east = std::min(
          plan.strip.east_min + static_cast<double>(lane) * config.lane_spacing_m,
          plan.strip.east_max);
      // Sample waypoints along the lane for progress granularity.
      const double from = northbound ? area.north_min : area.north_max;
      const double to = northbound ? area.north_max : area.north_min;
      const double dir = northbound ? 1.0 : -1.0;
      for (double n = from;; n += dir * config.along_track_spacing_m) {
        const double clamped = northbound ? std::min(n, to) : std::max(n, to);
        plan.waypoints.push_back({east, clamped, config.altitude_m});
        if (clamped == to) break;
      }
      northbound = !northbound;
      if (east >= plan.strip.east_max) break;
    }
    plans.push_back(std::move(plan));
  }
  return plans;
}

}  // namespace sesame::sar
