// Ground-coverage accounting.
//
// The platform's stated mission goal is "maximizing area coverage"; this
// tracker rasterizes the mission area into cells and marks every cell seen
// by a camera footprint, yielding the covered-area fraction over time —
// the metric that validates lane-spacing choices and quantifies what a
// dropped-out UAV costs before task redistribution kicks in.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sesame/sar/coverage.hpp"
#include "sesame/sim/camera.hpp"

namespace sesame::sar {

class CoverageTracker {
 public:
  /// Rasterizes `area` into square cells of `cell_m` metres. Throws
  /// std::invalid_argument on a degenerate area or non-positive cell size.
  CoverageTracker(const Area& area, double cell_m = 5.0);

  std::size_t cells_east() const noexcept { return cells_east_; }
  std::size_t cells_north() const noexcept { return cells_north_; }
  std::size_t cells_total() const noexcept { return covered_.size(); }
  std::size_t cells_covered() const noexcept { return covered_count_; }

  /// Fraction of the area (by true ground area, not cell count) seen at
  /// least once. Edge cells of a region whose extent is not an exact
  /// multiple of the cell size carry only their real (clipped) area, so
  /// partial rows/columns no longer over-report coverage.
  double fraction_covered() const;

  /// Covered ground area in square metres (edge cells clipped to the area).
  double covered_area_m2() const noexcept { return covered_area_m2_; }

  /// Marks every cell whose centre (of its clipped extent, for edge cells)
  /// lies inside the footprint.
  void mark(const sim::Footprint& footprint);

  /// Whether the cell containing the point has been covered. Points
  /// outside the area return false.
  bool covered_at(const geo::EnuPoint& p) const;

 private:
  Area area_;
  double cell_m_;
  std::size_t cells_east_;
  std::size_t cells_north_;
  // One byte per cell: the mark() inner loop is the baseline arm's hottest
  // path, and byte stores beat vector<bool>'s bit twiddling there.
  std::vector<std::uint8_t> covered_;
  std::size_t covered_count_ = 0;
  double covered_area_m2_ = 0.0;
  // True when the area divides evenly into cells; fraction_covered() then
  // reduces to the exact covered-count ratio (no floating-point area sums).
  bool exact_grid_ = true;

  std::size_t index(std::size_t ie, std::size_t in) const {
    return in * cells_east_ + ie;
  }
  // Clipped extents of a cell (only the last row/column can be partial).
  double cell_extent_east(std::size_t ie) const {
    return std::min(cell_m_, area_.width() - static_cast<double>(ie) * cell_m_);
  }
  double cell_extent_north(std::size_t in) const {
    return std::min(cell_m_,
                    area_.height() - static_cast<double>(in) * cell_m_);
  }
};

}  // namespace sesame::sar
