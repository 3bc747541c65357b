#include "sesame/sar/coverage_tracker.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sesame::sar {

CoverageTracker::CoverageTracker(const Area& area, double cell_m)
    : area_(area), cell_m_(cell_m) {
  if (area_.width() <= 0.0 || area_.height() <= 0.0) {
    throw std::invalid_argument("CoverageTracker: degenerate area");
  }
  if (cell_m_ <= 0.0) {
    throw std::invalid_argument("CoverageTracker: non-positive cell size");
  }
  cells_east_ = static_cast<std::size_t>(std::ceil(area_.width() / cell_m_));
  cells_north_ = static_cast<std::size_t>(std::ceil(area_.height() / cell_m_));
  covered_.assign(cells_east_ * cells_north_, 0);
  exact_grid_ =
      static_cast<double>(cells_east_) * cell_m_ == area_.width() &&
      static_cast<double>(cells_north_) * cell_m_ == area_.height();
}

double CoverageTracker::fraction_covered() const {
  if (covered_.empty()) return 0.0;
  if (exact_grid_) {
    return static_cast<double>(covered_count_) /
           static_cast<double>(covered_.size());
  }
  return covered_area_m2_ / (area_.width() * area_.height());
}

void CoverageTracker::mark(const sim::Footprint& footprint) {
  if (footprint.area_m2() <= 0.0) return;
  // Cell-index window overlapping the footprint rectangle.
  const double east_lo = footprint.center_east_m - footprint.half_width_m;
  const double east_hi = footprint.center_east_m + footprint.half_width_m;
  const double north_lo = footprint.center_north_m - footprint.half_height_m;
  const double north_hi = footprint.center_north_m + footprint.half_height_m;

  const auto clamp_east = [&](double e) {
    return std::clamp((e - area_.east_min) / cell_m_, 0.0,
                      static_cast<double>(cells_east_));
  };
  const auto clamp_north = [&](double n) {
    return std::clamp((n - area_.north_min) / cell_m_, 0.0,
                      static_cast<double>(cells_north_));
  };
  const auto ie_lo = static_cast<std::size_t>(clamp_east(east_lo));
  const auto ie_hi = static_cast<std::size_t>(std::ceil(clamp_east(east_hi)));
  const auto in_lo = static_cast<std::size_t>(clamp_north(north_lo));
  const auto in_hi = static_cast<std::size_t>(std::ceil(clamp_north(north_hi)));

  for (std::size_t in = in_lo; in < in_hi && in < cells_north_; ++in) {
    // Cell centres (of the clipped extent, for a partial edge row) must lie
    // inside the footprint; the north half of that test is row-invariant,
    // so it runs once per row.
    const double ext_n = cell_extent_north(in);
    const double centre_north =
        area_.north_min + static_cast<double>(in) * cell_m_ + 0.5 * ext_n;
    if (std::abs(centre_north - footprint.center_north_m) >
        footprint.half_height_m) {
      continue;
    }
    const std::size_t row = in * cells_east_;
    for (std::size_t ie = ie_lo; ie < ie_hi && ie < cells_east_; ++ie) {
      const double ext_e = cell_extent_east(ie);
      const double centre_east =
          area_.east_min + static_cast<double>(ie) * cell_m_ + 0.5 * ext_e;
      if (std::abs(centre_east - footprint.center_east_m) >
          footprint.half_width_m) {
        continue;
      }
      const std::size_t idx = row + ie;
      if (!covered_[idx]) {
        covered_[idx] = 1;
        ++covered_count_;
        covered_area_m2_ += ext_e * ext_n;
      }
    }
  }
}

bool CoverageTracker::covered_at(const geo::EnuPoint& p) const {
  if (!area_.contains(p)) return false;
  const auto ie = std::min(
      cells_east_ - 1,
      static_cast<std::size_t>((p.east_m - area_.east_min) / cell_m_));
  const auto in = std::min(
      cells_north_ - 1,
      static_cast<std::size_t>((p.north_m - area_.north_min) / cell_m_));
  return covered_[index(ie, in)] != 0;
}

}  // namespace sesame::sar
