// Downward-facing camera geometry.
//
// Computes the ground footprint of a nadir-pointing camera and which
// world points fall inside it. The perception module layers the detection
// quality model (altitude-dependent miss/false-alarm rates) on top; this
// header is pure geometry.
#pragma once

#include <vector>

#include "sesame/geo/geodesy.hpp"

namespace sesame::sim {

struct CameraConfig {
  double hfov_deg = 69.0;  ///< horizontal field of view
  double vfov_deg = 55.0;  ///< vertical field of view
  std::size_t image_width_px = 1280;
  std::size_t image_height_px = 720;
};

/// Rectangular ground footprint of a nadir camera at a given position.
struct Footprint {
  double center_east_m = 0.0;
  double center_north_m = 0.0;
  double half_width_m = 0.0;   ///< east extent (from hfov)
  double half_height_m = 0.0;  ///< north extent (from vfov)

  bool contains(const geo::EnuPoint& p) const;
  double area_m2() const { return 4.0 * half_width_m * half_height_m; }
};

class Camera {
 public:
  explicit Camera(CameraConfig config = {});

  const CameraConfig& config() const noexcept { return config_; }

  /// Footprint from a camera at `pos` looking straight down. Altitude at
  /// or below ground yields an empty (zero-area) footprint.
  Footprint footprint(const geo::EnuPoint& pos) const;

  /// Ground sample distance (m/pixel) at the given altitude: the driver of
  /// detection quality — higher altitude, coarser pixels, weaker detections.
  double ground_sample_distance_m(double altitude_m) const;

 private:
  CameraConfig config_;
  double tan_half_hfov_;
  double tan_half_vfov_;
};

}  // namespace sesame::sim
