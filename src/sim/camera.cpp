#include "sesame/sim/camera.hpp"

#include <cmath>
#include <stdexcept>

namespace sesame::sim {

bool Footprint::contains(const geo::EnuPoint& p) const {
  return std::abs(p.east_m - center_east_m) <= half_width_m &&
         std::abs(p.north_m - center_north_m) <= half_height_m;
}

Camera::Camera(CameraConfig config) : config_(config) {
  if (config_.hfov_deg <= 0.0 || config_.hfov_deg >= 180.0 ||
      config_.vfov_deg <= 0.0 || config_.vfov_deg >= 180.0) {
    throw std::invalid_argument("Camera: FOV out of (0, 180)");
  }
  if (config_.image_width_px == 0 || config_.image_height_px == 0) {
    throw std::invalid_argument("Camera: zero image dimension");
  }
  tan_half_hfov_ = std::tan(geo::deg_to_rad(config_.hfov_deg / 2.0));
  tan_half_vfov_ = std::tan(geo::deg_to_rad(config_.vfov_deg / 2.0));
}

Footprint Camera::footprint(const geo::EnuPoint& pos) const {
  Footprint f;
  f.center_east_m = pos.east_m;
  f.center_north_m = pos.north_m;
  const double alt = pos.up_m;
  if (alt <= 0.0) return f;  // zero-area footprint on/below ground
  f.half_width_m = alt * tan_half_hfov_;
  f.half_height_m = alt * tan_half_vfov_;
  return f;
}

double Camera::ground_sample_distance_m(double altitude_m) const {
  if (altitude_m <= 0.0) return 0.0;
  const double width_m = 2.0 * altitude_m * tan_half_hfov_;
  return width_m / static_cast<double>(config_.image_width_px);
}

}  // namespace sesame::sim
