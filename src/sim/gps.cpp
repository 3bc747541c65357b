#include "sesame/sim/gps.hpp"

#include <stdexcept>

namespace sesame::sim {

Gps::Gps(GpsConfig config, mathx::Rng& rng) : config_(config), rng_(&rng) {
  if (config_.noise_sigma_m < 0.0) {
    throw std::invalid_argument("Gps: negative noise");
  }
}

std::optional<GpsFix> Gps::read(const geo::GeoPoint& true_position, double dt_s) {
  if (dt_s < 0.0) throw std::invalid_argument("Gps::read: negative dt");
  if (signal_lost_ || disabled_) return std::nullopt;

  geo::GeoPoint reported = true_position;
  // Healthy receiver noise, applied in a random direction.
  const double noise = rng_->normal(0.0, config_.noise_sigma_m);
  const double noise_bearing = rng_->uniform(0.0, 360.0);
  if (noise != 0.0) {
    reported = geo::destination(reported, noise_bearing, std::abs(noise));
  }

  GpsFix fix;
  fix.position = reported;
  fix.horizontal_accuracy_m = config_.noise_sigma_m;
  fix.satellites = config_.healthy_satellites;
  return fix;
}

}  // namespace sesame::sim
