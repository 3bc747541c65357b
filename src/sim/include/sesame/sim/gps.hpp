// GPS receiver model with signal-loss injection.
//
// The paper's security scenario (Figs. 6-7) hinges on falsified position
// data steering a UAV off its mapping trajectory, and on flying the victim
// home *without* GPS once the attack is detected. The falsified fixes are
// published on the bus by the attacker (MissionRunner's spoofing event);
// this model produces fixes = truth + white noise, and reports no fix when
// the signal is lost or the receiver is disabled after attack detection.
#pragma once

#include <optional>

#include "sesame/geo/geodesy.hpp"
#include "sesame/mathx/rng.hpp"

namespace sesame::sim {

/// Quality metadata a real receiver would report alongside the fix.
struct GpsFix {
  geo::GeoPoint position;
  double horizontal_accuracy_m = 0.0;  ///< receiver-claimed 1-sigma accuracy
  int satellites = 0;
  /// Note: a *spoofed* receiver still reports good quality figures — the
  /// attack is not visible in this struct, which is exactly the problem.
};

struct GpsConfig {
  double noise_sigma_m = 0.4;       ///< healthy horizontal noise
  int healthy_satellites = 14;
};

/// Simulated GPS receiver bound to one UAV.
class Gps {
 public:
  Gps(GpsConfig config, mathx::Rng& rng);

  /// Produces the fix for the current true position, advancing internal
  /// attack state by dt seconds. Returns nullopt when the signal is lost
  /// or the receiver has been disabled.
  std::optional<GpsFix> read(const geo::GeoPoint& true_position, double dt_s);

  /// Simulates total signal loss (e.g. jamming or canyon shadowing).
  void set_signal_lost(bool lost) { signal_lost_ = lost; }
  bool signal_lost() const noexcept { return signal_lost_; }

  /// Operator/ConSert-commanded receiver disable: once the Security EDDI
  /// flags spoofing, navigation must stop trusting this receiver.
  void set_disabled(bool disabled) { disabled_ = disabled; }
  bool disabled() const noexcept { return disabled_; }

 private:
  GpsConfig config_;
  mathx::Rng* rng_;
  bool signal_lost_ = false;
  bool disabled_ = false;
};

}  // namespace sesame::sim
