// GPS watchdog: the physical-layer attack sensor.
//
// The paper notes the Security EDDI framework "can incorporate additional
// sensors for physical attack detection" beyond the network IDS. GNSS
// jamming is the canonical case: it is invisible to traffic inspection but
// obvious in telemetry — an airborne vehicle that suddenly reports no fix.
// The watchdog monitors fleet telemetry and publishes a CAPEC-601 alert on
// the IDS alert topic after N consecutive fix-less samples, feeding the
// denial-of-navigation attack tree (make_jamming_attack_tree).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sesame/mw/bus.hpp"
#include "sesame/obs/observability.hpp"
#include "sesame/sim/world.hpp"

namespace sesame::platform {

struct GpsWatchdogConfig {
  /// Consecutive airborne no-fix telemetry samples before alerting.
  std::size_t consecutive_losses = 3;
};

class GpsWatchdog {
 public:
  GpsWatchdog(mw::Bus& bus, GpsWatchdogConfig config = {});

  /// Starts monitoring a UAV's telemetry.
  void watch_uav(const std::string& name);

  std::size_t alerts_raised() const noexcept { return alerts_raised_; }

  /// Attaches (nullptr: detaches) observability: each jamming detection
  /// increments `sesame.platform.gps_watchdog_alerts_total{uav}` and emits
  /// a structured `sesame.platform.gps_fix_lost` trace event.
  void set_observability(obs::Observability* o) noexcept { obs_ = o; }

 private:
  mw::Bus* bus_;
  obs::Observability* obs_ = nullptr;
  GpsWatchdogConfig config_;
  std::vector<mw::Subscription> subscriptions_;
  /// Per-vehicle detector state, read and written by that vehicle's
  /// telemetry handler.
  struct VehicleWatch {
    std::size_t loss_streak = 0;
    bool alerted = false;  // once per outage
  };
  std::map<std::string, VehicleWatch> watch_state_;
  std::size_t alerts_raised_ = 0;

  void on_telemetry(const std::string& name, VehicleWatch& state,
                    const sim::Telemetry& t);
};

}  // namespace sesame::platform
