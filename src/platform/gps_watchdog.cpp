#include "sesame/platform/gps_watchdog.hpp"

#include <stdexcept>

#include "sesame/security/ids.hpp"

namespace sesame::platform {

GpsWatchdog::GpsWatchdog(mw::Bus& bus, GpsWatchdogConfig config)
    : bus_(&bus), config_(config) {
  if (config_.consecutive_losses == 0) {
    throw std::invalid_argument("GpsWatchdog: zero loss threshold");
  }
}

void GpsWatchdog::watch_uav(const std::string& name) {
  // Map nodes never move: the handler keeps its vehicle's state slot
  // instead of looking the name up for every record.
  VehicleWatch* const state = &watch_state_[name];
  subscriptions_.push_back(bus_->subscribe<sim::Telemetry>(
      sim::telemetry_topic(name),
      [this, name, state](const mw::MessageHeader&, const sim::Telemetry& t) {
        on_telemetry(name, *state, t);
      }));
}

void GpsWatchdog::on_telemetry(const std::string& name, VehicleWatch& state,
                               const sim::Telemetry& t) {
  const bool airborne = t.mode == sim::FlightMode::kTakeoff ||
                        t.mode == sim::FlightMode::kMission ||
                        t.mode == sim::FlightMode::kHold ||
                        t.mode == sim::FlightMode::kReturnToBase;
  if (!airborne || t.gps_fix) {
    state.loss_streak = 0;
    state.alerted = false;  // fix recovered: re-arm
    return;
  }
  if (++state.loss_streak < config_.consecutive_losses || state.alerted) {
    return;
  }
  state.alerted = true;
  ++alerts_raised_;
  if (obs_ != nullptr) {
    obs_->metrics.counter("sesame.platform.gps_watchdog_alerts_total",
                          {{"uav", name}})
        .inc();
    obs_->tracer.event("sesame.platform.gps_fix_lost",
                       {{"uav", name},
                        {"capec", "CAPEC-601"},
                        {"streak", std::to_string(state.loss_streak)},
                        {"time_s", obs::attr_value(t.time_s)}});
  }
  security::IdsAlert alert;
  alert.rule = "gps_fix_lost";
  alert.capec_id = "CAPEC-601";
  alert.topic = sim::telemetry_topic(name);
  alert.source = name;
  alert.time_s = t.time_s;
  alert.detail = std::to_string(state.loss_streak) +
                 " consecutive airborne samples without a GNSS fix";
  bus_->publish(security::ids_alert_topic(), alert, "gps_watchdog", t.time_s);
}

}  // namespace sesame::platform
