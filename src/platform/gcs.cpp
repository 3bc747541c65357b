#include "sesame/platform/gcs.hpp"

#include <sstream>

namespace sesame::platform {

GroundControlStation::GroundControlStation(mw::Bus& bus,
                                           DatabaseManager& database,
                                           std::string client_id,
                                           GcsConfig config)
    : bus_(&bus), database_(&database), client_id_(std::move(client_id)),
      config_(config) {
  database_->allow_client(client_id_);

  // Fleet-wide security feed.
  subscriptions_.push_back(bus_->subscribe<security::SecurityEvent>(
      security::security_event_topic(),
      [this](const mw::MessageHeader&, const security::SecurityEvent& ev) {
        GcsEvent e;
        e.time_s = ev.time_s;
        e.category = "security";
        e.message = "attack goal achieved on tree '" + ev.tree + "' (severity " +
                    security::severity_name(ev.severity) + ")";
        for (const auto& s : ev.suspicious_sources) {
          e.message += "; suspicious source: " + s;
        }
        push_event(std::move(e));
      }));
}

void GroundControlStation::watch_uav(const std::string& name) {
  database_->attach_uav(name);
  watched_.push_back(name);
  // Map nodes never move: the handler keeps its vehicle's state slot
  // instead of looking the name up for every record.
  VehicleWatch* const state = &watch_state_[name];
  subscriptions_.push_back(bus_->subscribe<sim::Telemetry>(
      sim::telemetry_topic(name),
      [this, name, state](const mw::MessageHeader&, const sim::Telemetry& t) {
        // Mode transitions.
        if (state->last_mode != t.mode) {
          GcsEvent e;
          e.time_s = t.time_s;
          e.category = "mode";
          e.uav = name;
          e.message = (state->last_mode ? std::string("mode -> ")
                                        : std::string("initial mode ")) +
                      sim::flight_mode_name(t.mode);
          push_event(std::move(e));
          state->last_mode = t.mode;
        }
        // Low-battery warning, once per crossing.
        bool& warned = state->battery_warned;
        if (t.battery_soc < config_.low_battery_warning_soc && !warned) {
          warned = true;
          GcsEvent e;
          e.time_s = t.time_s;
          e.category = "battery";
          e.uav = name;
          std::ostringstream os;
          os << "battery low: " << static_cast<int>(100.0 * t.battery_soc)
             << "%";
          e.message = os.str();
          push_event(std::move(e));
        } else if (t.battery_soc >= config_.low_battery_warning_soc) {
          warned = false;  // re-arm after a swap
        }
      }));
}

void GroundControlStation::log_operator_note(double time_s,
                                             const std::string& message) {
  GcsEvent e;
  e.time_s = time_s;
  e.category = "operator";
  e.message = message;
  push_event(std::move(e));
}

std::vector<GcsEvent> GroundControlStation::events_of(
    const std::string& category) const {
  std::vector<GcsEvent> out;
  for (const auto& e : events_) {
    if (e.category == category) out.push_back(e);
  }
  return out;
}

std::string GroundControlStation::render_status() const {
  std::ostringstream os;
  os << "UAV      LAT        LON        ALT(m)  BATT  GPS  MODE\n";
  for (const auto& name : watched_) {
    const auto latest = database_->latest(client_id_, name);
    if (!latest.has_value()) {
      os << name << "  (no telemetry)\n";
      continue;
    }
    char line[160];
    std::snprintf(line, sizeof line,
                  "%-8s %-10.5f %-10.5f %-7.1f %3.0f%%  %-4s %s\n",
                  name.c_str(), latest->reported_position.lat_deg,
                  latest->reported_position.lon_deg, latest->altitude_m,
                  100.0 * latest->battery_soc, latest->gps_fix ? "ok" : "LOST",
                  sim::flight_mode_name(latest->mode).c_str());
    os << line;
  }
  return os.str();
}

void GroundControlStation::push_event(GcsEvent event) {
  events_.push_back(std::move(event));
  if (events_.size() > config_.event_limit) {
    events_.erase(events_.begin());
  }
}

}  // namespace sesame::platform
