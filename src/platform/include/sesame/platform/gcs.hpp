// Ground Control Station (paper Section IV-A).
//
// The operator-facing aggregation point: watches the fleet's telemetry,
// logs operationally relevant events (mode transitions, low-battery
// warnings, security events), and renders the textual status view the
// web/control GUIs display. Pure consumer — it commands nothing itself;
// vehicle commands go through apply_action, and task assignment through
// the coverage plan and SarMission hand-overs.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sesame/mw/bus.hpp"
#include "sesame/platform/database.hpp"
#include "sesame/security/security_eddi.hpp"
#include "sesame/sim/world.hpp"

namespace sesame::platform {

struct GcsEvent {
  double time_s = 0.0;
  std::string category;  ///< "mode" | "battery" | "security" | "operator"
  std::string uav;       ///< empty for fleet-wide events
  std::string message;
};

struct GcsConfig {
  /// State-of-charge below which a battery warning is logged (once per
  /// crossing).
  double low_battery_warning_soc = 0.25;
  /// Cap on the retained event log (oldest dropped).
  std::size_t event_limit = 10000;
};

class GroundControlStation {
 public:
  /// Attaches to the bus and registers itself as a database client named
  /// `client_id`.
  GroundControlStation(mw::Bus& bus, DatabaseManager& database,
                       std::string client_id = "gcs", GcsConfig config = {});

  /// Starts watching a UAV's telemetry: logs flight-mode transitions and
  /// low-battery crossings.
  void watch_uav(const std::string& name);

  /// Manually logged operator note.
  void log_operator_note(double time_s, const std::string& message);

  const std::vector<GcsEvent>& events() const noexcept { return events_; }

  /// Events of one category (copy).
  std::vector<GcsEvent> events_of(const std::string& category) const;

  /// Renders the current fleet status as a fixed-width text table (the
  /// web-GUI view): one row per watched UAV with position, battery, mode.
  std::string render_status() const;

 private:
  mw::Bus* bus_;
  DatabaseManager* database_;
  std::string client_id_;
  GcsConfig config_;
  std::vector<std::string> watched_;
  std::vector<mw::Subscription> subscriptions_;
  std::vector<GcsEvent> events_;
  /// Per-vehicle event state, read and written by that vehicle's
  /// telemetry handler.
  struct VehicleWatch {
    std::optional<sim::FlightMode> last_mode;  ///< empty until first record
    bool battery_warned = false;
  };
  std::map<std::string, VehicleWatch> watch_state_;

  void push_event(GcsEvent event);
};

}  // namespace sesame::platform
