// The multi-UAV world: vehicles, persons to be found, wind, the mission
// clock, and the message-bus wiring that mirrors the paper's ROS setup.
//
// Every step the world advances each UAV and publishes its telemetry on
// `uav/<name>/telemetry`. Each UAV also *subscribes* to
// `uav/<name>/position_fix` (geo::GeoPoint payload) and trusts whatever
// arrives there — this is the unauthenticated ROS-style channel both
// Collaborative Localization (legitimate corrections) and the spoofing
// attacker (falsified corrections) use, exactly the property the paper's
// security scenario exploits.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sesame/geo/geodesy.hpp"
#include "sesame/mathx/rng.hpp"
#include "sesame/mw/bus.hpp"
#include "sesame/obs/metrics.hpp"
#include "sesame/sim/comm_link.hpp"
#include "sesame/sim/fleet_state.hpp"
#include "sesame/sim/spatial_grid.hpp"
#include "sesame/sim/uav.hpp"

namespace sesame::sim {

/// Telemetry sample published by each UAV every step.
struct Telemetry {
  std::string uav;
  geo::GeoPoint reported_position;  ///< the UAV's own estimate (spoofable)
  double altitude_m = 0.0;
  double battery_soc = 1.0;
  double battery_temp_c = 25.0;
  FlightMode mode = FlightMode::kIdle;
  double time_s = 0.0;
  bool gps_fix = true;
};

/// A person to be located by the SAR mission.
struct Person {
  geo::EnuPoint position;
  bool detected = false;
};

/// Health heartbeat published by each UAV on `uav/<name>/health` when
/// heartbeats are enabled. Leaner and lower-rate than telemetry: the
/// RecoveryManager's liveness signal. A vehicle that stops heartbeating is
/// blacked out or down.
struct HealthHeartbeat {
  std::string uav;
  double time_s = 0.0;
  FlightMode mode = FlightMode::kIdle;
  std::size_t motors_failed = 0;
  bool vision_sensor_healthy = true;
  double battery_soc = 1.0;
  bool battery_fault = false;
};

/// Topic helpers shared by the platform, EDDIs and attackers.
std::string telemetry_topic(const std::string& uav_name);
std::string position_fix_topic(const std::string& uav_name);
/// Recovery channels: the GCS pings `uav/<name>/ping` (payload: double,
/// the ping time); a live vehicle answers with an immediate telemetry
/// publication. Heartbeats ride `uav/<name>/health` (HealthHeartbeat).
std::string ping_topic(const std::string& uav_name);
std::string health_topic(const std::string& uav_name);

/// Radio model for the UAV↔GCS C2 links: every `uav/<name>/telemetry` and
/// `uav/<name>/position_fix` publication rides the named UAV's link, and is
/// dropped with probability 1 − CommLink::sample_quality(ground distance
/// from that UAV to `gcs_enu`). Fading draws come from a dedicated stream
/// seeded with `seed`, so enabling the link model never perturbs the world
/// RNG (trajectories are unchanged).
struct LossyLinkConfig {
  CommLinkConfig link;
  geo::EnuPoint gcs_enu{0.0, 0.0, 0.0};  ///< ground-station position
  std::uint64_t seed = 1;
};

class World {
 public:
  /// `origin` anchors the local ENU frame (mission-area corner).
  World(const geo::GeoPoint& origin, std::uint64_t seed = 1);
  ~World();
  World(World&&) noexcept;

  const geo::LocalFrame& frame() const noexcept { return frame_; }
  mw::Bus& bus() noexcept { return bus_; }
  mathx::Rng& rng() noexcept { return rng_; }
  double time_s() const noexcept { return time_s_; }
  Wind& wind() noexcept { return wind_; }

  /// Adds a UAV at `home`; returns its index. Wires telemetry publication
  /// and the position-fix subscription.
  std::size_t add_uav(UavConfig config, const geo::GeoPoint& home);

  std::size_t num_uavs() const noexcept { return uavs_.size(); }
  Uav& uav(std::size_t i) { return *uavs_.at(i).uav; }
  const Uav& uav(std::size_t i) const { return *uavs_.at(i).uav; }

  /// The fleet's struct-of-arrays hot state (positions, velocity commands,
  /// battery SoC mirror, link quality), indexed by vehicle add-order.
  const FleetState& fleet() const noexcept { return fleet_; }

  /// True when any *other* vehicle is within `radius_m` 3-D distance of
  /// vehicle `i`. `airborne_only` restricts the match to flying vehicles
  /// (the collaborative-localization availability check: a wreck cannot
  /// assist); when false, grounded and crashed vehicles count too
  /// (separation sweeps treat wrecks as obstacles). Backed by a
  /// uniform-grid index refreshed lazily after each step, so a fleet-wide
  /// sweep costs O(N · cells) instead of the all-pairs O(N^2) scan.
  bool has_neighbor_within(std::size_t i, double radius_m,
                           bool airborne_only = false);

  /// Finds a UAV by name; throws std::out_of_range when absent.
  Uav& uav_by_name(const std::string& name);

  /// Persons placed in the mission area.
  void add_person(const geo::EnuPoint& position);
  std::vector<Person>& persons() noexcept { return persons_; }
  const std::vector<Person>& persons() const noexcept { return persons_; }
  std::size_t persons_detected() const;

  /// Installs a distance-dependent drop policy on the bus (see
  /// LossyLinkConfig). Throws std::logic_error if already enabled.
  void enable_lossy_links(const LossyLinkConfig& config);
  bool lossy_links_enabled() const noexcept { return link_gate_ != nullptr; }

  /// Enables periodic HealthHeartbeat publication (every `period_s` of
  /// mission time, on `uav/<name>/health`) for every vehicle that is not
  /// crashed. Throws std::invalid_argument on a non-positive period.
  void enable_health_heartbeats(double period_s);
  bool health_heartbeats_enabled() const noexcept {
    return heartbeat_period_s_ > 0.0;
  }

  /// Total loss of vehicle `i`: forces it into FlightMode::kCrashed,
  /// tears down its bus wiring (position-fix and ping subscriptions — a
  /// wreck answers nothing) and drains its queued delayed messages (a dead
  /// radio cannot deliver what it never finished sending). The slot stays
  /// in the fleet so surviving code can still inspect the wreck's state and
  /// transfer its waypoints. Idempotent. Throws std::out_of_range on an
  /// index past the fleet.
  void crash_uav(std::size_t i);

  /// Drops the pending fault-delayed deliveries published by vehicle `i`,
  /// leaving everyone else's in-flight traffic untouched. Returns
  /// the number dropped. (crash_uav calls this; exposed for the recovery
  /// layer, which must also drain when *declaring* a vehicle lost — e.g.
  /// after a blackout timeout — without a crash event.)
  std::size_t drop_pending_from(std::size_t i);

  /// Advances the whole world by dt seconds: first drains bus messages whose
  /// fault-injected delay expires this step, then steps every UAV, publishes
  /// telemetry, and increments the clock.
  void step(double dt_s);

  /// Runs `n` steps of dt seconds each.
  void run(std::size_t n, double dt_s);

  /// Attaches (nullptr: detaches) a metrics registry to the world *and its
  /// bus*. The world maintains `sesame.sim.step_duration_seconds` (wall
  /// time per step), `sesame.sim.steps_total` and the mission-clock gauge
  /// `sesame.sim.time_s`; the bus adds its per-topic counters/latency.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  geo::LocalFrame frame_;
  mathx::Rng rng_;
  mw::Bus bus_;
  Wind wind_;
  double time_s_ = 0.0;
  // Declared before uavs_: every Uav view points into it, so it must
  // outlive them (members destroy in reverse declaration order).
  FleetState fleet_;

  struct Slot {
    std::unique_ptr<Uav> uav;
    mw::Subscription fix_subscription;
    mw::Subscription ping_subscription;
    // Resolved once at add_uav so the per-step telemetry publish is a pure
    // id-keyed bus call (no topic-string building, no interning lookups).
    mw::TopicId telemetry_topic;
    mw::TopicId health_topic;
    mw::SourceId source;
  };

  void publish_telemetry(const Slot& slot);
  std::vector<Slot> uavs_;
  /// name → index into uavs_. Setup and the API edge resolve names here;
  /// on the per-tick path only the spoofing run's collaborative
  /// localisation still calls uav_by_name (the lossy-link gate memoises
  /// its topic parse per TopicId).
  std::map<std::string, std::size_t, std::less<>> uav_index_;
  std::vector<Person> persons_;

  class LinkGate;  // the lossy-link DeliveryPolicy (defined in world.cpp)
  std::unique_ptr<LinkGate> link_gate_;
  mw::Subscription link_gate_sub_;  // after bus_: released before bus_ dies

  double heartbeat_period_s_ = 0.0;  ///< <= 0: heartbeats off
  double next_heartbeat_s_ = 0.0;

  SpatialGrid uav_grid_{125.0};
  bool uav_grid_stale_ = true;
  std::vector<std::uint32_t> neighbor_scratch_;

  obs::Histogram* step_duration_ = nullptr;
  obs::Counter* steps_total_ = nullptr;
  obs::Gauge* clock_gauge_ = nullptr;
};

}  // namespace sesame::sim
