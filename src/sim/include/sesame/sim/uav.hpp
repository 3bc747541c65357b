// Kinematic UAV model.
//
// Deliberately closed-loop on the *estimated* position: the vehicle flies
// so that its position estimate reaches the waypoint, which is how GPS
// spoofing translates into real trajectory deviation (paper Fig. 6). When
// no GPS fix is available the estimator dead-reckons on the commanded
// velocity, accumulating error until an external fix (Collaborative
// Localization) corrects it.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <string>

#include "sesame/geo/geodesy.hpp"
#include "sesame/sim/battery.hpp"
#include "sesame/sim/fleet_state.hpp"
#include "sesame/sim/gps.hpp"

namespace sesame::sim {

/// Flight modes mirroring the ConSert action lattice: Continue Mission /
/// Hold Position / Return to Base / Emergency Land (paper Fig. 1).
enum class FlightMode {
  kIdle,
  kTakeoff,
  kMission,
  kHold,
  kReturnToBase,
  kEmergencyLand,
  kLanded,
  /// Total vehicle loss (airframe down, radio dead). Terminal: the vehicle
  /// ignores every command and never publishes again.
  kCrashed,
};

std::string flight_mode_name(FlightMode m);

struct UavConfig {
  std::string name = "uav";
  double cruise_speed_mps = 8.0;
  double climb_rate_mps = 2.5;
  double descent_rate_mps = 1.5;
  double waypoint_capture_m = 2.0;
  double mission_altitude_m = 30.0;
  /// Motor losses the airframe tolerates with reconfiguration (hexarotor
  /// default: one); one more loss means loss of control.
  std::size_t tolerable_motor_failures = 1;
  /// Cruise-speed penalty per tolerated motor loss (reduced authority).
  double motor_failure_speed_penalty = 0.30;
  BatteryConfig battery;
  GpsConfig gps;
};

/// Steady wind with gusts; shared by all UAVs in a world.
struct Wind {
  double east_mps = 0.0;
  double north_mps = 0.0;
  double gust_sigma_mps = 0.0;
};

/// One simulated multirotor: a *view* over the fleet's struct-of-arrays
/// state. The hot per-vehicle quantities (positions, velocity commands,
/// battery SoC) live in the FleetState the World owns; this object carries
/// the cold per-vehicle state (config, waypoint queue, mode machine,
/// battery/GPS models) plus its fleet index.
class Uav {
 public:
  /// `home` is the takeoff/landing point; the world's local frame is used
  /// for all ENU conversions. `fleet` must outlive the vehicle and already
  /// contain a slot at `index` (World::add_uav arranges both).
  Uav(UavConfig config, const geo::LocalFrame& frame, const geo::GeoPoint& home,
      mathx::Rng& rng, FleetState& fleet, std::size_t index);

  const std::string& name() const noexcept { return config_.name; }
  FlightMode mode() const noexcept { return mode_; }
  const Battery& battery() const noexcept { return battery_; }
  Battery& battery() noexcept { return battery_; }
  Gps& gps() noexcept { return gps_; }
  const Gps& gps() const noexcept { return gps_; }

  /// Ground-truth position (world ENU). The reference points into the
  /// fleet's position array; it is resolved per call, so it stays valid
  /// across later add_uav reallocations as long as it is not cached.
  const geo::EnuPoint& true_position() const noexcept {
    return fleet_->true_pos[index_];
  }
  geo::GeoPoint true_geo() const { return frame_->to_geo(true_position()); }

  /// Navigation estimate the vehicle currently believes (world ENU).
  const geo::EnuPoint& estimated_position() const noexcept {
    return fleet_->est_pos[index_];
  }
  geo::GeoPoint estimated_geo() const {
    return frame_->to_geo(estimated_position());
  }

  /// This vehicle's index into the fleet's struct-of-arrays state.
  std::size_t fleet_index() const noexcept { return index_; }

  /// Estimation error magnitude (metres, ground plane).
  double estimation_error_m() const;

  /// Appends a mission waypoint (world ENU; up_m is the target altitude).
  void add_waypoint(const geo::EnuPoint& wp);
  void clear_waypoints();
  std::size_t waypoints_remaining() const noexcept { return waypoints_.size(); }

  /// Moves all remaining waypoints onto the back of `other`'s queue (task
  /// redistribution between fleet members); returns the number moved.
  std::size_t transfer_waypoints_to(Uav& other);


  /// Injects a motor failure. Tolerated failures degrade cruise authority
  /// (reconfiguration sheds the opposite motor); exceeding the airframe's
  /// tolerance forces an immediate emergency landing.
  void fail_motor();
  std::size_t motors_failed() const noexcept { return motors_failed_; }

  /// Total loss: drops the airframe where it is and enters the terminal
  /// kCrashed mode. Remaining waypoints stay queued so the fleet layer can
  /// transfer them to survivors.
  void force_crash();

  /// Vision-sensor health (camera/IMU fault injection). A failed sensor
  /// removes the vision-based localization guarantee and blinds the
  /// person detector; navigation itself is unaffected.
  void set_vision_sensor_healthy(bool healthy) {
    vision_sensor_healthy_ = healthy;
  }
  bool vision_sensor_healthy() const noexcept { return vision_sensor_healthy_; }

  /// Cruise speed after reconfiguration penalties.
  double effective_cruise_speed() const;

  /// Mode commands (the ConSert/platform layer calls these).
  void command_takeoff();
  void command_hold();
  void command_resume_mission();
  void command_return_to_base();
  void command_emergency_land();

  /// Feeds an externally computed position fix (Collaborative
  /// Localization) into the estimator.
  void correct_estimate(const geo::GeoPoint& fix);


  /// Phase 1 of a step: mode logic and guidance. Computes the commanded
  /// velocity from the vehicle's *own previous-step* state and draws no
  /// randomness, so the world batches this pass over the whole fleet
  /// before any stochastic state advances — same results as the fused
  /// per-vehicle loop, but with the arithmetic-heavy guidance math
  /// streaming over the contiguous fleet arrays.
  void plan(double dt_s);

  /// Phase 2 of a step: gusts, motion integration, GPS estimate, battery.
  /// Consumes the world RNG; the world runs this pass in vehicle order so
  /// the fleet-wide draw sequence matches the pre-split simulation
  /// bit-for-bit.
  void integrate(double dt_s, const Wind& wind);

  /// Distance flown since construction (true path length, metres).
  double odometer_m() const noexcept { return odometer_m_; }

  /// True when the vehicle is airborne.
  bool airborne() const noexcept;

 private:
  UavConfig config_;
  const geo::LocalFrame* frame_;
  mathx::Rng* rng_;
  FleetState* fleet_;
  std::size_t index_;
  Battery battery_;
  Gps gps_;

  geo::EnuPoint home_;
  // Position-hold anchor latched when an emergency landing is commanded;
  // the vehicle station-keeps over it (using its estimate) while
  // descending instead of drifting with the wind.
  geo::EnuPoint emergency_anchor_;
  std::deque<geo::EnuPoint> waypoints_;
  FlightMode mode_ = FlightMode::kIdle;
  BatteryLoad planned_load_ = BatteryLoad::kIdle;  ///< plan() → integrate()

  double odometer_m_ = 0.0;
  std::size_t motors_failed_ = 0;
  bool vision_sensor_healthy_ = true;

  // Mutable views into the fleet arrays (hot state). Const-qualified on
  // purpose: they dereference the fleet pointer, and several const readers
  // (estimation error, remaining path length) share them.
  geo::EnuPoint& true_pos() const noexcept { return fleet_->true_pos[index_]; }
  geo::EnuPoint& est_pos() const noexcept { return fleet_->est_pos[index_]; }
  double& cmd_east_mps() const noexcept {
    return fleet_->cmd_east_mps[index_];
  }
  double& cmd_north_mps() const noexcept {
    return fleet_->cmd_north_mps[index_];
  }
  double& cmd_up_mps() const noexcept { return fleet_->cmd_up_mps[index_]; }

  void navigate_towards(const geo::EnuPoint& target, double dt_s);
  void update_estimate(double dt_s);
  void apply_motion(double dt_s, const Wind& wind);
};

}  // namespace sesame::sim
