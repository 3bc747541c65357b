#include "sesame/sim/uav.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sesame::sim {

std::string flight_mode_name(FlightMode m) {
  switch (m) {
    case FlightMode::kIdle: return "Idle";
    case FlightMode::kTakeoff: return "Takeoff";
    case FlightMode::kMission: return "Mission";
    case FlightMode::kHold: return "Hold";
    case FlightMode::kReturnToBase: return "ReturnToBase";
    case FlightMode::kEmergencyLand: return "EmergencyLand";
    case FlightMode::kLanded: return "Landed";
    case FlightMode::kCrashed: return "Crashed";
  }
  return "unknown";
}

Uav::Uav(UavConfig config, const geo::LocalFrame& frame, const geo::GeoPoint& home,
         mathx::Rng& rng, FleetState& fleet, std::size_t index)
    : config_(std::move(config)), frame_(&frame), rng_(&rng), fleet_(&fleet),
      index_(index), battery_(config_.battery), gps_(config_.gps, rng) {
  if (config_.cruise_speed_mps <= 0.0 || config_.climb_rate_mps <= 0.0 ||
      config_.descent_rate_mps <= 0.0) {
    throw std::invalid_argument("Uav: non-positive speed");
  }
  home_ = frame_->to_enu(home);
  home_.up_m = 0.0;
  true_pos() = home_;
  est_pos() = home_;
  fleet_->soc[index_] = battery_.soc();
}

double Uav::estimation_error_m() const {
  return geo::enu_ground_distance_m(true_pos(), est_pos());
}

void Uav::add_waypoint(const geo::EnuPoint& wp) { waypoints_.push_back(wp); }

void Uav::clear_waypoints() { waypoints_.clear(); }

std::size_t Uav::transfer_waypoints_to(Uav& other) {
  if (&other == this) {
    throw std::invalid_argument("transfer_waypoints_to: self transfer");
  }
  const std::size_t moved = waypoints_.size();
  for (const auto& wp : waypoints_) other.waypoints_.push_back(wp);
  waypoints_.clear();
  return moved;
}

void Uav::command_takeoff() {
  if (mode_ == FlightMode::kIdle || mode_ == FlightMode::kLanded) {
    mode_ = FlightMode::kTakeoff;
  }
}

void Uav::command_hold() {
  if (airborne()) mode_ = FlightMode::kHold;
}

void Uav::command_resume_mission() {
  if (airborne()) mode_ = FlightMode::kMission;
}

void Uav::command_return_to_base() {
  if (airborne()) mode_ = FlightMode::kReturnToBase;
}

void Uav::command_emergency_land() {
  if (airborne()) {
    mode_ = FlightMode::kEmergencyLand;
    emergency_anchor_ = est_pos();
  }
}

void Uav::correct_estimate(const geo::GeoPoint& fix) {
  const geo::EnuPoint e = frame_->to_enu(fix);
  est_pos().east_m = e.east_m;
  est_pos().north_m = e.north_m;
  // Altitude comes from the barometer in practice; keep our own.
}

bool Uav::airborne() const noexcept {
  return mode_ == FlightMode::kTakeoff || mode_ == FlightMode::kMission ||
         mode_ == FlightMode::kHold || mode_ == FlightMode::kReturnToBase ||
         mode_ == FlightMode::kEmergencyLand;
}

void Uav::force_crash() {
  mode_ = FlightMode::kCrashed;
  true_pos().up_m = 0.0;
  est_pos().up_m = 0.0;
  cmd_east_mps() = cmd_north_mps() = cmd_up_mps() = 0.0;
}

void Uav::fail_motor() {
  ++motors_failed_;
  if (motors_failed_ > config_.tolerable_motor_failures && airborne()) {
    command_emergency_land();
  }
}

double Uav::effective_cruise_speed() const {
  const double tolerated = static_cast<double>(
      std::min(motors_failed_, config_.tolerable_motor_failures));
  return config_.cruise_speed_mps *
         std::max(0.2, 1.0 - config_.motor_failure_speed_penalty * tolerated);
}

void Uav::navigate_towards(const geo::EnuPoint& target, double dt_s) {
  // Proportional guidance on the *estimated* position.
  const double de = target.east_m - est_pos().east_m;
  const double dn = target.north_m - est_pos().north_m;
  const double du = target.up_m - est_pos().up_m;
  const double ground = std::sqrt(de * de + dn * dn);

  double ve = 0.0, vn = 0.0;
  if (ground > 1e-6) {
    const double speed =
        std::min(effective_cruise_speed(), ground / std::max(dt_s, 1e-6));
    ve = de / ground * speed;
    vn = dn / ground * speed;
  }
  double vu = 0.0;
  if (std::abs(du) > 1e-6) {
    const double rate = du > 0.0 ? config_.climb_rate_mps : config_.descent_rate_mps;
    vu = std::clamp(du / std::max(dt_s, 1e-6), -rate, rate);
  }
  cmd_east_mps() = ve;
  cmd_north_mps() = vn;
  cmd_up_mps() = vu;
}

void Uav::update_estimate(double dt_s) {
  const auto fix = gps_.read(true_geo(), dt_s);
  if (fix.has_value()) {
    const geo::EnuPoint e = frame_->to_enu(fix->position);
    est_pos().east_m = e.east_m;
    est_pos().north_m = e.north_m;
    est_pos().up_m = true_pos().up_m;  // barometric altitude: near-truth
  } else {
    // Dead reckoning on commanded velocity; wind drift goes unnoticed.
    est_pos().east_m += cmd_east_mps() * dt_s;
    est_pos().north_m += cmd_north_mps() * dt_s;
    est_pos().up_m = true_pos().up_m;
  }
}

void Uav::apply_motion(double dt_s, const Wind& wind) {
  double gust_e = 0.0, gust_n = 0.0;
  if (wind.gust_sigma_mps > 0.0) {
    gust_e = rng_->normal(0.0, wind.gust_sigma_mps);
    gust_n = rng_->normal(0.0, wind.gust_sigma_mps);
  }
  const double ve = cmd_east_mps() + (airborne() ? wind.east_mps + gust_e : 0.0);
  const double vn = cmd_north_mps() + (airborne() ? wind.north_mps + gust_n : 0.0);
  const double de = ve * dt_s;
  const double dn = vn * dt_s;
  const double du = cmd_up_mps() * dt_s;
  true_pos().east_m += de;
  true_pos().north_m += dn;
  true_pos().up_m = std::max(0.0, true_pos().up_m + du);
  odometer_m_ += std::sqrt(de * de + dn * dn + du * du);
}

void Uav::plan(double dt_s) {
  if (dt_s <= 0.0) throw std::invalid_argument("Uav::plan: non-positive dt");
  if (mode_ == FlightMode::kCrashed) return;  // wreckage does not fly

  cmd_east_mps() = cmd_north_mps() = cmd_up_mps() = 0.0;
  BatteryLoad load = BatteryLoad::kIdle;

  switch (mode_) {
    case FlightMode::kIdle:
    case FlightMode::kLanded:
    case FlightMode::kCrashed:
      break;

    case FlightMode::kTakeoff: {
      geo::EnuPoint up = est_pos();
      up.up_m = config_.mission_altitude_m;
      navigate_towards(up, dt_s);
      load = BatteryLoad::kHover;
      if (true_pos().up_m >= config_.mission_altitude_m - 0.5) {
        mode_ = waypoints_.empty() ? FlightMode::kHold : FlightMode::kMission;
      }
      break;
    }

    case FlightMode::kMission: {
      if (waypoints_.empty()) {
        mode_ = FlightMode::kHold;
        load = BatteryLoad::kHover;
        break;
      }
      navigate_towards(waypoints_.front(), dt_s);
      load = BatteryLoad::kCruise;
      const double d = geo::enu_distance_m(est_pos(), waypoints_.front());
      if (d <= config_.waypoint_capture_m) {
        waypoints_.pop_front();
        if (waypoints_.empty()) mode_ = FlightMode::kHold;
      }
      break;
    }

    case FlightMode::kHold:
      load = BatteryLoad::kHover;
      break;

    case FlightMode::kReturnToBase: {
      geo::EnuPoint above_home = home_;
      above_home.up_m = config_.mission_altitude_m;
      const double ground_d = geo::enu_ground_distance_m(est_pos(), home_);
      if (ground_d > config_.waypoint_capture_m) {
        navigate_towards(above_home, dt_s);
        load = BatteryLoad::kCruise;
      } else {
        geo::EnuPoint down = est_pos();
        down.up_m = 0.0;
        navigate_towards(down, dt_s);
        load = BatteryLoad::kHover;
        if (true_pos().up_m <= 0.05) mode_ = FlightMode::kLanded;
      }
      break;
    }

    case FlightMode::kEmergencyLand: {
      geo::EnuPoint down = emergency_anchor_;
      down.up_m = 0.0;
      navigate_towards(down, dt_s);
      load = BatteryLoad::kHover;
      if (true_pos().up_m <= 0.05) mode_ = FlightMode::kLanded;
      break;
    }
  }

  planned_load_ = load;
}

void Uav::integrate(double dt_s, const Wind& wind) {
  if (dt_s <= 0.0) {
    throw std::invalid_argument("Uav::integrate: non-positive dt");
  }
  if (mode_ == FlightMode::kCrashed) return;

  apply_motion(dt_s, wind);
  update_estimate(dt_s);
  battery_.step(dt_s, planned_load_);
  fleet_->soc[index_] = battery_.soc();
  if (battery_.depleted() && airborne() &&
      mode_ != FlightMode::kEmergencyLand) {
    // A dead pack means an uncontrolled descent; model as emergency land.
    command_emergency_land();
  }
}

}  // namespace sesame::sim
