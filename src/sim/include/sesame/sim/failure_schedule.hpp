// Per-vehicle failure schedules: UAV-level fault modes for robustness
// testing.
//
// The mw::FaultPlan layer (docs/FAULT_INJECTION.md) perturbs *messages*;
// this layer perturbs *vehicles*. A FailureSchedule lists timed fault
// events against named UAVs — motor-efficiency degradation, vision-sensor
// dropout, battery-cell faults, comms blackouts and hard crashes — and a
// FailureInjector applies them as the world clock passes each event time.
// Both layers compose: a chaos campaign can fly a fleet through message
// loss *and* vehicle failures in the same run.
//
// Determinism contract (the same one the campaign layer relies on):
//  - A schedule is plain data, sorted by (time, uav, mode); applying it
//    draws nothing from the world RNG, so enabling a schedule never
//    perturbs the trajectories of vehicles it does not touch.
//  - FailureSchedule::chaos(seed, ...) derives a randomized schedule from
//    its own splitmix/xoshiro stream: the same (seed, fleet, profile)
//    yields the same schedule on every platform and thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sesame/mw/bus.hpp"
#include "sesame/sim/world.hpp"

namespace sesame::sim {

/// Vehicle-level fault modes (survey taxonomy: actuation, sensing, power,
/// communication, total loss).
enum class FailureMode {
  kMotorDegradation,  ///< one motor fails; reconfiguration sheds authority
  kSensorDropout,     ///< vision sensor blind for `duration_s`
  kBatteryCellFault,  ///< thermal cell fault: SoC collapses to `soc_after`
  kCommsBlackout,     ///< all C2 traffic of this UAV lost for `duration_s`
  kHardCrash,         ///< total loss at `time_s`: vehicle down, radio dead
};

std::string failure_mode_name(FailureMode m);
/// Inverse of failure_mode_name. Throws std::invalid_argument on an
/// unknown name (config files are validated, not silently defaulted).
FailureMode failure_mode_from_name(const std::string& name);

/// One timed fault against one vehicle.
struct FailureEvent {
  std::string uav;
  FailureMode mode = FailureMode::kSensorDropout;
  double time_s = 0.0;
  /// Outage length for kSensorDropout / kCommsBlackout (others ignore it;
  /// <= 0 means the outage never ends).
  double duration_s = 0.0;
  /// kBatteryCellFault: usable charge after the collapse.
  double soc_after = 0.35;
  /// kBatteryCellFault: cell temperature after the fault.
  double temp_c = 70.0;
};

/// Chaos-derivation knobs: how aggressive a randomized schedule is.
struct ChaosProfile {
  /// Events drawn per vehicle: uniform in [0, max_events_per_uav].
  std::size_t max_events_per_uav = 2;
  /// Event times are uniform in [earliest_time_s, latest_time_s].
  double earliest_time_s = 60.0;
  double latest_time_s = 600.0;
  /// Outage lengths for dropout/blackout events.
  double min_duration_s = 15.0;
  double max_duration_s = 60.0;
  /// Relative draw weights per mode, in FailureMode declaration order
  /// (motor, sensor, battery, comms, crash). Crash is rare by default:
  /// one per run is already a fleet-level emergency.
  double weights[5] = {1.0, 1.0, 1.0, 1.0, 0.5};
  /// At most this many hard crashes across the whole fleet (a schedule
  /// that downs every vehicle tests nothing but the mission timeout).
  std::size_t max_hard_crashes = 1;
};

/// A per-vehicle fault timetable.
struct FailureSchedule {
  std::vector<FailureEvent> events;

  /// Canonical order: (time, uav, mode). Application order is then a pure
  /// function of the schedule, not of construction order.
  void sort();

  /// Derives a randomized schedule for `uavs` from `seed` alone — same
  /// inputs, same schedule, independent of threads or call site.
  static FailureSchedule chaos(std::uint64_t seed,
                               const std::vector<std::string>& uavs,
                               const ChaosProfile& profile = {});
};

/// Applies a FailureSchedule to a world as mission time passes. Step once
/// per world step, *after* World::step, with the current mission clock.
///
/// Comms blackouts install a DeliveryPolicy on the world's bus that drops
/// every message published by the blacked-out vehicle and every message
/// addressed to its C2 topics while the outage is active; the policy is
/// time-driven and draws no randomness. Hard crashes go through
/// World::crash_uav, which also drains the vehicle's queued delayed
/// messages (a dead radio cannot deliver what it never finished sending).
class FailureInjector {
 public:
  FailureInjector(World& world, FailureSchedule schedule);
  ~FailureInjector();
  FailureInjector(const FailureInjector&) = delete;
  FailureInjector& operator=(const FailureInjector&) = delete;

  /// Applies every event whose time has arrived and expires finished
  /// outages. Returns the number of events newly applied this call.
  std::size_t step(double now_s);

  /// Events applied so far.
  std::size_t events_applied() const noexcept { return applied_; }

  /// True while vehicle `uav` (fleet index) is inside an active comms
  /// blackout.
  bool comms_blacked_out(std::size_t uav) const;

  const FailureSchedule& schedule() const noexcept { return schedule_; }

 private:
  class BlackoutGate;  // DeliveryPolicy (defined in failure_schedule.cpp)

  void apply(const FailureEvent& event, std::size_t i, double now_s);

  World* world_;
  FailureSchedule schedule_;
  /// Fleet index of each (sorted) schedule event's vehicle.
  std::vector<std::size_t> event_uav_;
  std::size_t next_event_ = 0;
  std::size_t applied_ = 0;

  /// Active timed outages, expired by step().
  struct Outage {
    std::size_t uav = 0;  ///< fleet index
    FailureMode mode = FailureMode::kSensorDropout;
    double until_s = 0.0;  ///< <= start means never expires
    bool forever = false;
  };
  std::vector<Outage> outages_;

  std::unique_ptr<BlackoutGate> gate_;
  mw::Subscription gate_sub_;
};

}  // namespace sesame::sim
