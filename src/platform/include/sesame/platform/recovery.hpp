// Fleet-level failure detection and recovery (docs/ROBUSTNESS.md).
//
// The RecoveryManager is the GCS-side watchdog over vehicle liveness: it
// consumes a per-UAV staleness signal (mission seconds since the last
// telemetry *or* health heartbeat arrived) and escalates through a bounded
// state machine when a vehicle goes quiet:
//
//   Healthy --staleness > window--> Pinging --pings exhausted--> Demoted
//     --grace elapsed--> RthCommanded --timeout--> Lost (terminal)
//
// Every transition fires a caller-supplied hook; the manager itself owns
// no world, bus, or mission reference, which keeps it unit-testable and
// keeps all side effects (publishing pings, demoting ConSert evidence,
// commanding RTH, re-planning coverage) in the platform layer that wires
// it. Any state except Lost returns to Healthy the moment the staleness
// signal recovers (a blackout that ends re-arms the vehicle); Lost is
// terminal — a vehicle written off stays written off even if its radio
// comes back, it just flies home with no tasks.
//
// Vehicles are addressed by their index in the construction-order name
// list (MissionRunner builds it in fleet order, so the index is the world
// fleet index); names only label metrics, trace events and lost_uavs().
//
// Determinism: the manager iterates vehicles in construction order, holds
// no randomness, and advances purely on the staleness values it is handed,
// so identical runs produce identical escalation timelines.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sesame/obs/observability.hpp"

namespace sesame::platform {

/// Escalation bounds. With the defaults a vehicle that goes permanently
/// silent at time T is declared lost at T + window + ping_timeout * (1 +
/// backoff) + demote_grace + rth_timeout = T + 36 s.
struct RecoveryConfig {
  /// Staleness above this starts the escalation (matches the telemetry
  /// watchdog window by default).
  double staleness_window_s = 5.0;
  /// Wait after the first re-ping before concluding it went unanswered.
  double ping_timeout_s = 2.0;
  /// Re-pings before demoting. Each successive wait is multiplied by
  /// `ping_backoff` (bounded retry with exponential backoff).
  std::size_t max_pings = 2;
  double ping_backoff = 2.0;
  /// Time between ConSert demotion and commanding return-to-home.
  double demote_grace_s = 5.0;
  /// Time after the RTH command before the vehicle is declared lost.
  double rth_timeout_s = 20.0;
  /// Platform safety net: a serving vehicle below this state of charge is
  /// sent home (keeps the min-SoC invariant enforceable under battery
  /// faults). Applied by MissionRunner, not by the state machine.
  double min_soc_rtb = 0.10;
};

enum class RecoveryState { kHealthy, kPinging, kDemoted, kRthCommanded, kLost };

/// Side effects of the escalation, supplied by the owner; each receives the
/// vehicle's index. Unset hooks are skipped. Hooks run synchronously inside
/// step(), in vehicle order.
struct RecoveryHooks {
  std::function<void(std::size_t)> ping;          ///< publish a re-ping
  std::function<void(std::size_t)> demote;        ///< drop ConSert service level
  std::function<void(std::size_t)> command_rth;   ///< send the vehicle home
  std::function<void(std::size_t)> declare_lost;  ///< write it off, re-plan
  std::function<void(std::size_t)> recovered;     ///< staleness recovered
};

/// Escalation timestamps of one vehicle (mission seconds; -1 = never).
struct RecoveryTimes {
  double detect_s = -1.0;  ///< first staleness trip (escalation start)
  double lost_s = -1.0;    ///< declared lost
};

class RecoveryManager {
 public:
  RecoveryManager(std::vector<std::string> uavs, RecoveryConfig config,
                  RecoveryHooks hooks);

  /// Attaches (nullptr: detaches) observability. While attached the manager
  /// maintains `sesame.platform.recovery_pings_total{uav}`,
  /// `sesame.platform.recovery_demotions_total{uav}`,
  /// `sesame.platform.rth_commanded_total{uav}`,
  /// `sesame.platform.uav_lost_total` and
  /// `sesame.platform.recovery_recovered_total`, and emits
  /// `sesame.recovery.{ping,demote,rth_commanded,uav_lost,recovered}`
  /// trace events.
  void attach_observability(obs::Observability* o);

  /// Per-UAV staleness signal (mission seconds since last contact), by
  /// vehicle index.
  using StalenessFn = std::function<double(std::size_t)>;

  /// Advances the state machine to `now_s`. Call once per platform tick.
  void step(double now_s, const StalenessFn& staleness);

  /// Queries by vehicle index; throw std::out_of_range past the fleet.
  RecoveryState state(std::size_t uav) const { return tracks_.at(uav).state; }
  bool lost(std::size_t uav) const {
    return state(uav) == RecoveryState::kLost;
  }
  /// Names of the vehicles declared lost, in vehicle order.
  std::vector<std::string> lost_uavs() const;
  const RecoveryTimes& times(std::size_t uav) const {
    return tracks_.at(uav).times;
  }

  std::size_t pings_sent() const noexcept { return pings_sent_; }
  std::size_t demotions() const noexcept { return demotions_; }
  std::size_t rth_commands() const noexcept { return rth_commands_; }
  std::size_t recoveries() const noexcept { return recoveries_; }

 private:
  struct Track {
    RecoveryState state = RecoveryState::kHealthy;
    double deadline_s = 0.0;
    std::size_t pings = 0;
    RecoveryTimes times;
  };

  void escalate(std::size_t i, double now_s);
  void emit(const char* event, std::size_t i, double now_s);

  // Vehicles in construction order; tracks_ and the per-UAV counters are
  // parallel vectors indexed the same way.
  std::vector<std::string> uavs_;
  RecoveryConfig config_;
  RecoveryHooks hooks_;
  std::vector<Track> tracks_;

  std::size_t pings_sent_ = 0;
  std::size_t demotions_ = 0;
  std::size_t rth_commands_ = 0;
  std::size_t recoveries_ = 0;

  obs::Observability* obs_ = nullptr;
  obs::Counter* lost_counter_ = nullptr;
  obs::Counter* recovered_counter_ = nullptr;
  std::vector<obs::Counter*> ping_counters_;
  std::vector<obs::Counter*> demote_counters_;
  std::vector<obs::Counter*> rth_counters_;
};

}  // namespace sesame::platform
