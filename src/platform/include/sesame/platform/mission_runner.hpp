// End-to-end SAR scenario engine: the paper's Fig. 4 platform.
//
// Wires the world simulator, the SAR mission, the per-UAV EDDIs, the IDS +
// Security EDDI, and the ConSert network into one stepped loop, with the
// event injections the evaluation section uses (battery thermal fault,
// message spoofing) and the with/without-SESAME comparison switch.
//
// Behavioural contract mirroring Section V:
//  - SESAME on: the fleet flies while SafeDrones' P(fail) stays below the
//    abort threshold (0.9); crossing it forces an emergency landing. The
//    ConSert network maps degraded evidence onto Hold/Return actions; SAR
//    uncertainty above the 90% threshold triggers the SINADRA descend-and-
//    rescan adaptation.
//  - SESAME off (baseline): naive firmware only — a battery fault triggers
//    an immediate return-to-base and battery swap; spoofing and perception
//    degradation go unnoticed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sesame/conserts/assurance_trace.hpp"
#include "sesame/conserts/uav_network.hpp"
#include "sesame/eddi/uav_eddi.hpp"
#include "sesame/mw/fault_plan.hpp"
#include "sesame/obs/observability.hpp"
#include "sesame/localization/collaborative.hpp"
#include "sesame/platform/database.hpp"
#include "sesame/platform/invariants.hpp"
#include "sesame/platform/recovery.hpp"
#include "sesame/sar/mission.hpp"
#include "sesame/security/ids.hpp"
#include "sesame/sim/comm_link.hpp"
#include "sesame/security/security_eddi.hpp"
#include "sesame/sim/failure_schedule.hpp"
#include "sesame/sim/world.hpp"

namespace sesame::platform {

/// Scenario event: battery thermal fault (paper Fig. 5).
struct BatteryFaultEvent {
  std::string uav;
  double time_s = 250.0;
  double soc_after = 0.40;
  double temp_c = 70.0;
};

/// Scenario event: ROS message spoofing attack (paper Figs. 6-7). From
/// `time_s` an attacker node injects counterfeit position fixes for `uav`,
/// walking its estimate east at `walk_mps`. With SESAME enabled the
/// Security EDDI detects the injection; the platform response disables the
/// victim's GPS input and hands it to Collaborative Localization for a
/// safe landing at its home pad. Without SESAME the attack goes unnoticed.
struct SpoofingEvent {
  std::string uav;
  double time_s = 60.0;
  double walk_mps = 2.0;
};

struct RunnerConfig {
  bool sesame_enabled = true;
  double dt_s = 1.0;
  double max_time_s = 1500.0;
  /// ConSert evaluation period (paper: runtime evaluation, not per-frame).
  double consert_period_s = 5.0;
  /// Inert: ConSert evaluation runs a compiled conserts::Plan, which has
  /// no cache to switch. The key stays because the config JSON (and so
  /// every service cache digest) carries it; it retires with the next
  /// config schema bump.
  bool consert_eval_cache = true;
  /// Baseline battery-swap turnaround on the ground.
  double battery_swap_time_s = 60.0;
  /// Baseline returns to base when state of charge falls below this.
  double baseline_rtb_soc = 0.45;
  std::size_t n_uavs = 3;
  sar::Area area{0.0, 300.0, 0.0, 300.0};
  sar::CoverageConfig coverage;
  std::size_t n_persons = 8;
  std::optional<BatteryFaultEvent> battery_fault;
  std::optional<SpoofingEvent> spoofing;
  /// Mission altitude the SINADRA descend adaptation drops to.
  double descend_altitude_m = 18.0;
  /// Consecutive over-threshold assessments before descending.
  int descend_patience = 3;
  /// Per-UAV EDDI settings; not read from or written to the config JSON.
  /// With SESAME on, setup_sesame overwrites `safeml.measure`,
  /// `safeml.full_scale`, `safeml.high_threshold`, `safeml.low_threshold`
  /// and `dk_uncertainty_baseline` whatever the caller set: tuning those
  /// changes nothing.
  eddi::UavEddiConfig eddi;
  /// C2 link budget: each UAV's comm_link_good evidence comes from the
  /// link quality at its range from the ground station (its home pad).
  sim::CommLinkConfig comm_link;
  /// Fault schedule applied to every bus publication (drop/delay/dup/
  /// reorder; see docs/FAULT_INJECTION.md). When unset, the constructor
  /// falls back to the path in the SESAME_FAULT_PLAN environment variable
  /// — the hook the CI stress job uses.
  std::optional<mw::FaultPlan> fault_plan;
  /// Model the UAV↔GCS radio: telemetry and position-fix messages are
  /// dropped with distance-dependent probability (comm_link budget, GCS
  /// at the middle of the southern base line).
  bool lossy_links = false;
  /// Telemetry-staleness watchdog: a UAV whose last received telemetry is
  /// older than this loses its comm_link_good evidence, demoting the
  /// comm_localization ConSert guarantee until telemetry resumes. The
  /// demotion is edge-triggered: one demotion event per outage, one re-arm
  /// when telemetry resumes.
  double telemetry_staleness_window_s = 5.0;
  /// Vehicle-level fault timetable (docs/ROBUSTNESS.md): timed motor /
  /// sensor / battery / comms-blackout / hard-crash events applied as
  /// mission time passes. Composes with fault_plan (message-level faults).
  std::optional<sim::FailureSchedule> failure_schedule;
  /// Fleet failure-detection & recovery: health heartbeats, the staleness
  /// escalation state machine (re-ping → demote → RTH → declare lost) and
  /// coverage re-planning for lost vehicles. Opt-in: the heartbeat and
  /// ping traffic changes bus counters, so nominal scenarios keep it off.
  bool recovery_enabled = false;
  RecoveryConfig recovery;
  /// Health-heartbeat period while recovery is enabled.
  double health_heartbeat_period_s = 1.0;
  /// Safety-invariant checker bounds. The checker always runs; it draws no
  /// randomness and publishes nothing, so it never perturbs a run.
  InvariantConfig invariants;
  std::uint64_t seed = 7;
};

/// One time-series sample for one UAV.
struct UavTickRecord {
  double time_s = 0.0;
  double p_fail = 0.0;
  double soc = 1.0;
  double battery_temp_c = 25.0;
  sim::FlightMode mode = sim::FlightMode::kIdle;
  conserts::UavAction action = conserts::UavAction::kContinue;
  double altitude_m = 0.0;
  double sar_uncertainty = 0.0;
};

/// Scenario outcome.
struct RunnerResult {
  std::map<std::string, std::vector<UavTickRecord>> series;
  sar::DetectionStats detection;
  /// Time at which every waypoint was consumed; nullopt when never.
  std::optional<double> mission_complete_time_s;
  double total_time_s = 0.0;
  /// Fraction of scenario time each UAV was *available* (airborne in
  /// Takeoff/Mission/Hold, i.e. able to serve the mission): the
  /// availability metric of Fig. 5. Return-to-base legs, battery swaps on
  /// the ground, emergency landings and grounded time count as
  /// unavailable.
  std::map<std::string, double> availability_per_uav;
  /// Fleet mean of availability_per_uav.
  double availability = 0.0;
  /// Number of waypoints moved between UAVs by task redistribution.
  std::size_t waypoints_redistributed = 0;
  /// Whether the SINADRA descend adaptation fired (Section V-B).
  bool descended = false;
  conserts::MissionDecision final_decision =
      conserts::MissionDecision::kCannotComplete;
  /// Security outcome of a SpoofingEvent scenario.
  bool attack_detected = false;
  double attack_detection_time_s = -1.0;
  /// Final ground distance between the spoofed UAV and its home pad
  /// (meaningful when a spoofing event ran; the safe-landing error).
  double spoofed_uav_landing_error_m = -1.0;
  /// Peak ground-truth deviation of the spoofed UAV from its estimate.
  double spoofed_uav_peak_error_m = 0.0;
  /// Fraction of the mission area actually imaged by camera footprints.
  double area_coverage = 0.0;
  /// Best-guarantee transitions recorded by the assurance trace (SESAME
  /// runs only): the runtime certification evidence trail.
  std::vector<conserts::GuaranteeTransition> assurance_trace;
  /// Safety-invariant violations recorded this run (docs/ROBUSTNESS.md).
  /// Empty in a correct build — any entry is a platform regression.
  std::vector<InvariantViolation> invariant_violations;
  /// Vehicles the recovery escalation declared lost (vehicle order).
  std::vector<std::string> uavs_lost;
  /// Recovery latencies for the earliest-lost vehicle, relative to its
  /// failure onset (mission seconds; -1 when nothing was lost or the onset
  /// is unknown): onset → escalation start, and onset → first coverage
  /// re-plan.
  double time_to_detect_loss_s = -1.0;
  double time_to_replan_s = -1.0;
  /// Escalation activity (0 while recovery is off or never triggered).
  std::size_t recovery_pings = 0;
  std::size_t recovery_demotions = 0;
  std::size_t recovery_rth_commands = 0;
  std::size_t recovery_replans = 0;
};

/// The paper's UAV Manager role: translates a ConSert action into vehicle
/// commands. Continue resumes a held vehicle and leaves any other mode
/// alone; Hold, ReturnToBase and EmergencyLand command that mode.
void apply_action(sim::Uav& uav, conserts::UavAction action);

class MissionRunner {
 public:
  explicit MissionRunner(RunnerConfig config);

  /// Runs the scenario to completion (all UAVs grounded and mission over,
  /// or max_time reached) and returns the recorded outcome.
  RunnerResult run();

  /// Attaches observability for the next run() (call before it; the bundle
  /// must outlive the runner). Wires the metrics registry into the world
  /// and bus, the tracer into the IDS, and makes run() emit:
  ///  - a root `sesame.mission.run` span,
  ///  - one `sesame.mission.phase` span per fleet phase
  ///    (launch → search → recovery),
  ///  - one `sesame.mission.consert_eval` span per periodic ConSert
  ///    network evaluation (SESAME runs only),
  ///  - a `sesame.mission.complete` event when the last waypoint is
  ///    consumed, and `sesame.mission.ticks_total` /
  ///    `sesame.mission.consert_evals_total` counters.
  void attach_observability(obs::Observability& o);

  /// Access to the world (benches inspect trajectories after run()).
  sim::World& world() noexcept { return *world_; }

  /// UAV names used by the scenario ("uav1".."uavN").
  const std::vector<std::string>& uav_names() const noexcept { return names_; }

  /// The named UAV's EDDI (SESAME runs only; throws std::out_of_range
  /// otherwise) — diagnostics access to per-monitor assessments.
  const eddi::UavEddi& uav_eddi(const std::string& name) const {
    return *eddis_.at(world_->uav_by_name(name).fleet_index());
  }

  /// Age of the named UAV's last *received* telemetry (mission clock
  /// seconds). 0 while telemetry flows every tick; grows under link loss.
  double telemetry_staleness_s(const std::string& name) const {
    return telemetry_age_s(world_->uav_by_name(name).fleet_index());
  }

 private:
  RunnerConfig config_;
  std::unique_ptr<sim::World> world_;
  // Vehicle names in add order. Everything below addresses a vehicle by
  // its fleet index (== its position in names_ and in the World); names
  // appear only at the API edge, in bus topics, metric labels and trace
  // attributes, and as RunnerResult's map keys.
  std::vector<std::string> names_;
  std::vector<geo::EnuPoint> home_enu_;
  std::vector<sar::SweepPlan> plans_;
  std::unique_ptr<sar::SarMission> mission_;
  std::unique_ptr<DatabaseManager> database_;
  std::unique_ptr<security::IntrusionDetectionSystem> ids_;
  std::shared_ptr<security::SecurityEddi> security_;
  std::vector<std::unique_ptr<eddi::UavEddi>> eddis_;
  /// The compiled ConSert plan and its trace; one binding per vehicle.
  std::unique_ptr<conserts::AssuranceTrace> assurance_trace_;
  std::vector<conserts::UavBinding> consert_uavs_;
  sim::CommLink comm_link_{sim::CommLinkConfig{}};

  obs::Observability* obs_ = nullptr;
  obs::Counter* ticks_counter_ = nullptr;
  obs::Counter* consert_evals_counter_ = nullptr;
  /// Current fleet phase and its span (launch → search → recovery).
  std::string phase_;
  obs::Span phase_span_;

  // Per-vehicle state carried across ticks of run().
  std::vector<double> productive_s_;  ///< time spent serving (availability)
  std::vector<conserts::UavAction> current_action_;
  std::vector<std::vector<UavTickRecord>> series_;
  double next_consert_eval_s_ = 0.0;

  // Baseline battery-swap state per vehicle: -1 = no swap pending,
  // >= 1e18 = landing commanded, else the mission time the swap finishes.
  std::vector<double> swap_until_;
  std::size_t battery_fault_uav_ = 0;  ///< fleet index, when configured
  bool fault_injected_ = false;
  int over_threshold_streak_ = 0;
  bool descended_ = false;

  // Spoofing-scenario state. Attack attribution is per-UAV: an IDS alert
  // on a vehicle's fix topic marks only that vehicle compromised, so the
  // rest of the fleet keeps its GPS-based navigation guarantees.
  std::vector<std::uint8_t> compromised_;
  mw::Subscription alert_subscription_;
  std::size_t spoof_victim_ = 0;  ///< fleet index, when configured
  double spoof_offset_m_ = 0.0;
  bool spoof_response_started_ = false;
  std::unique_ptr<localization::CollaborativeLocalizer> cl_;
  std::unique_ptr<localization::SafeLandingGuide> landing_guide_;

  // Fault-injection wiring. Subscriptions are declared after world_ so
  // they release their bus registrations before the bus is destroyed.
  std::unique_ptr<mw::FaultInjector> fault_injector_;
  mw::Subscription fault_policy_sub_;
  std::vector<double> last_telemetry_rx_s_;
  std::vector<mw::Subscription> telemetry_subscriptions_;
  std::vector<obs::Gauge*> staleness_gauges_;

  // Failure & recovery wiring (docs/ROBUSTNESS.md). vehicle_failures_
  // holds a bus policy registration, so it too is declared after world_.
  std::unique_ptr<sim::FailureInjector> vehicle_failures_;
  std::unique_ptr<RecoveryManager> recovery_;
  std::unique_ptr<InvariantChecker> invariants_;
  /// Edge-triggered comm demotion state: one demotion per outage, one
  /// re-arm on recovery (gather_inputs reads this, not raw staleness).
  std::vector<std::uint8_t> watchdog_demoted_;
  std::vector<double> last_health_rx_s_;
  std::vector<mw::Subscription> health_subscriptions_;
  std::vector<obs::Counter*> comm_demotion_counters_;
  std::size_t recovery_replans_ = 0;
  /// Waypoints moved by any hand-over: ConSert, recovery or spoofing.
  std::size_t waypoints_redistributed_ = 0;
  double first_replan_time_s_ = -1.0;

  void setup_world();
  void setup_sesame();
  void setup_recovery();
  std::vector<std::vector<double>> collect_safeml_reference();

  // The tick stages of run(), in call order (docs/ARCHITECTURE.md).
  void inject_events();
  void step_world();
  void recover();
  void respond_to_spoofing(RunnerResult& result);
  void tick_mission();
  void sesame_tick();
  void baseline_policy(std::size_t i);
  void record();
  bool finished(RunnerResult& result);
  void finish_run(RunnerResult& result);

  // Helpers of the stages.
  void begin_phase(const std::string& next);
  void end_phase();
  double telemetry_age_s(std::size_t i) const;
  void set_comm_demoted(std::size_t i, bool demoted);
  void declare_lost(std::size_t i);
  void record_replan(std::size_t from, std::size_t to);
  void start_spoof_response(RunnerResult& result);
  eddi::EddiInputs gather_inputs(std::size_t i);
  void collect_evidence();
  void redistribute_dropped_out();
  void descend_if_uncertain();
  double failure_onset_s(std::size_t i) const;
};

}  // namespace sesame::platform
