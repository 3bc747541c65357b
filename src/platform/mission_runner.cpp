#include "sesame/platform/mission_runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <ranges>
#include <stdexcept>
#include <unordered_map>

#include "sesame/geo/geodesy.hpp"
#include "sesame/mathx/stats.hpp"
#include "sesame/safeml/distances.hpp"
#include "sesame/security/attack_tree.hpp"

namespace sesame::platform {

namespace {

// Mission-area anchor (Nicosia test field, as in the KIOS deployments).
const geo::GeoPoint kOrigin{35.1856, 33.3823, 0.0};

sinadra::AltitudeBand altitude_band(double altitude_m) {
  if (altitude_m < 25.0) return sinadra::AltitudeBand::kLow;
  if (altitude_m < 45.0) return sinadra::AltitudeBand::kMedium;
  return sinadra::AltitudeBand::kHigh;
}

/// Airborne and able to serve the mission: what the energy floor recalls
/// and what Fig. 5 availability counts.
bool serving(sim::FlightMode mode) {
  return mode == sim::FlightMode::kTakeoff ||
         mode == sim::FlightMode::kMission || mode == sim::FlightMode::kHold;
}

}  // namespace

void apply_action(sim::Uav& uav, conserts::UavAction action) {
  switch (action) {
    case conserts::UavAction::kContinueExtended:
    case conserts::UavAction::kContinue:
      if (uav.mode() == sim::FlightMode::kHold) uav.command_resume_mission();
      break;
    case conserts::UavAction::kHold:
      uav.command_hold();
      break;
    case conserts::UavAction::kReturnToBase:
      uav.command_return_to_base();
      break;
    case conserts::UavAction::kEmergencyLand:
      uav.command_emergency_land();
      break;
  }
}

MissionRunner::MissionRunner(RunnerConfig config) : config_(std::move(config)) {
  if (config_.n_uavs == 0) throw std::invalid_argument("MissionRunner: no UAVs");
  for (const double t :
       {config_.dt_s, config_.max_time_s, config_.consert_period_s,
        config_.telemetry_staleness_window_s,
        config_.health_heartbeat_period_s}) {
    if (!std::isfinite(t) || t <= 0.0) {
      throw std::invalid_argument(
          "MissionRunner: non-positive or non-finite timing");
    }
  }
  if (!config_.fault_plan) {
    // CI stress hook: a plan file named in the environment applies to every
    // runner that was not given an explicit plan.
    if (const char* path = std::getenv("SESAME_FAULT_PLAN")) {
      config_.fault_plan = mw::load_fault_plan(path);
    }
  }
  comm_link_ = sim::CommLink(config_.comm_link);
  setup_world();
  if (config_.sesame_enabled) setup_sesame();
}

void MissionRunner::setup_world() {
  world_ = std::make_unique<sim::World>(kOrigin, config_.seed);

  for (std::size_t i = 0; i < config_.n_uavs; ++i) {
    sim::UavConfig uc;
    uc.name = "uav" + std::to_string(i + 1);
    uc.mission_altitude_m = config_.coverage.altitude_m;
    names_.push_back(uc.name);
    // Bases spread along the southern edge of the area.
    const geo::EnuPoint home_enu{
        config_.area.east_min +
            (static_cast<double>(i) + 0.5) * config_.area.width() /
                static_cast<double>(config_.n_uavs),
        config_.area.north_min - 20.0, 0.0};
    home_enu_.push_back(home_enu);
    world_->add_uav(uc, world_->frame().to_geo(home_enu));
  }

  // Persons scattered uniformly across the mission area.
  for (std::size_t p = 0; p < config_.n_persons; ++p) {
    world_->add_person(
        {world_->rng().uniform(config_.area.east_min, config_.area.east_max),
         world_->rng().uniform(config_.area.north_min, config_.area.north_max),
         0.0});
  }

  database_ = std::make_unique<DatabaseManager>(world_->bus());
  database_->allow_client("gcs");
  for (const auto& name : names_) database_->attach_uav(name);

  plans_ = sar::plan_coverage(config_.area, config_.n_uavs, config_.coverage);
  mission_ = std::make_unique<sar::SarMission>(*world_, names_, plans_);
  mission_->enable_coverage_tracking(config_.area);

  if (config_.fault_plan) {
    fault_injector_ = std::make_unique<mw::FaultInjector>(*config_.fault_plan);
    fault_policy_sub_ = world_->bus().add_delivery_policy(fault_injector_.get());
  }
  if (config_.lossy_links) {
    sim::LossyLinkConfig llc;
    llc.link = config_.comm_link;
    // GCS at the middle of the southern base line, level with the pads.
    llc.gcs_enu = {(config_.area.east_min + config_.area.east_max) / 2.0,
                   config_.area.north_min - 20.0, 0.0};
    // Fading/drop stream decoupled from the world seed so turning the link
    // model on never changes trajectories of the same-seed clean run.
    llc.seed = config_.seed ^ 0x9E3779B97F4A7C15ULL;
    world_->enable_lossy_links(llc);
  }

  // Scenario events name their vehicle; resolve it once (an unknown name
  // throws std::out_of_range here).
  if (config_.battery_fault) {
    battery_fault_uav_ =
        world_->uav_by_name(config_.battery_fault->uav).fleet_index();
  }
  if (config_.spoofing) {
    spoof_victim_ = world_->uav_by_name(config_.spoofing->uav).fleet_index();
  }

  // Telemetry-staleness watchdog: track the newest *received* sample per
  // UAV. max() keeps reordered or delayed arrivals from rolling time back.
  last_telemetry_rx_s_.assign(names_.size(), 0.0);
  watchdog_demoted_.assign(names_.size(), 0);
  swap_until_.assign(names_.size(), -1.0);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    telemetry_subscriptions_.push_back(world_->bus().subscribe<sim::Telemetry>(
        sim::telemetry_topic(names_[i]),
        [this, i](const mw::MessageHeader&, const sim::Telemetry& t) {
          auto& last = last_telemetry_rx_s_[i];
          last = std::max(last, t.time_s);
        }));
  }

  // Vehicle-level fault timetable; composes with the message-level
  // fault_plan above (both can be active in one run).
  if (config_.failure_schedule) {
    vehicle_failures_ = std::make_unique<sim::FailureInjector>(
        *world_, *config_.failure_schedule);
  }
  invariants_ = std::make_unique<InvariantChecker>(config_.invariants);
  if (config_.recovery_enabled) setup_recovery();

  for (std::size_t i = 0; i < names_.size(); ++i) {
    world_->uav(i).command_takeoff();
  }
}

void MissionRunner::setup_recovery() {
  world_->enable_health_heartbeats(config_.health_heartbeat_period_s);
  last_health_rx_s_.assign(names_.size(), 0.0);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    health_subscriptions_.push_back(
        world_->bus().subscribe<sim::HealthHeartbeat>(
            sim::health_topic(names_[i]),
            [this, i](const mw::MessageHeader&,
                      const sim::HealthHeartbeat& hb) {
              auto& last = last_health_rx_s_[i];
              last = std::max(last, hb.time_s);
            }));
  }

  RecoveryHooks hooks;
  hooks.ping = [this](std::size_t i) {
    // The ping rides the bus so a blacked-out vehicle genuinely misses it;
    // a reachable one answers with an immediate telemetry publication.
    world_->bus().publish(sim::ping_topic(names_[i]), world_->time_s(), "gcs",
                          world_->time_s());
  };
  hooks.demote = [this](std::size_t i) { set_comm_demoted(i, true); };
  hooks.command_rth = [this](std::size_t i) {
    world_->uav(i).command_return_to_base();
  };
  hooks.declare_lost = [this](std::size_t i) { declare_lost(i); };
  RecoveryConfig rc = config_.recovery;
  // The escalation window tracks the watchdog window unless overridden.
  rc.staleness_window_s =
      std::max(rc.staleness_window_s, config_.telemetry_staleness_window_s);
  recovery_ =
      std::make_unique<RecoveryManager>(names_, rc, std::move(hooks));
}

double MissionRunner::telemetry_age_s(std::size_t i) const {
  return std::max(0.0, world_->time_s() - last_telemetry_rx_s_[i]);
}

void MissionRunner::set_comm_demoted(std::size_t i, bool demoted) {
  std::uint8_t& flag = watchdog_demoted_[i];
  if (static_cast<bool>(flag) == demoted) return;  // edge-triggered
  flag = demoted ? 1 : 0;
  if (obs_ == nullptr) return;
  if (demoted) comm_demotion_counters_[i]->inc();
  obs_->tracer.event(
      demoted ? "sesame.platform.comm_demoted" : "sesame.platform.comm_rearmed",
      {{"uav", names_[i]}, {"t_s", obs::attr_value(world_->time_s())}});
}

double MissionRunner::failure_onset_s(std::size_t i) const {
  if (!config_.failure_schedule) return -1.0;
  double onset = -1.0;
  for (const auto& e : config_.failure_schedule->events) {
    if (e.uav != names_[i]) continue;
    if (e.mode != sim::FailureMode::kHardCrash &&
        e.mode != sim::FailureMode::kCommsBlackout) {
      continue;
    }
    if (onset < 0.0 || e.time_s < onset) onset = e.time_s;
  }
  return onset;
}

void MissionRunner::declare_lost(std::size_t i) {
  // The wreck's in-flight traffic must not arrive after the write-off.
  world_->drop_pending_from(i);
  if (!mission_->active(i)) return;

  // In SESAME runs the ConSert dropped-out path may already have moved the
  // wreck's waypoints to a survivor (it reacts within one evaluation
  // period). Nothing left to absorb: just strike the vehicle off the
  // mission roster so the lost_uav_serving invariant sees it inert.
  // Otherwise re-plan coverage: hand the remaining waypoints to a
  // survivor, or, when none can absorb them, retire the vehicle so the
  // mission stops counting it (its remaining coverage is abandoned).
  const auto takeover = world_->uav(i).waypoints_remaining() == 0
                            ? std::nullopt
                            : mission_->takeover_for(i);
  if (!takeover) {
    mission_->retire(i);
    return;
  }
  waypoints_redistributed_ += mission_->redistribute(i, *takeover);
  world_->uav(*takeover).command_resume_mission();
  record_replan(i, *takeover);
}

void MissionRunner::record_replan(std::size_t from, std::size_t to) {
  ++recovery_replans_;
  if (first_replan_time_s_ < 0.0) first_replan_time_s_ = world_->time_s();
  if (obs_ != nullptr) {
    obs_->tracer.event("sesame.recovery.replan",
                       {{"from", names_[from]},
                        {"to", names_[to]},
                        {"t_s", obs::attr_value(world_->time_s())}});
  }
}

std::vector<std::vector<double>> MissionRunner::collect_safeml_reference() {
  // Training-time reference: frame features captured across the validated
  // low-altitude band (the detector's training domain). A single-altitude
  // reference would make SafeML flag a 2 m altitude change as drift.
  const auto& detector = mission_->detector();
  std::vector<std::vector<double>> reference(
      perception::FrameFeatures::kNumFeatures);
  for (int i = 0; i < 400; ++i) {
    const double alt = world_->rng().uniform(0.7 * config_.descend_altitude_m,
                                             1.6 * config_.descend_altitude_m);
    const auto v = detector.frame_features(alt, world_->rng()).as_vector();
    for (std::size_t k = 0; k < v.size(); ++k) reference[k].push_back(v[k]);
  }
  return reference;
}

void MissionRunner::setup_sesame() {
  // IDS + Security EDDI watching the fix channels.
  ids_ = std::make_unique<security::IntrusionDetectionSystem>(world_->bus());
  // Fix topic -> fleet index, for attributing alerts.
  std::unordered_map<std::string, std::size_t> fix_topic_uav;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    std::string topic = sim::position_fix_topic(names_[i]);
    ids_->authorize(topic, "collaborative_localization");
    ids_->track_position_topic(topic);
    fix_topic_uav.emplace(std::move(topic), i);
  }
  security_ = std::make_shared<security::SecurityEddi>(
      world_->bus(), security::make_spoofing_attack_tree());

  // Per-UAV attack attribution from the alert stream.
  compromised_.assign(names_.size(), 0);
  alert_subscription_ = world_->bus().subscribe<security::IdsAlert>(
      security::ids_alert_topic(),
      [this, fix_topic_uav = std::move(fix_topic_uav)](
          const mw::MessageHeader&, const security::IdsAlert& alert) {
        if (const auto it = fix_topic_uav.find(alert.topic);
            it != fix_topic_uav.end()) {
          compromised_[it->second] = 1;
        }
      });

  // One prepared SafeML reference per runner, shared by the calibration
  // below and every UAV's monitor.
  const safeml::ReferenceSet reference(collect_safeml_reference());

  // The platform deployment pins the Wasserstein measure: KS saturates at
  // 1.0, which leaves too little contrast between the band-internal
  // variation of clean flight and a genuine altitude-regime shift. The
  // scale is calibrated below, so the measure's units cancel out.
  config_.eddi.safeml.measure = safeml::Measure::kWasserstein;
  config_.eddi.safeml.full_scale = 1e-9;  // floor; calibration raises it
  // Confidence bands for the calibrated scale: clean single-altitude
  // windows sit ~p95 (-> confidence 0.6, classified High); the
  // high-altitude regime lands several band-widths out (-> near 0).
  config_.eddi.safeml.high_threshold = 0.60;
  config_.eddi.safeml.low_threshold = 0.30;

  // Design-time SafeML calibration: runtime windows come from a *single*
  // altitude at a time while the reference spans the validated band, so
  // the no-drift self-distance is nonzero. Size full_scale from the p95
  // self-distance of single-altitude windows inside the band, exactly as
  // a deployment would calibrate against held-out validation flights.
  {
    const auto& detector = mission_->detector();
    const std::size_t features = reference.num_features();
    std::vector<double> self_distances;
    for (int trial = 0; trial < 60; ++trial) {
      const double alt = world_->rng().uniform(
          0.8 * config_.descend_altitude_m, 1.4 * config_.descend_altitude_m);
      std::vector<std::vector<double>> window(features);
      for (std::size_t i = 0; i < config_.eddi.safeml.window; ++i) {
        const auto v = detector.frame_features(alt, world_->rng()).as_vector();
        for (std::size_t k = 0; k < v.size(); ++k) window[k].push_back(v[k]);
      }
      double total = 0.0;
      for (std::size_t k = 0; k < features; ++k) {
        std::sort(window[k].begin(), window[k].end());
        total += reference[k].distance(config_.eddi.safeml.measure, window[k]);
      }
      self_distances.push_back(total / static_cast<double>(features));
    }
    const double p95 = mathx::quantile(self_distances, 0.95);
    config_.eddi.safeml.full_scale =
        std::max(config_.eddi.safeml.full_scale,
                 p95 / (1.0 - config_.eddi.safeml.high_threshold));
  }

  // DeepKnowledge design-time assets: a small detector-verifier MLP trained
  // on low-altitude detection features, analyzed against the high-altitude
  // (shifted) regime. Shared across the fleet (one model per vehicle type).
  const auto& detector = mission_->detector();
  std::vector<std::vector<double>> dk_train, dk_targets, dk_shifted;
  for (int i = 0; i < 200; ++i) {
    perception::Detection d;
    d.confidence = world_->rng().uniform(0.6, 0.999);
    // Training domain: the low-altitude band the detector was validated
    // at; the shifted domain is the high-altitude regime.
    const double train_alt =
        world_->rng().uniform(0.7 * config_.descend_altitude_m,
                              1.6 * config_.descend_altitude_m);
    dk_train.push_back(detector.detection_features(d, train_alt, world_->rng()));
    dk_targets.push_back({1.0});
    d.confidence = world_->rng().uniform(0.2, 0.9);
    dk_shifted.push_back(detector.detection_features(
        d, world_->rng().uniform(50.0, 75.0), world_->rng()));
  }
  auto dk_model = std::make_shared<deepknowledge::Mlp>(
      std::vector<std::size_t>{perception::PersonDetector::kDetectionFeatureCount,
                               8, 1},
      world_->rng());
  for (int epoch = 0; epoch < 3; ++epoch) {
    dk_model->train_epoch(dk_train, dk_targets, 0.05, world_->rng());
  }
  auto dk_analyzer = std::make_shared<deepknowledge::Analyzer>(
      *dk_model, dk_train, dk_shifted);

  // DK in-domain baseline: coverage uncertainty of single-altitude windows
  // inside the validated band (mirrors the SafeML calibration above).
  {
    double acc = 0.0;
    const int trials = 20;
    for (int trial = 0; trial < trials; ++trial) {
      const double alt = world_->rng().uniform(
          0.8 * config_.descend_altitude_m, 1.4 * config_.descend_altitude_m);
      std::vector<std::vector<double>> window;
      for (int i = 0; i < 16; ++i) {
        perception::Detection d;
        d.confidence = std::clamp(
            world_->rng().normal(detector.detection_probability(alt), 0.08),
            0.01, 0.999);
        window.push_back(detector.detection_features(d, alt, world_->rng()));
      }
      acc += dk_analyzer->assess(*dk_model, window).uncertainty;
    }
    config_.eddi.dk_uncertainty_baseline = acc / trials;
  }

  eddis_.reserve(names_.size());
  conserts::ConSertNetwork network;
  for (const auto& name : names_) {
    auto e = std::make_unique<eddi::UavEddi>(name, config_.eddi, reference);
    e->attach_security(security_);
    e->attach_deepknowledge(dk_model, dk_analyzer, 16);
    eddis_.push_back(std::move(e));
    conserts::add_uav_conserts(network, name);
  }
  assurance_trace_ =
      std::make_unique<conserts::AssuranceTrace>(conserts::Plan(network));
  consert_uavs_.reserve(names_.size());
  for (const auto& name : names_) {
    consert_uavs_.emplace_back(assurance_trace_->plan(), name);
  }
}

void MissionRunner::attach_observability(obs::Observability& o) {
  obs_ = &o;
  world_->set_metrics(&o.metrics);
  if (ids_) ids_->set_observability(&o);
  ticks_counter_ = &o.metrics.counter("sesame.mission.ticks_total");
  consert_evals_counter_ = &o.metrics.counter("sesame.mission.consert_evals_total");
  staleness_gauges_.assign(names_.size(), nullptr);
  comm_demotion_counters_.assign(names_.size(), nullptr);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const auto& name = names_[i];
    staleness_gauges_[i] = &o.metrics.gauge(
        "sesame.platform.telemetry_staleness_s", {{"uav", name}});
    comm_demotion_counters_[i] = &o.metrics.counter(
        "sesame.platform.comm_demotions_total", {{"uav", name}});
  }
  if (recovery_) recovery_->attach_observability(&o);
  if (invariants_) invariants_->attach_observability(&o);
}

eddi::EddiInputs MissionRunner::gather_inputs(std::size_t i) {
  const sim::Uav& uav = world_->uav(i);
  eddi::EddiInputs in;
  in.dt_s = config_.dt_s;
  in.telemetry.battery_soc = uav.battery().soc();
  in.telemetry.battery_temp_c = uav.battery().temperature_c();
  // Jetson junction temperature tracks ambient plus compute load.
  in.telemetry.processor_temp_c = 45.0 + (uav.airborne() ? 10.0 : 0.0);
  in.telemetry.motors_failed = uav.motors_failed();

  const double alt = uav.true_position().up_m;
  if (uav.airborne() && alt > 1.0 && uav.vision_sensor_healthy()) {
    const auto& detector = mission_->detector();
    in.frame_features = detector.frame_features(alt, world_->rng()).as_vector();
    // DeepKnowledge channel: per-detection features of this tick's frame.
    perception::Detection d;
    d.confidence = std::clamp(
        world_->rng().normal(detector.detection_probability(alt), 0.08), 0.01,
        0.999);
    in.detection_features = {detector.detection_features(d, alt, world_->rng())};
  }
  in.altitude_band = altitude_band(alt);
  in.visibility = sinadra::Visibility::kGood;
  in.density = config_.n_persons > 5 ? sinadra::PersonDensity::kDense
                                     : sinadra::PersonDensity::kSparse;
  in.gps_fix_available = !uav.gps().signal_lost() && !uav.gps().disabled();
  in.vision_sensor_healthy = uav.vision_sensor_healthy();
  // C2 link quality at the range from the ground station (home pad),
  // gated by the staleness watchdog: a link budget that looks fine on
  // paper is still not good evidence when no telemetry actually arrives.
  // The watchdog flag is edge-triggered (one demotion per outage, single
  // re-arm on recovery) and updated at the top of every tick, so the
  // evidence stream is identical to comparing raw staleness here.
  in.comm_link_good = comm_link_.usable(geo::enu_ground_distance_m(
                          uav.true_position(), home_enu_[i])) &&
                      watchdog_demoted_[i] == 0;
  // A nearby airborne fleet member within 250 m can assist (CL
  // availability). Grid-backed: the all-pairs scan dominated the tick at
  // fleet scale.
  in.nearby_uav_available =
      world_->has_neighbor_within(i, 250.0, /*airborne_only=*/true);
  return in;
}

RunnerResult MissionRunner::run() {
  RunnerResult result;

  // Tracing: one root span for the run, one child span per fleet phase
  // (launch -> search -> recovery), plus per-evaluation spans. All inert
  // when no observability is attached.
  obs::Span run_span;
  if (obs_ != nullptr) {
    run_span = obs_->tracer.start_span(
        "sesame.mission.run",
        {{"uavs", std::to_string(names_.size())},
         {"sesame", config_.sesame_enabled ? "on" : "off"}});
  }
  begin_phase("launch");

  productive_s_.assign(names_.size(), 0.0);
  current_action_.assign(names_.size(), conserts::UavAction::kContinue);
  series_.assign(names_.size(), {});
  next_consert_eval_s_ = 0.0;

  while (world_->time_s() < config_.max_time_s) {
    inject_events();
    step_world();
    recover();
    if (ticks_counter_ != nullptr) ticks_counter_->inc();
    if (phase_ == "launch" &&
        std::ranges::none_of(std::views::iota(std::size_t{0}, names_.size()),
                             [&](std::size_t i) {
                               return world_->uav(i).mode() ==
                                      sim::FlightMode::kTakeoff;
                             })) {
      begin_phase("search");
    }
    respond_to_spoofing(result);
    tick_mission();
    if (config_.sesame_enabled) {
      sesame_tick();
    } else {
      for (std::size_t i = 0; i < names_.size(); ++i) baseline_policy(i);
    }
    record();
    if (finished(result)) break;
    result.final_decision = conserts::decide_mission(current_action_);
  }

  finish_run(result);
  end_phase();
  if (run_span.recording()) {
    run_span.set_attribute("total_time_s", result.total_time_s);
    run_span.set_attribute("availability", result.availability);
    run_span.set_attribute(
        "decision", conserts::mission_decision_name(result.final_decision));
  }
  run_span.end();
  return result;
}

void MissionRunner::begin_phase(const std::string& next) {
  phase_ = next;
  if (obs_ == nullptr) return;
  end_phase();
  phase_span_ = obs_->tracer.start_span(
      "sesame.mission.phase",
      {{"phase", next}, {"t_start_s", obs::attr_value(world_->time_s())}});
}

void MissionRunner::end_phase() {
  if (phase_span_.recording()) {
    phase_span_.set_attribute("t_end_s", world_->time_s());
  }
  phase_span_.end();
}

// Stage 1: scripted scenario events.
void MissionRunner::inject_events() {
  if (!config_.battery_fault || fault_injected_ ||
      world_->time_s() < config_.battery_fault->time_s) {
    return;
  }
  world_->uav(battery_fault_uav_)
      .battery()
      .inject_thermal_fault(config_.battery_fault->soc_after,
                            config_.battery_fault->temp_c);
  fault_injected_ = true;
}

// Stage 2: physics, the vehicle fault timetable, and the edge-triggered
// telemetry-staleness watchdog.
void MissionRunner::step_world() {
  world_->step(config_.dt_s);
  if (vehicle_failures_) vehicle_failures_->step(world_->time_s());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    set_comm_demoted(
        i, telemetry_age_s(i) > config_.telemetry_staleness_window_s);
  }
}

// Stage 3: the recovery escalation and the hard energy floor.
void MissionRunner::recover() {
  if (!recovery_) return;
  recovery_->step(world_->time_s(), [this](std::size_t i) {
    // Last contact of any kind: telemetry or health heartbeat. Heartbeats
    // dodge the lossy-link model (they are small and heavily coded), so a
    // vehicle only looks silent when its radio is genuinely gone.
    const double last = std::max(last_telemetry_rx_s_[i], last_health_rx_s_[i]);
    return std::max(0.0, world_->time_s() - last);
  });
  // A serving vehicle that sinks below the reserve needed to make it home
  // is recalled regardless of what the assurance lattice currently permits.
  for (std::size_t i = 0; i < names_.size(); ++i) {
    sim::Uav& uav = world_->uav(i);
    if (serving(uav.mode()) &&
        uav.battery().soc() < config_.recovery.min_soc_rtb) {
      uav.command_return_to_base();
    }
  }
}

// Stage 4: the spoofing attack, the SESAME-only response, and the
// collaborative-localization landing guide.
void MissionRunner::respond_to_spoofing(RunnerResult& result) {
  if (config_.spoofing && world_->time_s() >= config_.spoofing->time_s) {
    const sim::Uav& victim = world_->uav(spoof_victim_);
    // Once the victim is grounded (safe-landed), the attacker gives up.
    if (victim.airborne()) {
      spoof_offset_m_ += config_.spoofing->walk_mps * config_.dt_s;
      const geo::GeoPoint fake =
          geo::destination(victim.true_geo(), 90.0, spoof_offset_m_);
      world_->bus().publish(sim::position_fix_topic(names_[spoof_victim_]),
                            fake, "attacker", world_->time_s());
    }
    result.spoofed_uav_peak_error_m =
        std::max(result.spoofed_uav_peak_error_m, victim.estimation_error_m());
    if (config_.sesame_enabled && !spoof_response_started_ && security_ &&
        security_->attack_detected()) {
      start_spoof_response(result);
    }
  }
  if (landing_guide_) {
    landing_guide_->step();
    if (landing_guide_->landed() && result.spoofed_uav_landing_error_m < 0.0) {
      result.spoofed_uav_landing_error_m =
          landing_guide_->true_distance_to_target_m();
    }
  }
}

void MissionRunner::start_spoof_response(RunnerResult& result) {
  spoof_response_started_ = true;
  result.attack_detected = true;
  result.attack_detection_time_s = world_->time_s();

  const std::size_t victim = spoof_victim_;
  sim::Uav& uav = world_->uav(victim);
  // Stop trusting the compromised navigation input (ConSert mitigation).
  uav.gps().set_disabled(true);

  // Hand the victim's remaining tasks to the first airborne fleet member
  // on the roster.
  if (mission_->active(victim)) {
    const auto& roster = mission_->active_uavs();
    const auto it =
        std::find_if(roster.begin(), roster.end(), [&](std::size_t c) {
          return c != victim && world_->uav(c).airborne();
        });
    if (it != roster.end()) {
      waypoints_redistributed_ += mission_->redistribute(victim, *it);
    }
  }

  // Collaborative Localization brings it home without GPS (Fig. 7).
  std::vector<std::string> assistants;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (i != victim) assistants.push_back(names_[i]);
  }
  if (!assistants.empty()) {
    localization::ObservationModel model;
    model.detection_range_m = 800.0;
    model.detection_probability = 0.95;
    cl_ = std::make_unique<localization::CollaborativeLocalizer>(
        *world_, names_[victim], assistants, model);
    geo::EnuPoint pad = home_enu_[victim];
    pad.up_m = config_.coverage.altitude_m;
    landing_guide_ = std::make_unique<localization::SafeLandingGuide>(
        *world_, *cl_, pad);
  }
}

// Stage 5: the SAR detection tick. Safety invariant: every detection
// credited this tick must come from a live vehicle with a healthy camera.
void MissionRunner::tick_mission() {
  mission_->tick();
  for (const std::size_t i : mission_->last_tick_detectors()) {
    const sim::Uav& uav = world_->uav(i);
    invariants_->check_detection_source(world_->time_s(), names_[i],
                                        uav.vision_sensor_healthy(),
                                        uav.mode());
  }
}

// Stage 6 (SESAME on): EDDIs tick every step (their trackers and monitors
// integrate over time, and gather_inputs draws world randomness); the
// ConSert network, task redistribution and the descend adaptation run once
// per evaluation period.
void MissionRunner::sesame_tick() {
  const bool consert_due = world_->time_s() >= next_consert_eval_s_;
  if (consert_due) next_consert_eval_s_ += config_.consert_period_s;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    eddis_[i]->tick(gather_inputs(i));
  }
  if (!consert_due) return;

  collect_evidence();
  // The evaluation span also encloses the actions, hand-overs and descend
  // the evaluation triggers.
  obs::Span eval_span;
  if (obs_ != nullptr) {
    eval_span = obs_->tracer.start_span(
        "sesame.mission.consert_eval",
        {{"t_s", obs::attr_value(world_->time_s())}});
    consert_evals_counter_->inc();
  }
  assurance_trace_->evaluate(world_->time_s());
  const conserts::Plan& plan = assurance_trace_->plan();
  for (std::size_t i = 0; i < names_.size(); ++i) {
    auto action = consert_uavs_[i].action(plan);
    // Safety EDDI corrective action overrides the lattice: crossing the
    // abort threshold forces an emergency landing (Fig. 5).
    if (eddis_[i]->assessment().reliability.abort_recommended) {
      action = conserts::UavAction::kEmergencyLand;
    }
    current_action_[i] = action;
    apply_action(world_->uav(i), action);
  }
  redistribute_dropped_out();
  descend_if_uncertain();
}

void MissionRunner::collect_evidence() {
  // Read on evaluation ticks only: consert_evidence() is a pure read of
  // the EDDI state.
  conserts::Plan& plan = assurance_trace_->plan();
  for (std::size_t i = 0; i < names_.size(); ++i) {
    auto evidence = eddis_[i]->consert_evidence();
    // Per-UAV attribution: only vehicles whose own channels were attacked
    // lose the no-attack evidence.
    evidence.no_security_attack = compromised_[i] == 0;
    // Safety invariant: ConSert demands must never be satisfied by stale
    // evidence — comm_link_good asserted while the telemetry feeding it
    // has gone silent is a checker violation.
    invariants_->check_evidence_fresh(world_->time_s(), names_[i],
                                      evidence.comm_link_good,
                                      telemetry_age_s(i));
    consert_uavs_[i].apply(plan, evidence);
  }
}

void MissionRunner::redistribute_dropped_out() {
  // Mission-level task redistribution (Fig. 1 decider): a UAV that dropped
  // out with tasks pending hands its remaining waypoints to a continuing
  // fleet member. Walks a snapshot of the roster; each hand-over shrinks
  // the live roster the takeover rule reads.
  const std::vector<std::size_t> roster = mission_->active_uavs();
  for (const std::size_t i : roster) {
    const sim::Uav& uav = world_->uav(i);
    const bool dropped_out = uav.mode() == sim::FlightMode::kEmergencyLand ||
                             uav.mode() == sim::FlightMode::kReturnToBase ||
                             uav.mode() == sim::FlightMode::kLanded ||
                             uav.mode() == sim::FlightMode::kCrashed;
    if (!dropped_out || uav.waypoints_remaining() == 0) continue;
    const auto takeover = mission_->takeover_for(i);
    if (!takeover) continue;
    const std::size_t moved = mission_->redistribute(i, *takeover);
    waypoints_redistributed_ += moved;
    world_->uav(*takeover).command_resume_mission();
    // A crashed vehicle's absorption is a fleet-recovery re-plan: the chaos
    // campaign's time_to_replan metric measures the fastest responder,
    // whichever path that is.
    if (moved > 0 && uav.mode() == sim::FlightMode::kCrashed) {
      record_replan(i, *takeover);
    }
  }
}

void MissionRunner::descend_if_uncertain() {
  // Section V-B adaptation: persistent over-threshold uncertainty demands a
  // descend-and-rescan.
  const bool exceeded =
      std::any_of(eddis_.begin(), eddis_.end(), [](const auto& e) {
        return e->assessment().uncertainty_exceeded;
      });
  over_threshold_streak_ = exceeded ? over_threshold_streak_ + 1 : 0;
  if (descended_ || over_threshold_streak_ < config_.descend_patience) return;
  // SINADRA descend-and-RESCAN: each UAV re-plans its strip at the low
  // altitude, with lane spacing shrunk to match the smaller footprint, and
  // sweeps it again — persons possibly missed at the unreliable high
  // altitude get a second, accurate pass.
  sar::CoverageConfig low = config_.coverage;
  low.altitude_m = config_.descend_altitude_m;
  low.lane_spacing_m = config_.coverage.lane_spacing_m *
                       config_.descend_altitude_m / config_.coverage.altitude_m;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (!mission_->active(i)) continue;  // its strip went to another UAV
    sim::Uav& uav = world_->uav(i);
    uav.clear_waypoints();
    const auto replanned = sar::plan_coverage(plans_[i].strip, 1, low);
    for (const auto& wp : replanned.at(0).waypoints) uav.add_waypoint(wp);
    uav.command_resume_mission();
  }
  descended_ = true;
}

// Stage 6 (SESAME off): naive firmware, per vehicle.
void MissionRunner::baseline_policy(std::size_t i) {
  sim::Uav& uav = world_->uav(i);
  constexpr double kPendingLanding = 1e18;
  constexpr double kNoSwap = -1.0;
  double& swap_at = swap_until_[i];

  // Swap pending or in progress.
  if (swap_at != kNoSwap) {
    if (uav.mode() == sim::FlightMode::kLanded) {
      if (swap_at >= kPendingLanding) {
        // Just touched down: start the swap clock.
        swap_at = world_->time_s() + config_.battery_swap_time_s;
      } else if (world_->time_s() >= swap_at) {
        uav.battery().swap();
        swap_at = kNoSwap;
        uav.command_takeoff();
      }
    }
    return;
  }

  // Naive firmware reaction: low pack -> return, swap, resume.
  if (uav.airborne() && uav.battery().soc() < config_.baseline_rtb_soc &&
      uav.waypoints_remaining() > 0) {
    uav.command_return_to_base();
    swap_at = kPendingLanding;
  }
}

// Stage 7: the time series, per-vehicle safety invariants and availability.
void MissionRunner::record() {
  const double now_s = world_->time_s();
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const sim::Uav& uav = world_->uav(i);
    UavTickRecord rec;
    rec.time_s = now_s;
    rec.soc = uav.battery().soc();
    rec.battery_temp_c = uav.battery().temperature_c();
    rec.mode = uav.mode();
    rec.altitude_m = uav.true_position().up_m;
    rec.action = current_action_[i];
    if (config_.sesame_enabled) {
      const auto& a = eddis_[i]->assessment();
      rec.p_fail = a.reliability.probability_of_failure;
      rec.sar_uncertainty = a.sar_uncertainty;
    }
    series_[i].push_back(rec);
    if (obs_ != nullptr) staleness_gauges_[i]->set(telemetry_age_s(i));

    invariants_->check_min_soc(now_s, names_[i], rec.soc, rec.mode);
    if (recovery_ && recovery_->lost(i)) {
      invariants_->check_lost_uav_inactive(now_s, names_[i],
                                           /*declared_lost=*/true, rec.mode,
                                           mission_->active(i));
    }
    if (serving(rec.mode)) productive_s_[i] += config_.dt_s;
  }
}

// Stage 8: mission completion, and the stop check — the mission is
// complete and everyone is grounded or idle (a grace period for the final
// landing).
bool MissionRunner::finished(RunnerResult& result) {
  if (!result.mission_complete_time_s && mission_->complete()) {
    result.mission_complete_time_s = world_->time_s();
    if (obs_ != nullptr) {
      obs_->tracer.event("sesame.mission.complete",
                         {{"t_s", obs::attr_value(world_->time_s())}});
    }
    if (phase_ == "search") begin_phase("recovery");
  }
  if (!result.mission_complete_time_s) return false;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const auto mode = world_->uav(i).mode();
    if (mode != sim::FlightMode::kLanded && mode != sim::FlightMode::kIdle &&
        mode != sim::FlightMode::kHold && mode != sim::FlightMode::kCrashed) {
      return false;
    }
  }
  return true;
}

void MissionRunner::finish_run(RunnerResult& result) {
  result.total_time_s = world_->time_s();
  result.detection = mission_->stats();
  result.descended = descended_;
  result.invariant_violations = invariants_->violations();
  result.recovery_replans = recovery_replans_;
  result.waypoints_redistributed = waypoints_redistributed_;
  if (recovery_) {
    result.uavs_lost = recovery_->lost_uavs();
    result.recovery_pings = recovery_->pings_sent();
    result.recovery_demotions = recovery_->demotions();
    result.recovery_rth_commands = recovery_->rth_commands();
    // Time-to-detect / time-to-replan are measured from the scheduled
    // onset of the first silencing fault (hard crash or comms blackout)
    // of the earliest-lost vehicle; -1 when unknown.
    std::optional<std::size_t> first_lost;
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (!recovery_->lost(i)) continue;
      if (!first_lost || recovery_->times(i).lost_s <
                             recovery_->times(*first_lost).lost_s) {
        first_lost = i;
      }
    }
    if (first_lost) {
      const double onset = failure_onset_s(*first_lost);
      const double detect = recovery_->times(*first_lost).detect_s;
      if (onset >= 0.0 && detect >= onset) {
        result.time_to_detect_loss_s = detect - onset;
      }
      if (onset >= 0.0 && first_replan_time_s_ >= onset) {
        result.time_to_replan_s = first_replan_time_s_ - onset;
      }
    }
  }
  if (const auto* tracker = mission_->coverage()) {
    result.area_coverage = tracker->fraction_covered();
  }
  if (assurance_trace_) {
    result.assurance_trace = assurance_trace_->transitions();
  }
  double avail = 0.0;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const double a = productive_s_[i] / result.total_time_s;
    result.availability_per_uav[names_[i]] = a;
    avail += a;
    result.series[names_[i]] = std::move(series_[i]);
  }
  result.availability = avail / static_cast<double>(names_.size());
}

}  // namespace sesame::platform
