// SafeDrones subsystem reliability models (Aslansefat et al., IMBSA 2022).
//
// Each UAV subsystem is a small CTMC whose absorbing state is subsystem
// failure; the chains become *complex basic events* in the UAV-level fault
// tree (see uav_reliability.hpp). Models:
//  - Propulsion: motor-failure chain for quad/hexa/octa multirotors with
//    the reconfiguration behaviour of [Aslansefat et al., DoCEIS 2019] —
//    a tolerable motor loss degrades the vehicle instead of crashing it.
//  - Battery: state-of-charge band chain whose transition rates accelerate
//    with cell temperature (Arrhenius factor) — the Fig. 5 driver.
//  - Processor: soft-error-rate model with temperature acceleration
//    [Ottavi et al., IEEE D&T 2014].
#pragma once

#include <cstddef>
#include <optional>

#include "sesame/markov/ctmc.hpp"

namespace sesame::safedrones {

/// Supported airframe layouts and their tolerable motor losses under
/// reconfiguration.
enum class Airframe { kQuad, kHexa, kOcta };

/// Number of rotors of an airframe.
std::size_t rotor_count(Airframe a);

/// Motor failures the airframe survives when reconfiguration is enabled
/// (quad: 0, hexa: 1, octa: 2); without reconfiguration always 0.
std::size_t tolerable_motor_failures(Airframe a, bool reconfiguration);

struct PropulsionConfig {
  Airframe airframe = Airframe::kHexa;
  /// Per-motor failure rate (per second of flight). Typical small-UAV BLDC
  /// motors: ~1e-6 /s.
  double motor_failure_rate = 1e-6;
  /// When true, surviving a tolerable loss sheds the opposite motor and
  /// continues with reduced authority (the SafeDrones reconfiguration).
  bool reconfiguration = true;
};

/// Propulsion reliability model.
class PropulsionModel {
 public:
  explicit PropulsionModel(PropulsionConfig config);

  const PropulsionConfig& config() const noexcept { return config_; }
  const markov::Ctmc& chain() const noexcept { return chain_; }

  /// Probability the propulsion system has failed by time t, starting with
  /// `initial_failed` motors already lost (clamped to the chain's states).
  /// The last (t, initial_failed) result is memoised: runtime monitors call
  /// this every tick with a fixed horizon and a rarely-changing motor
  /// count, so steady state skips the transient solve entirely.
  double failure_probability(double t, std::size_t initial_failed = 0) const;

  /// Mean time to propulsion failure from the healthy state.
  double mttf() const;

 private:
  PropulsionConfig config_;
  markov::Ctmc chain_;
  std::size_t failed_state_;
  // Single-entry memo of the last transient solve. Mutable: a pure cache,
  // safe because each monitor instance is confined to one thread.
  struct Memo {
    bool valid = false;
    double t = 0.0;
    std::size_t initial_failed = 0;
    double probability = 0.0;
  };
  mutable Memo memo_;
};

/// Battery state-of-charge bands used by the degradation chain.
enum class BatteryBand { kHealthy, kLow, kCritical, kFailed };

/// Maps a measured state of charge onto a band.
BatteryBand battery_band_from_soc(double soc);

struct BatteryModelConfig {
  /// Base transition rates at reference temperature (per second):
  /// healthy->low, low->critical, critical->failed. Defaults calibrated so
  /// a healthy pack at nominal temperature carries negligible mission-scale
  /// risk while a thermally faulted pack (~70 C) reaches P(fail) = 0.9
  /// roughly 250 s after the fault — the Fig. 5 trajectory.
  double rate_healthy_to_low = 1.0 / 7200.0;
  double rate_low_to_critical = 1.0 / 1800.0;
  double rate_critical_to_failed = 1.0 / 900.0;
  /// Arrhenius parameters: rates scale by exp(temp_accel_per_c * (T - Tref)).
  double reference_temp_c = 25.0;
  double temp_accel_per_c = 0.07;  ///< ~2x per +10 C, Arrhenius-like
};

/// Temperature-aware battery degradation model.
class BatteryModel {
 public:
  explicit BatteryModel(BatteryModelConfig config = {});

  /// Probability the battery fails within `horizon_s`, given its current
  /// band and cell temperature.
  double failure_probability(BatteryBand band, double temperature_c,
                             double horizon_s) const;

  /// Builds the temperature-adjusted chain (exposed for analysis/tests).
  /// Derived by rate-scaling a base chain built once at construction, so a
  /// per-tick call costs a 4x4 scalar multiply instead of a builder pass.
  markov::Ctmc chain_at(double temperature_c) const;

 private:
  BatteryModelConfig config_;
  markov::Ctmc base_chain_;  ///< rates at reference temperature (accel = 1)
};

/// Stateful runtime battery tracker: carries the degradation chain's state
/// distribution forward through mission time, with rates following the
/// measured cell temperature. This yields the *cumulative* probability of
/// battery failure the paper plots in Fig. 5 — monotonically rising after
/// a thermal fault until the abort threshold is crossed.
///
/// Observed state-of-charge bands pin the distribution: when telemetry
/// shows a band worse than the tracker's dominant live state, all
/// non-failed probability mass shifts into the observed band (failed mass
/// is never reduced, keeping the estimate monotone).
class BatteryRuntimeTracker {
 public:
  explicit BatteryRuntimeTracker(BatteryModelConfig config = {});

  /// Incorporates a state-of-charge observation.
  void observe_soc(double soc);

  /// Advances mission time by dt seconds at the given cell temperature.
  void advance(double dt_s, double temperature_c);

  /// Cumulative probability that the battery has failed by now.
  double failure_probability() const noexcept { return distribution_[3]; }

  /// Probability distribution over {healthy, low, critical, failed}.
  const std::vector<double>& distribution() const noexcept {
    return distribution_;
  }

 private:
  BatteryModel model_;
  std::vector<double> distribution_{1.0, 0.0, 0.0, 0.0};
  // Temperature-keyed chain cache: cell temperature is constant between
  // thermal events, so successive advance() calls reuse one chain.
  std::optional<markov::Ctmc> cached_chain_;
  double cached_temp_c_ = 0.0;
};

struct ProcessorModelConfig {
  /// Base failure (SER-driven) rate at reference temperature, per second.
  double base_rate = 2e-7;
  double reference_temp_c = 25.0;
  double temp_accel_per_c = 0.04;
};

/// Processor soft-error reliability model.
class ProcessorModel {
 public:
  explicit ProcessorModel(ProcessorModelConfig config = {});

  /// Probability of processor failure within `horizon_s` at the given
  /// junction temperature.
  double failure_probability(double temperature_c, double horizon_s) const;

 private:
  ProcessorModelConfig config_;
};

/// Simple exponential communication-link model (loss of C2 link).
struct CommsModelConfig {
  double failure_rate = 5e-7;  ///< per second
};

class CommsModel {
 public:
  explicit CommsModel(CommsModelConfig config = {});
  double failure_probability(double horizon_s) const;

 private:
  CommsModelConfig config_;
};

}  // namespace sesame::safedrones
