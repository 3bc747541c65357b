// UAV-level runtime reliability evaluation: the SafeDrones EDDI.
//
// Composes the subsystem Markov models into a fault tree
//   UAV_failure = OR(propulsion, battery, processor, comms)
// whose leaves are complex basic events parameterized by live telemetry
// (battery state of charge & temperature, motors lost, processor
// temperature). The monitor exposes the probability of failure over the
// remaining mission horizon and the discrete reliability level that the
// ConSert network consumes (High / Medium / Low, paper Fig. 1).
#pragma once

#include <memory>
#include <string>

#include "sesame/fta/fault_tree.hpp"
#include "sesame/safedrones/models.hpp"

namespace sesame::safedrones {

/// Discrete reliability guarantee levels (paper Fig. 1 Safety EDDI ConSert).
enum class ReliabilityLevel { kHigh, kMedium, kLow };

std::string reliability_level_name(ReliabilityLevel r);

/// Live telemetry consumed at every evaluation.
struct TelemetrySnapshot {
  double battery_soc = 1.0;
  double battery_temp_c = 25.0;
  double processor_temp_c = 40.0;
  std::size_t motors_failed = 0;
};

struct ReliabilityConfig {
  PropulsionConfig propulsion;
  BatteryModelConfig battery;
  ProcessorModelConfig processor;
  CommsModelConfig comms;
  /// P(fail) thresholds separating High/Medium/Low reliability.
  double medium_threshold = 0.30;
  double low_threshold = 0.70;
  /// Mission-abort threshold used by the Fig. 5 scenario (paper: 0.9).
  double abort_threshold = 0.90;
};

/// One evaluation result.
struct ReliabilityEstimate {
  double probability_of_failure = 0.0;  ///< over the evaluated horizon
  double p_propulsion = 0.0;
  double p_battery = 0.0;
  double p_processor = 0.0;
  double p_comms = 0.0;
  ReliabilityLevel level = ReliabilityLevel::kHigh;
  bool abort_recommended = false;
};

/// Runtime reliability monitor for one UAV.
class ReliabilityMonitor {
 public:
  explicit ReliabilityMonitor(ReliabilityConfig config = {});

  const ReliabilityConfig& config() const noexcept { return config_; }

  /// Evaluates the probability of UAV failure within `horizon_s` given the
  /// current telemetry.
  ReliabilityEstimate evaluate(const TelemetrySnapshot& telemetry,
                               double horizon_s) const;

  /// Like evaluate(), but with the battery term fixed at zero. Callers that
  /// track the cumulative battery probability separately (the EDDI's
  /// BatteryRuntimeTracker) discard evaluate()'s prospective battery term
  /// and re-compose() anyway, so this variant skips the battery chain
  /// build and transient solve on the per-tick hot path.
  ReliabilityEstimate evaluate_prospective(const TelemetrySnapshot& telemetry,
                                           double horizon_s) const;

  /// Composes externally computed subsystem probabilities (e.g. the
  /// cumulative battery probability of a BatteryRuntimeTracker) into a
  /// UAV-level estimate with this monitor's thresholds.
  ReliabilityEstimate compose(double p_propulsion, double p_battery,
                              double p_processor, double p_comms) const;

  /// The static design-time fault tree (nominal-condition leaves) for
  /// cut-set/importance analysis. The tree's complex basic events borrow
  /// this monitor's models: the monitor must outlive the returned tree.
  fta::FaultTree design_time_tree(double mission_duration_s) const;

 private:
  ReliabilityConfig config_;
  PropulsionModel propulsion_;
  BatteryModel battery_;
  ProcessorModel processor_;
  CommsModel comms_;
};

}  // namespace sesame::safedrones
