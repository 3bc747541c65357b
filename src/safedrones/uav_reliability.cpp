#include "sesame/safedrones/uav_reliability.hpp"

#include <stdexcept>

namespace sesame::safedrones {

std::string reliability_level_name(ReliabilityLevel r) {
  switch (r) {
    case ReliabilityLevel::kHigh: return "High";
    case ReliabilityLevel::kMedium: return "Medium";
    case ReliabilityLevel::kLow: return "Low";
  }
  return "unknown";
}

ReliabilityMonitor::ReliabilityMonitor(ReliabilityConfig config)
    : config_(config), propulsion_(config_.propulsion), battery_(config_.battery),
      processor_(config_.processor), comms_(config_.comms) {
  if (!(config_.medium_threshold < config_.low_threshold &&
        config_.low_threshold <= config_.abort_threshold)) {
    throw std::invalid_argument(
        "ReliabilityMonitor: thresholds must satisfy medium < low <= abort");
  }
}

ReliabilityEstimate ReliabilityMonitor::evaluate(
    const TelemetrySnapshot& telemetry, double horizon_s) const {
  if (horizon_s < 0.0) {
    throw std::invalid_argument("ReliabilityMonitor::evaluate: negative horizon");
  }
  if (telemetry.battery_soc < 0.0 || telemetry.battery_soc > 1.0) {
    throw std::invalid_argument("ReliabilityMonitor::evaluate: soc out of [0,1]");
  }

  ReliabilityEstimate e;
  e.p_propulsion =
      propulsion_.failure_probability(horizon_s, telemetry.motors_failed);
  e.p_battery = battery_.failure_probability(
      battery_band_from_soc(telemetry.battery_soc), telemetry.battery_temp_c,
      horizon_s);
  e.p_processor =
      processor_.failure_probability(telemetry.processor_temp_c, horizon_s);
  e.p_comms = comms_.failure_probability(horizon_s);
  return compose(e.p_propulsion, e.p_battery, e.p_processor, e.p_comms);
}

ReliabilityEstimate ReliabilityMonitor::evaluate_prospective(
    const TelemetrySnapshot& telemetry, double horizon_s) const {
  if (horizon_s < 0.0) {
    throw std::invalid_argument(
        "ReliabilityMonitor::evaluate_prospective: negative horizon");
  }
  if (telemetry.battery_soc < 0.0 || telemetry.battery_soc > 1.0) {
    throw std::invalid_argument(
        "ReliabilityMonitor::evaluate_prospective: soc out of [0,1]");
  }
  const double p_propulsion =
      propulsion_.failure_probability(horizon_s, telemetry.motors_failed);
  const double p_processor =
      processor_.failure_probability(telemetry.processor_temp_c, horizon_s);
  const double p_comms = comms_.failure_probability(horizon_s);
  return compose(p_propulsion, 0.0, p_processor, p_comms);
}

ReliabilityEstimate ReliabilityMonitor::compose(double p_propulsion,
                                                double p_battery,
                                                double p_processor,
                                                double p_comms) const {
  ReliabilityEstimate e;
  e.p_propulsion = p_propulsion;
  e.p_battery = p_battery;
  e.p_processor = p_processor;
  e.p_comms = p_comms;

  // OR composition under independence.
  e.probability_of_failure = 1.0 - (1.0 - e.p_propulsion) * (1.0 - e.p_battery) *
                                       (1.0 - e.p_processor) * (1.0 - e.p_comms);

  if (e.probability_of_failure >= config_.low_threshold) {
    e.level = ReliabilityLevel::kLow;
  } else if (e.probability_of_failure >= config_.medium_threshold) {
    e.level = ReliabilityLevel::kMedium;
  } else {
    e.level = ReliabilityLevel::kHigh;
  }
  e.abort_recommended = e.probability_of_failure >= config_.abort_threshold;
  return e;
}

fta::FaultTree ReliabilityMonitor::design_time_tree(
    double mission_duration_s) const {
  if (mission_duration_s <= 0.0) {
    throw std::invalid_argument("design_time_tree: non-positive duration");
  }
  // Leaves capture nominal conditions; complex basic events delegate to the
  // subsystem models with t interpreted as mission time.
  auto propulsion = fta::make_complex("propulsion_loss", [this](double t) {
    return propulsion_.failure_probability(t, 0);
  });
  auto battery = fta::make_complex("battery_failure", [this](double t) {
    return battery_.failure_probability(BatteryBand::kHealthy,
                                        config_.battery.reference_temp_c, t);
  });
  auto processor = fta::make_complex("processor_failure", [this](double t) {
    return processor_.failure_probability(config_.processor.reference_temp_c, t);
  });
  auto comms = fta::make_complex("comms_loss", [this](double t) {
    return comms_.failure_probability(t);
  });
  return fta::FaultTree(
      "uav_failure",
      fta::make_or("uav_failure", {propulsion, battery, processor, comms}));
}

}  // namespace sesame::safedrones
