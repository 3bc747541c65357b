#include "sesame/safedrones/models.hpp"

#include <cmath>
#include <stdexcept>

namespace sesame::safedrones {

std::size_t rotor_count(Airframe a) {
  switch (a) {
    case Airframe::kQuad: return 4;
    case Airframe::kHexa: return 6;
    case Airframe::kOcta: return 8;
  }
  throw std::invalid_argument("rotor_count: unknown airframe");
}

std::size_t tolerable_motor_failures(Airframe a, bool reconfiguration) {
  if (!reconfiguration) return 0;
  switch (a) {
    case Airframe::kQuad: return 0;
    case Airframe::kHexa: return 1;
    case Airframe::kOcta: return 2;
  }
  throw std::invalid_argument("tolerable_motor_failures: unknown airframe");
}

namespace {

markov::Ctmc build_propulsion_chain(const PropulsionConfig& cfg,
                                    std::size_t& failed_state) {
  if (cfg.motor_failure_rate < 0.0) {
    throw std::invalid_argument("PropulsionModel: negative failure rate");
  }
  const std::size_t rotors = rotor_count(cfg.airframe);
  const std::size_t tolerable =
      tolerable_motor_failures(cfg.airframe, cfg.reconfiguration);

  markov::CtmcBuilder b;
  // States: 0..tolerable motors lost (operational), then loss-of-control.
  std::vector<std::size_t> ok_states;
  for (std::size_t k = 0; k <= tolerable; ++k) {
    ok_states.push_back(b.add_state(std::to_string(k) + "_motors_lost"));
  }
  failed_state = b.add_state("loss_of_control");

  std::size_t active = rotors;
  for (std::size_t k = 0; k <= tolerable; ++k) {
    const double exit_rate = static_cast<double>(active) * cfg.motor_failure_rate;
    const std::size_t next = (k == tolerable) ? failed_state : ok_states[k + 1];
    b.add_transition(ok_states[k], next, exit_rate);
    // Reconfiguration sheds the opposite motor along with the failed one,
    // so two rotors leave service per tolerated failure.
    if (cfg.reconfiguration && active >= 2) active -= 2;
  }
  return b.build();
}

markov::Ctmc build_battery_chain(const BatteryModelConfig& cfg) {
  if (cfg.rate_healthy_to_low <= 0.0 || cfg.rate_low_to_critical <= 0.0 ||
      cfg.rate_critical_to_failed <= 0.0) {
    throw std::invalid_argument("BatteryModel: non-positive rate");
  }
  markov::CtmcBuilder b;
  const auto healthy = b.add_state("healthy");
  const auto low = b.add_state("low");
  const auto critical = b.add_state("critical");
  const auto failed = b.add_state("failed");
  b.add_transition(healthy, low, cfg.rate_healthy_to_low);
  b.add_transition(low, critical, cfg.rate_low_to_critical);
  b.add_transition(critical, failed, cfg.rate_critical_to_failed);
  return b.build();
}

}  // namespace

PropulsionModel::PropulsionModel(PropulsionConfig config)
    : config_(config), chain_(build_propulsion_chain(config_, failed_state_)) {}

double PropulsionModel::failure_probability(double t,
                                            std::size_t initial_failed) const {
  const std::size_t start =
      std::min(initial_failed, chain_.num_states() - 1);
  if (memo_.valid && memo_.t == t && memo_.initial_failed == start) {
    return memo_.probability;
  }
  std::vector<double> pi0(chain_.num_states(), 0.0);
  pi0[start] = 1.0;
  const double p = chain_.probability_in(pi0, t, {failed_state_});
  memo_ = {true, t, start, p};
  return p;
}

double PropulsionModel::mttf() const {
  if (config_.motor_failure_rate == 0.0) {
    throw std::runtime_error("PropulsionModel::mttf: zero failure rate");
  }
  return chain_.mean_time_to_absorption(0);
}

BatteryBand battery_band_from_soc(double soc) {
  if (soc <= 0.0) return BatteryBand::kFailed;
  if (soc < 0.25) return BatteryBand::kCritical;
  if (soc < 0.55) return BatteryBand::kLow;
  return BatteryBand::kHealthy;
}

BatteryModel::BatteryModel(BatteryModelConfig config)
    : config_(config), base_chain_(build_battery_chain(config_)) {}

markov::Ctmc BatteryModel::chain_at(double temperature_c) const {
  const double accel = std::exp(config_.temp_accel_per_c *
                                (temperature_c - config_.reference_temp_c));
  return base_chain_.scaled_rates(accel);
}

double BatteryModel::failure_probability(BatteryBand band, double temperature_c,
                                         double horizon_s) const {
  if (horizon_s < 0.0) {
    throw std::invalid_argument("BatteryModel: negative horizon");
  }
  if (band == BatteryBand::kFailed) return 1.0;
  const markov::Ctmc chain = chain_at(temperature_c);
  std::vector<double> pi0(4, 0.0);
  switch (band) {
    case BatteryBand::kHealthy: pi0[0] = 1.0; break;
    case BatteryBand::kLow: pi0[1] = 1.0; break;
    case BatteryBand::kCritical: pi0[2] = 1.0; break;
    case BatteryBand::kFailed: break;  // handled above
  }
  return chain.probability_in(pi0, horizon_s, {3});
}

BatteryRuntimeTracker::BatteryRuntimeTracker(BatteryModelConfig config)
    : model_(config) {}

void BatteryRuntimeTracker::observe_soc(double soc) {
  const BatteryBand band = battery_band_from_soc(soc);
  std::size_t observed;
  switch (band) {
    case BatteryBand::kHealthy: observed = 0; break;
    case BatteryBand::kLow: observed = 1; break;
    case BatteryBand::kCritical: observed = 2; break;
    case BatteryBand::kFailed: observed = 3; break;
  }
  if (observed == 3) {
    distribution_ = {0.0, 0.0, 0.0, 1.0};
    return;
  }
  // Dominant live (non-failed) state.
  std::size_t dominant = 0;
  for (std::size_t s = 1; s < 3; ++s) {
    if (distribution_[s] > distribution_[dominant]) dominant = s;
  }
  if (observed > dominant) {
    // Telemetry says we are worse than modelled: shift live mass into the
    // observed band. Failed mass stays (monotone estimate).
    const double live =
        distribution_[0] + distribution_[1] + distribution_[2];
    distribution_[0] = distribution_[1] = distribution_[2] = 0.0;
    distribution_[observed] = live;
  }
}

void BatteryRuntimeTracker::advance(double dt_s, double temperature_c) {
  if (dt_s < 0.0) {
    throw std::invalid_argument("BatteryRuntimeTracker: negative dt");
  }
  if (dt_s == 0.0) return;
  if (!cached_chain_ || cached_temp_c_ != temperature_c) {
    cached_chain_ = model_.chain_at(temperature_c);
    cached_temp_c_ = temperature_c;
  }
  distribution_ = cached_chain_->transient(distribution_, dt_s);
}

ProcessorModel::ProcessorModel(ProcessorModelConfig config) : config_(config) {
  if (config_.base_rate < 0.0) {
    throw std::invalid_argument("ProcessorModel: negative base rate");
  }
}

double ProcessorModel::failure_probability(double temperature_c,
                                           double horizon_s) const {
  if (horizon_s < 0.0) {
    throw std::invalid_argument("ProcessorModel: negative horizon");
  }
  const double accel = std::exp(config_.temp_accel_per_c *
                                (temperature_c - config_.reference_temp_c));
  return 1.0 - std::exp(-config_.base_rate * accel * horizon_s);
}

CommsModel::CommsModel(CommsModelConfig config) : config_(config) {
  if (config_.failure_rate < 0.0) {
    throw std::invalid_argument("CommsModel: negative rate");
  }
}

double CommsModel::failure_probability(double horizon_s) const {
  if (horizon_s < 0.0) {
    throw std::invalid_argument("CommsModel: negative horizon");
  }
  return 1.0 - std::exp(-config_.failure_rate * horizon_s);
}

}  // namespace sesame::safedrones
