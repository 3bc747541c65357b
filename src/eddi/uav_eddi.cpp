#include "sesame/eddi/uav_eddi.hpp"

#include <algorithm>
#include <stdexcept>

namespace sesame::eddi {

UavEddi::UavEddi(std::string uav_name, UavEddiConfig config,
                 safeml::ReferenceSet safeml_reference)
    : name_(std::move(uav_name)), config_(config),
      reliability_(config_.reliability), battery_tracker_(config_.reliability.battery),
      safeml_(config_.safeml, std::move(safeml_reference)),
      risk_(config_.sinadra) {
  if (name_.empty()) throw std::invalid_argument("UavEddi: empty name");
  if (config_.uncertainty_floor < 0.0 || config_.uncertainty_span <= 0.0 ||
      config_.uncertainty_floor + config_.uncertainty_span > 1.0 + 1e-12) {
    throw std::invalid_argument("UavEddi: bad uncertainty calibration");
  }
  if (config_.reliability_horizon_s <= 0.0) {
    throw std::invalid_argument("UavEddi: non-positive horizon");
  }
}

void UavEddi::attach_deepknowledge(
    std::shared_ptr<const deepknowledge::Mlp> model,
    std::shared_ptr<const deepknowledge::Analyzer> analyzer, std::size_t window) {
  if (!model || !analyzer) {
    throw std::invalid_argument("attach_deepknowledge: null asset");
  }
  if (window < 2) throw std::invalid_argument("attach_deepknowledge: window < 2");
  dk_model_ = std::move(model);
  dk_analyzer_ = std::move(analyzer);
  dk_window_size_ = window;
  dk_window_.clear();
  dk_next_ = 0;
}

void UavEddi::attach_security(std::shared_ptr<security::SecurityEddi> security) {
  if (!security) throw std::invalid_argument("attach_security: null");
  security_ = std::move(security);
}

sinadra::PerceptionConfidence UavEddi::safeml_confidence_band() const {
  if (!assessment_.safeml.has_value()) {
    return sinadra::PerceptionConfidence::kUnknown;
  }
  switch (assessment_.safeml->level) {
    case safeml::ConfidenceLevel::kHigh:
      return sinadra::PerceptionConfidence::kHigh;
    case safeml::ConfidenceLevel::kMedium:
      return sinadra::PerceptionConfidence::kMedium;
    case safeml::ConfidenceLevel::kLow:
      return sinadra::PerceptionConfidence::kLow;
  }
  return sinadra::PerceptionConfidence::kUnknown;
}

sinadra::PerceptionConfidence UavEddi::dk_confidence_band() const {
  if (!assessment_.deepknowledge.has_value()) {
    return sinadra::PerceptionConfidence::kUnknown;
  }
  const double u = assessment_.deepknowledge->uncertainty;
  if (u < 0.35) return sinadra::PerceptionConfidence::kHigh;
  if (u < 0.70) return sinadra::PerceptionConfidence::kMedium;
  return sinadra::PerceptionConfidence::kLow;
}

const EddiAssessment& UavEddi::tick(const EddiInputs& inputs) {
  last_inputs_ = inputs;

  // SafeDrones reliability. Propulsion/processor/comms are prospective
  // risks over the configured horizon; the battery term is the *cumulative*
  // failure probability carried forward by the runtime tracker (the Fig. 5
  // curve rises monotonically after a thermal fault).
  battery_tracker_.observe_soc(inputs.telemetry.battery_soc);
  battery_tracker_.advance(inputs.dt_s, inputs.telemetry.battery_temp_c);
  const auto prospective = reliability_.evaluate_prospective(
      inputs.telemetry, config_.reliability_horizon_s);
  assessment_.reliability = reliability_.compose(
      prospective.p_propulsion, battery_tracker_.failure_probability(),
      prospective.p_processor, prospective.p_comms);

  // SafeML distribution-shift monitoring. A tick without a frame leaves
  // the window, and so the previous assessment, unchanged.
  if (!inputs.frame_features.empty()) {
    safeml_.push(inputs.frame_features);
    assessment_.safeml = safeml_.assess();
  }

  // DeepKnowledge coverage over a sliding detection-feature window.
  if (dk_analyzer_ && !inputs.detection_features.empty()) {
    for (const auto& f : inputs.detection_features) {
      auto obs = dk_analyzer_->observe(*dk_model_, f);
      if (dk_window_.size() < dk_window_size_) {
        dk_window_.push_back(std::move(obs));
      } else {
        dk_window_[dk_next_] = std::move(obs);
        dk_next_ = (dk_next_ + 1) % dk_window_size_;
      }
    }
    if (dk_window_.size() == dk_window_size_) {
      assessment_.deepknowledge = dk_analyzer_->assess(dk_window_);
    }
  }

  // SINADRA situation risk, fed by the monitor bands.
  sinadra::SituationEvidence situation;
  situation.altitude = inputs.altitude_band;
  situation.visibility = inputs.visibility;
  situation.density = inputs.density;
  situation.safeml = safeml_confidence_band();
  situation.deepknowledge = dk_confidence_band();
  assessment_.risk = risk_.assess(situation);

  // Combined SAR uncertainty (paper Section V-B): mean of the available
  // perception-health signals, calibrated onto the reported scale.
  double raw = 0.0;
  double weight = 0.0;
  if (assessment_.safeml.has_value()) {
    raw += 1.0 - assessment_.safeml->confidence;
    weight += 1.0;
  }
  if (assessment_.deepknowledge.has_value()) {
    const double baseline =
        std::min(config_.dk_uncertainty_baseline, 1.0 - 1e-9);
    raw += std::max(0.0, (assessment_.deepknowledge->uncertainty - baseline) /
                             (1.0 - baseline));
    weight += 1.0;
  }
  raw += assessment_.risk.criticality;
  weight += 1.0;
  raw /= weight;
  assessment_.sar_uncertainty =
      std::clamp(config_.uncertainty_floor + config_.uncertainty_span * raw,
                 0.0, 1.0);
  assessment_.uncertainty_exceeded =
      assessment_.sar_uncertainty > config_.uncertainty_threshold;

  ticked_ = true;
  return assessment_;
}

bool UavEddi::attack_detected() const {
  return security_ && security_->attack_detected();
}

conserts::UavEvidence UavEddi::consert_evidence() const {
  if (!ticked_) {
    throw std::logic_error("UavEddi::consert_evidence: tick() never called");
  }
  conserts::UavEvidence e;
  e.gps_quality_good = last_inputs_.gps_fix_available;
  e.no_security_attack = !attack_detected();
  e.vision_sensor_healthy = last_inputs_.vision_sensor_healthy;
  e.safeml_confidence_high =
      assessment_.safeml.has_value() &&
      assessment_.safeml->level == safeml::ConfidenceLevel::kHigh;
  e.comm_link_good = last_inputs_.comm_link_good;
  e.nearby_uav_available = last_inputs_.nearby_uav_available;
  switch (assessment_.reliability.level) {
    case safedrones::ReliabilityLevel::kHigh: e.reliability_high = true; break;
    case safedrones::ReliabilityLevel::kMedium:
      e.reliability_medium = true;
      break;
    case safedrones::ReliabilityLevel::kLow: e.reliability_low = true; break;
  }
  return e;
}

}  // namespace sesame::eddi
