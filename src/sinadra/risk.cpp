#include "sesame/sinadra/risk.hpp"

#include <stdexcept>

namespace sesame::sinadra {

namespace {

/// Packs the five evidence enums (each <= 4 values) into 2 bits apiece.
std::uint16_t pack_evidence_key(const SituationEvidence& e) {
  return static_cast<std::uint16_t>(
      static_cast<unsigned>(e.altitude) |
      (static_cast<unsigned>(e.visibility) << 2) |
      (static_cast<unsigned>(e.density) << 4) |
      (static_cast<unsigned>(e.safeml) << 6) |
      (static_cast<unsigned>(e.deepknowledge) << 8));
}

}  // namespace

SarRiskModel::SarRiskModel(RiskConfig config) : config_(config) {
  if (!(config_.rescan_threshold < config_.descend_threshold) ||
      config_.rescan_threshold <= 0.0 || config_.descend_threshold >= 1.0) {
    throw std::invalid_argument("SarRiskModel: bad thresholds");
  }

  altitude_ = net_.add_variable("altitude", {"low", "medium", "high"});
  visibility_ = net_.add_variable("visibility", {"good", "poor"});
  density_ = net_.add_variable("density", {"sparse", "dense"});
  detection_quality_ =
      net_.add_variable("detection_quality", {"good", "degraded", "poor"});
  safeml_ = net_.add_variable("safeml", {"high", "medium", "low"});
  deepknowledge_ = net_.add_variable("deepknowledge", {"high", "medium", "low"});
  missed_risk_ = net_.add_variable("missed_risk", {"low", "medium", "high"});

  // Situation priors (mission profiles skew toward the nominal case).
  net_.set_prior(altitude_, {0.40, 0.40, 0.20});
  net_.set_prior(visibility_, {0.80, 0.20});
  net_.set_prior(density_, {0.70, 0.30});

  // Detection quality is driven by altitude and visibility: low altitude in
  // good visibility is near-ideal; high altitude in poor visibility is poor.
  net_.set_cpt(detection_quality_, {altitude_, visibility_},
               {
                   // good, degraded, poor
                   0.92, 0.07, 0.01,  // low, good
                   0.55, 0.35, 0.10,  // low, poor
                   0.70, 0.25, 0.05,  // medium, good
                   0.30, 0.45, 0.25,  // medium, poor
                   0.25, 0.45, 0.30,  // high, good
                   0.05, 0.35, 0.60,  // high, poor
               });

  // SafeML and DeepKnowledge are noisy sensors of detection quality. The
  // two differ slightly: SafeML (input-distribution distance) is sharper on
  // "poor", DeepKnowledge (neuron coverage) is sharper on "degraded".
  net_.set_cpt(safeml_, {detection_quality_},
               {
                   0.85, 0.12, 0.03,  // quality good  -> confidence high...
                   0.25, 0.55, 0.20,  // degraded
                   0.03, 0.17, 0.80,  // poor
               });
  net_.set_cpt(deepknowledge_, {detection_quality_},
               {
                   0.82, 0.15, 0.03,
                   0.15, 0.65, 0.20,
                   0.05, 0.25, 0.70,
               });

  // Missed-person risk: poor detection in dense areas is the worst case.
  net_.set_cpt(missed_risk_, {detection_quality_, density_},
               {
                   // low, medium, high
                   0.93, 0.06, 0.01,  // good, sparse
                   0.85, 0.12, 0.03,  // good, dense
                   0.55, 0.35, 0.10,  // degraded, sparse
                   0.35, 0.45, 0.20,  // degraded, dense
                   0.15, 0.40, 0.45,  // poor, sparse
                   0.05, 0.25, 0.70,  // poor, dense
               });
}

bayes::Network::Evidence SarRiskModel::to_evidence(
    const SituationEvidence& e) const {
  bayes::Network::Evidence ev;
  switch (e.altitude) {
    case AltitudeBand::kLow: ev[altitude_] = 0; break;
    case AltitudeBand::kMedium: ev[altitude_] = 1; break;
    case AltitudeBand::kHigh: ev[altitude_] = 2; break;
    case AltitudeBand::kUnknown: break;
  }
  switch (e.visibility) {
    case Visibility::kGood: ev[visibility_] = 0; break;
    case Visibility::kPoor: ev[visibility_] = 1; break;
    case Visibility::kUnknown: break;
  }
  switch (e.density) {
    case PersonDensity::kSparse: ev[density_] = 0; break;
    case PersonDensity::kDense: ev[density_] = 1; break;
    case PersonDensity::kUnknown: break;
  }
  const auto map_conf = [](PerceptionConfidence c,
                           bayes::Network::Evidence& out, bayes::VarId var) {
    switch (c) {
      case PerceptionConfidence::kHigh: out[var] = 0; break;
      case PerceptionConfidence::kMedium: out[var] = 1; break;
      case PerceptionConfidence::kLow: out[var] = 2; break;
      case PerceptionConfidence::kUnknown: break;
    }
  };
  map_conf(e.safeml, ev, safeml_);
  map_conf(e.deepknowledge, ev, deepknowledge_);
  return ev;
}

RiskAssessment SarRiskModel::assess(const SituationEvidence& evidence) const {
  const std::uint16_t key = pack_evidence_key(evidence);
  if (const auto it = assess_memo_.find(key); it != assess_memo_.end()) {
    return it->second;
  }
  const auto posterior = net_.query(missed_risk_, to_evidence(evidence));
  RiskAssessment r;
  r.p_missed_person = posterior[2];
  // Expected criticality with {low, medium, high} -> {0, 0.5, 1}.
  r.criticality = 0.5 * posterior[1] + posterior[2];
  if (r.criticality >= config_.descend_threshold) {
    r.recommendation = Adaptation::kDescendAndRescan;
  } else if (r.criticality >= config_.rescan_threshold) {
    r.recommendation = Adaptation::kRescan;
  } else {
    r.recommendation = Adaptation::kProceed;
  }
  assess_memo_.emplace(key, r);
  return r;
}

}  // namespace sesame::sinadra
