// SINADRA: situation-aware dynamic risk assessment (Reich & Trapp, EDCC
// 2020), instantiated for the SAR mission.
//
// A Bayesian network relates the flight situation (altitude band,
// visibility, expected person density) and the perception health signals
// (SafeML confidence, DeepKnowledge uncertainty) to the risk of *missing a
// person* in the scanned area. The resulting criticality drives the
// adaptation the paper describes in Section III-A4: high criticality means
// the area must be re-scanned (or the UAV must descend); low criticality
// lets the mission proceed.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "sesame/bayes/network.hpp"

namespace sesame::sinadra {

/// Discretized situation evidence. Every field is optional in spirit:
/// use the *Unknown value to leave it unobserved.
enum class AltitudeBand { kLow, kMedium, kHigh, kUnknown };
enum class Visibility { kGood, kPoor, kUnknown };
enum class PersonDensity { kSparse, kDense, kUnknown };
enum class PerceptionConfidence { kHigh, kMedium, kLow, kUnknown };

struct SituationEvidence {
  AltitudeBand altitude = AltitudeBand::kUnknown;
  Visibility visibility = Visibility::kUnknown;
  PersonDensity density = PersonDensity::kUnknown;
  /// SafeML confidence level (statistical-distance monitor output).
  PerceptionConfidence safeml = PerceptionConfidence::kUnknown;
  /// DeepKnowledge uncertainty mapped onto the same scale.
  PerceptionConfidence deepknowledge = PerceptionConfidence::kUnknown;
};

/// Recommended adaptation (paper Section III-A4).
enum class Adaptation { kProceed, kRescan, kDescendAndRescan };

struct RiskAssessment {
  double p_missed_person = 0.0;  ///< P(missed-person risk = high)
  double criticality = 0.0;      ///< expected criticality in [0, 1]
  Adaptation recommendation = Adaptation::kProceed;
};

struct RiskConfig {
  /// Criticality above which an immediate re-scan is demanded.
  double rescan_threshold = 0.45;
  /// Criticality above which the UAV should also descend before rescanning.
  double descend_threshold = 0.70;
};

/// The SAR missed-person risk model.
class SarRiskModel {
 public:
  explicit SarRiskModel(RiskConfig config = {});

  /// Evaluates the risk network under the given evidence. The evidence
  /// space is tiny (five small enums), and the network plus thresholds are
  /// immutable after construction, so results are memoised per distinct
  /// evidence combination — steady-state ticks with an unchanged situation
  /// skip the Bayesian inference entirely.
  RiskAssessment assess(const SituationEvidence& evidence) const;

  /// Read access to the underlying network (analysis/tests).
  const bayes::Network& network() const noexcept { return net_; }

 private:
  RiskConfig config_;
  bayes::Network net_;
  bayes::VarId altitude_, visibility_, density_, safeml_, deepknowledge_;
  bayes::VarId detection_quality_, missed_risk_;
  /// Memo of assess() results keyed by the 2-bit-packed evidence enums.
  /// Mutable: a pure cache over the immutable network, confined to the
  /// owning thread like the rest of the model.
  mutable std::map<std::uint16_t, RiskAssessment> assess_memo_;

  bayes::Network::Evidence to_evidence(const SituationEvidence& e) const;
};

}  // namespace sesame::sinadra
