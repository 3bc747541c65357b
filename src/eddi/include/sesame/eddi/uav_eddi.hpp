// The per-UAV Executable Digital Dependability Identity.
//
// Composes the runtime technologies — SafeDrones (reliability), SafeML
// (perception distribution shift), DeepKnowledge (neuron coverage),
// SINADRA (situation risk), Security EDDI (attack trees) — into one
// executable artefact per UAV. Each tick it ingests telemetry and
// perception features, refreshes every model, derives the combined SAR
// uncertainty of Section V-B, and produces the evidence flags the ConSert
// network (Fig. 1) consumes.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sesame/conserts/uav_network.hpp"
#include "sesame/deepknowledge/analysis.hpp"
#include "sesame/eddi/ode.hpp"
#include "sesame/safedrones/uav_reliability.hpp"
#include "sesame/safeml/monitor.hpp"
#include "sesame/security/security_eddi.hpp"
#include "sesame/sinadra/risk.hpp"

namespace sesame::eddi {

struct UavEddiConfig {
  safedrones::ReliabilityConfig reliability;
  safeml::MonitorConfig safeml;
  sinadra::RiskConfig sinadra;
  /// Horizon over which SafeDrones projects the failure probability.
  double reliability_horizon_s = 600.0;
  /// SAR uncertainty calibration (paper Section V-B): even nominal
  /// conditions carry a high residual uncertainty on the reported scale —
  /// ~75% after descending, > 90% at high altitude. The reported value is
  /// floor + span * raw, raw in [0, 1].
  double uncertainty_floor = 0.70;
  double uncertainty_span = 0.30;
  /// Threshold on the reported scale above which perception cannot be
  /// trusted (paper: 90%).
  double uncertainty_threshold = 0.90;
  /// Design-time baseline of the DeepKnowledge uncertainty on in-domain
  /// windows. Runtime windows always sample a slice of the validated
  /// domain, so coverage-based uncertainty has a nonzero floor; the
  /// combination uses (u - baseline) / (1 - baseline), clamped at 0.
  double dk_uncertainty_baseline = 0.0;
};

/// Telemetry + situation inputs for one tick.
struct EddiInputs {
  /// Wall time since the previous tick (drives the cumulative battery
  /// tracker).
  double dt_s = 1.0;
  safedrones::TelemetrySnapshot telemetry;
  /// Per-frame perception features (SafeML channel); empty when the camera
  /// produced no frame this tick.
  std::vector<double> frame_features;
  /// DeepKnowledge per-detection feature vectors of this tick.
  std::vector<std::vector<double>> detection_features;
  sinadra::AltitudeBand altitude_band = sinadra::AltitudeBand::kUnknown;
  sinadra::Visibility visibility = sinadra::Visibility::kUnknown;
  sinadra::PersonDensity density = sinadra::PersonDensity::kUnknown;
  bool gps_fix_available = true;
  bool vision_sensor_healthy = true;
  bool comm_link_good = true;
  bool nearby_uav_available = false;
};

/// Snapshot of every monitor's verdict after a tick.
struct EddiAssessment {
  safedrones::ReliabilityEstimate reliability;
  std::optional<safeml::Assessment> safeml;
  std::optional<deepknowledge::CoverageReport> deepknowledge;
  sinadra::RiskAssessment risk;
  /// Combined SAR uncertainty on the paper's reported scale.
  double sar_uncertainty = 1.0;
  bool uncertainty_exceeded = true;  ///< sar_uncertainty > threshold
};

class UavEddi {
 public:
  /// `safeml_reference` is the training-time reference sample per feature;
  /// a fleet shares one ReferenceSet. DeepKnowledge assets (model +
  /// analyzer) are optional; when absent the combined uncertainty uses
  /// SafeML + SINADRA only.
  UavEddi(std::string uav_name, UavEddiConfig config,
          safeml::ReferenceSet safeml_reference);

  /// Attaches DeepKnowledge design-time assets. The analyzer must have
  /// been built against `model`. Window: each detection feature vector is
  /// observed once on arrival; once `window` observations are present, a
  /// report is computed on every tick that adds one.
  void attach_deepknowledge(std::shared_ptr<const deepknowledge::Mlp> model,
                            std::shared_ptr<const deepknowledge::Analyzer> analyzer,
                            std::size_t window = 32);

  /// Attaches a Security EDDI; its attack_detected() feeds the evidence.
  void attach_security(std::shared_ptr<security::SecurityEddi> security);

  const std::string& uav_name() const noexcept { return name_; }
  const UavEddiConfig& config() const noexcept { return config_; }

  /// Ingests one tick of inputs and refreshes all models.
  const EddiAssessment& tick(const EddiInputs& inputs);

  /// Last assessment (valid after the first tick).
  const EddiAssessment& assessment() const noexcept { return assessment_; }

  /// Whether the attached Security EDDI has detected an attack.
  bool attack_detected() const;

  /// Evidence flags for the ConSert network, derived from the last tick.
  conserts::UavEvidence consert_evidence() const;

 private:
  std::string name_;
  UavEddiConfig config_;
  safedrones::ReliabilityMonitor reliability_;
  /// Cumulative battery-failure tracker (the Fig. 5 P(fail) curve).
  safedrones::BatteryRuntimeTracker battery_tracker_;
  safeml::Monitor safeml_;
  sinadra::SarRiskModel risk_;
  std::shared_ptr<const deepknowledge::Mlp> dk_model_;
  std::shared_ptr<const deepknowledge::Analyzer> dk_analyzer_;
  std::shared_ptr<security::SecurityEddi> security_;
  /// Observations of the last dk_window_size_ detections; once full, a
  /// ring whose oldest entry is at dk_next_.
  std::vector<deepknowledge::Observation> dk_window_;
  std::size_t dk_next_ = 0;
  std::size_t dk_window_size_ = 32;
  EddiAssessment assessment_;
  EddiInputs last_inputs_;
  bool ticked_ = false;

  sinadra::PerceptionConfidence safeml_confidence_band() const;
  sinadra::PerceptionConfidence dk_confidence_band() const;
};

}  // namespace sesame::eddi
