// SafeML runtime monitor.
//
// Holds per-feature reference samples captured from the ML model's training
// data and compares a sliding window of runtime feature values against them.
// The aggregated statistical distance maps to a confidence in the ML
// model's output; ConSerts consume the confidence level to decide whether
// perception-based guarantees (e.g. "vision-based navigation < 1 m") hold.
#pragma once

#include <deque>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sesame/safeml/distances.hpp"

namespace sesame::safeml {

/// Discrete confidence levels reported to ConSerts.
enum class ConfidenceLevel { kHigh, kMedium, kLow };

/// One monitor verdict.
struct Assessment {
  double dissimilarity = 0.0;  ///< aggregated distance across features
  double confidence = 1.0;     ///< 1 - normalized dissimilarity, in [0, 1]
  ConfidenceLevel level = ConfidenceLevel::kHigh;
  std::size_t window_size = 0;  ///< samples the verdict is based on
};

/// Monitor configuration.
struct MonitorConfig {
  Measure measure = Measure::kKolmogorovSmirnov;
  std::size_t window = 64;  ///< sliding-window length (per feature)
  /// Dissimilarity value mapping to confidence 0. KS/Kuiper are already in
  /// [0,1]/[0,2]; for unbounded measures (Wasserstein/AD) choose the scale
  /// from training-time calibration.
  double full_scale = 1.0;
  double high_threshold = 0.75;  ///< confidence >= this -> High
  double low_threshold = 0.40;   ///< confidence < this -> Low
};

/// Per-feature prepared references of one training dataset. Copies share
/// the prepared data, so a fleet of monitors and the design-time
/// calibration hold one copy between them.
class ReferenceSet {
 public:
  /// One training-time sample per feature. Throws std::invalid_argument
  /// on an empty or NaN-containing feature sample.
  ReferenceSet(const std::vector<std::vector<double>>& samples);
  ReferenceSet(std::initializer_list<std::vector<double>> samples);

  std::size_t num_features() const noexcept { return features_->size(); }
  const PreparedReference& operator[](std::size_t feature) const {
    return (*features_)[feature];
  }

 private:
  std::shared_ptr<const std::vector<PreparedReference>> features_;
};

/// Sliding-window distribution-shift monitor over one or more features.
class Monitor {
 public:
  /// `reference` holds one training-time sample per feature (all non-empty,
  /// same feature count as runtime pushes). Throws std::invalid_argument on
  /// empty/invalid configuration.
  Monitor(MonitorConfig config, ReferenceSet reference);

  std::size_t num_features() const noexcept { return reference_.num_features(); }
  const MonitorConfig& config() const noexcept { return config_; }

  /// Pushes one runtime observation (one value per feature). Throws
  /// std::invalid_argument on a feature-count mismatch or a non-finite
  /// value; the window is unchanged then.
  void push(const std::vector<double>& features);

  /// Number of runtime observations currently buffered.
  std::size_t buffered() const noexcept;

  /// True once the window is full and assessments are meaningful.
  bool ready() const noexcept;

  /// Assesses the current window. Before `ready()`, returns nullopt.
  std::optional<Assessment> assess() const;

  /// Per-feature distances of the current window (diagnostics: which input
  /// channel drifted). Empty before `ready()`.
  std::vector<double> per_feature_dissimilarity() const;

 private:
  MonitorConfig config_;
  ReferenceSet reference_;
  /// Per feature: the window in arrival order, and the same values kept
  /// ascending (one insert and one erase per push) for the ECDF walk.
  std::vector<std::deque<double>> window_;
  std::vector<std::vector<double>> sorted_;

  ConfidenceLevel classify(double confidence) const;
};

}  // namespace sesame::safeml
