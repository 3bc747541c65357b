// DeepKnowledge analysis (Missaoui, Gerasimou, Matragkas 2024):
// generalization-driven testing of a neural network via transfer-knowledge
// (TK) neurons.
//
// Design-time phase: run the model over its training data and over a
// shifted ("generalization") dataset, compare each hidden neuron's
// activation distribution across the two domains, and select the neurons
// that transfer knowledge — those whose activation behaviour changes most
// under domain shift. Each TK neuron's observed training range is split
// into coverage buckets.
//
// Runtime phase: feed a window of inputs, record which TK-neuron buckets
// are hit, and report a coverage score. Low coverage (runtime activations
// concentrated in few, or out-of-range, buckets) indicates the model is
// operating away from its validated behaviour; the score maps to the
// uncertainty the SAR mission logic consumes.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "sesame/deepknowledge/mlp.hpp"

namespace sesame::deepknowledge {

/// Identifies a hidden neuron by layer and index.
struct NeuronId {
  std::size_t layer = 0;
  std::size_t index = 0;
  friend bool operator==(const NeuronId&, const NeuronId&) = default;
};

/// Design-time statistics of one hidden neuron.
struct NeuronProfile {
  NeuronId id;
  double train_min = 0.0;
  double train_max = 0.0;
  /// Symmetrized histogram divergence between training-domain and
  /// shifted-domain activation distributions, in [0, 1].
  double transfer_score = 0.0;
};

/// Configuration of the analysis.
struct AnalysisConfig {
  std::size_t top_k = 8;        ///< number of TK neurons to select
  std::size_t buckets = 10;     ///< coverage buckets per TK neuron
  std::size_t histogram_bins = 16;  ///< bins for the transfer-score estimate
};

/// Runtime verdict.
struct CoverageReport {
  double coverage = 0.0;       ///< fraction of TK buckets hit, in [0, 1]
  double out_of_range = 0.0;   ///< fraction of activations outside train range
  /// Uncertainty estimate in [0, 1]: high when coverage is low and/or
  /// activations fall outside the validated range.
  double uncertainty = 1.0;
  std::size_t window_size = 0;
};

/// What one input does to the TK neurons: for each TK neuron (in
/// tk_neurons() order), the coverage bucket its activation falls in, or
/// kOutOfRange when the activation leaves the neuron's training range.
using Observation = std::vector<std::size_t>;
inline constexpr std::size_t kOutOfRange = static_cast<std::size_t>(-1);

/// The DeepKnowledge analyzer bound to one model.
class Analyzer {
 public:
  /// Runs the design-time phase. `train` and `shifted` are input datasets
  /// (not labels; only activations matter). Throws std::invalid_argument
  /// on empty datasets or a model without hidden layers.
  Analyzer(const Mlp& model, const std::vector<std::vector<double>>& train,
           const std::vector<std::vector<double>>& shifted,
           AnalysisConfig config = {});

  /// All hidden-neuron profiles, sorted by descending transfer score.
  const std::vector<NeuronProfile>& profiles() const noexcept {
    return profiles_;
  }

  /// The selected transfer-knowledge neurons (top_k highest scores).
  const std::vector<NeuronProfile>& tk_neurons() const noexcept {
    return tk_neurons_;
  }

  const AnalysisConfig& config() const noexcept { return config_; }

  /// Aggregate design-time generalization score in [0, 1]: mean transfer
  /// score of the TK set (higher = more of the model's knowledge shifts
  /// under domain change, i.e. weaker generalization).
  double generalisation_shift() const noexcept { return generalisation_shift_; }

  /// One forward pass of `input`, bucketed per TK neuron. Throws
  /// std::invalid_argument on a NaN or infinite input value.
  Observation observe(const Mlp& model, const std::vector<double>& input) const;

  /// Coverage of a window of observations (their order does not matter).
  /// Throws std::invalid_argument on an empty window.
  CoverageReport assess(const std::vector<Observation>& window) const;

  /// Evaluates coverage of a runtime input window: observes each entry,
  /// then counts as above.
  CoverageReport assess(const Mlp& model,
                        const std::vector<std::vector<double>>& window) const;

 private:
  AnalysisConfig config_;
  std::vector<NeuronProfile> profiles_;
  std::vector<NeuronProfile> tk_neurons_;
  double generalisation_shift_ = 0.0;
};

}  // namespace sesame::deepknowledge
