// Minimal multi-layer perceptron with backpropagation training.
//
// Stands in for the tiny-YOLOv4 perception network of the paper: the
// DeepKnowledge analysis (activation traces, transfer-knowledge neurons,
// coverage) needs a real trained network whose internal neuron behaviour
// can be inspected. The synthetic person-detection features used by the
// perception module are low-dimensional, so a small fully-connected net is
// an adequate stand-in while exercising the identical analysis code paths.
#pragma once

#include <cstddef>
#include <vector>

#include "sesame/mathx/matrix.hpp"
#include "sesame/mathx/rng.hpp"

namespace sesame::deepknowledge {

/// Per-layer activations captured during a forward pass.
/// activations[l] holds the post-nonlinearity outputs of hidden layer l
/// (the output layer is not included; forward_traced returns the outputs).
using ActivationTrace = std::vector<std::vector<double>>;

/// Fully-connected network: ReLU hidden layers, sigmoid output layer,
/// trained with SGD on binary cross-entropy. Deterministically initialized
/// from a caller-provided RNG.
class Mlp {
 public:
  /// `layer_sizes` = {inputs, hidden..., outputs}; needs >= 2 entries and
  /// at least one hidden layer for DeepKnowledge analysis to be useful.
  Mlp(const std::vector<std::size_t>& layer_sizes, mathx::Rng& rng);

  std::size_t input_size() const noexcept { return layer_sizes_.front(); }
  std::size_t output_size() const noexcept { return layer_sizes_.back(); }
  std::size_t num_hidden_layers() const noexcept { return weights_.size() - 1; }
  std::size_t hidden_size(std::size_t layer) const {
    return layer_sizes_.at(layer + 1);
  }

  /// Total number of hidden neurons across all hidden layers.
  std::size_t num_hidden_neurons() const;

  /// Forward pass capturing hidden-layer activations; returns the sigmoid
  /// outputs.
  std::vector<double> forward_traced(const std::vector<double>& input,
                                     ActivationTrace& trace) const;

  /// One SGD epoch over the dataset (shuffled); returns mean loss.
  /// `targets` entries must have output_size() components in [0, 1].
  double train_epoch(const std::vector<std::vector<double>>& inputs,
                     const std::vector<std::vector<double>>& targets,
                     double learning_rate, mathx::Rng& rng);

 private:
  std::vector<std::size_t> layer_sizes_;
  std::vector<mathx::Matrix> weights_;        // weights_[l]: out x in
  std::vector<std::vector<double>> biases_;   // biases_[l]
};

}  // namespace sesame::deepknowledge
