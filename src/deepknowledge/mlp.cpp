#include "sesame/deepknowledge/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace sesame::deepknowledge {

namespace {

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

Mlp::Mlp(const std::vector<std::size_t>& layer_sizes, mathx::Rng& rng)
    : layer_sizes_(layer_sizes) {
  if (layer_sizes_.size() < 2) {
    throw std::invalid_argument("Mlp: need at least input and output layers");
  }
  for (std::size_t s : layer_sizes_) {
    if (s == 0) throw std::invalid_argument("Mlp: zero-size layer");
  }
  for (std::size_t l = 0; l + 1 < layer_sizes_.size(); ++l) {
    const std::size_t in = layer_sizes_[l];
    const std::size_t out = layer_sizes_[l + 1];
    mathx::Matrix w(out, in);
    // He initialization for the ReLU layers, Xavier-ish for the output.
    const double scale = std::sqrt(2.0 / static_cast<double>(in));
    for (std::size_t i = 0; i < out; ++i) {
      for (std::size_t j = 0; j < in; ++j) w(i, j) = rng.normal(0.0, scale);
    }
    weights_.push_back(std::move(w));
    biases_.emplace_back(out, 0.0);
  }
}

std::size_t Mlp::num_hidden_neurons() const {
  std::size_t total = 0;
  for (std::size_t l = 1; l + 1 < layer_sizes_.size(); ++l) {
    total += layer_sizes_[l];
  }
  return total;
}

std::vector<double> Mlp::forward_traced(const std::vector<double>& input,
                                        ActivationTrace& trace) const {
  if (input.size() != input_size()) {
    throw std::invalid_argument("Mlp::forward_traced: input size mismatch");
  }
  trace.clear();
  std::vector<double> x = input;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    std::vector<double> z = weights_[l].apply(x);
    for (std::size_t i = 0; i < z.size(); ++i) z[i] += biases_[l][i];
    const bool is_output = (l + 1 == weights_.size());
    if (is_output) {
      for (double& v : z) v = sigmoid(v);
    } else {
      for (double& v : z) v = std::max(0.0, v);
      trace.push_back(z);
    }
    x = std::move(z);
  }
  return x;
}

double Mlp::train_epoch(const std::vector<std::vector<double>>& inputs,
                        const std::vector<std::vector<double>>& targets,
                        double learning_rate, mathx::Rng& rng) {
  if (inputs.size() != targets.size() || inputs.empty()) {
    throw std::invalid_argument("Mlp::train_epoch: bad dataset");
  }
  std::vector<std::size_t> order(inputs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);

  double total_loss = 0.0;
  for (std::size_t idx : order) {
    const auto& input = inputs[idx];
    const auto& target = targets[idx];
    if (target.size() != output_size()) {
      throw std::invalid_argument("Mlp::train_epoch: target size mismatch");
    }

    // Forward, keeping pre-activation inputs of every layer.
    std::vector<std::vector<double>> layer_inputs;  // x fed into layer l
    std::vector<double> x = input;
    std::vector<std::vector<double>> post;  // post-activation per layer
    for (std::size_t l = 0; l < weights_.size(); ++l) {
      layer_inputs.push_back(x);
      std::vector<double> z = weights_[l].apply(x);
      for (std::size_t i = 0; i < z.size(); ++i) z[i] += biases_[l][i];
      if (l + 1 == weights_.size()) {
        for (double& v : z) v = sigmoid(v);
      } else {
        for (double& v : z) v = std::max(0.0, v);
      }
      post.push_back(z);
      x = z;
    }

    // Binary cross-entropy loss and its convenient sigmoid gradient.
    const auto& y = post.back();
    for (std::size_t i = 0; i < y.size(); ++i) {
      const double yi = std::clamp(y[i], 1e-12, 1.0 - 1e-12);
      total_loss += -(target[i] * std::log(yi) +
                      (1.0 - target[i]) * std::log(1.0 - yi));
    }

    // Backward pass. delta starts as dL/dz for the output layer.
    std::vector<double> delta(y.size());
    for (std::size_t i = 0; i < y.size(); ++i) delta[i] = y[i] - target[i];

    for (std::size_t l = weights_.size(); l-- > 0;) {
      const auto& in = layer_inputs[l];
      // Gradient step on weights/biases of layer l.
      std::vector<double> prev_delta(in.size(), 0.0);
      for (std::size_t i = 0; i < delta.size(); ++i) {
        for (std::size_t j = 0; j < in.size(); ++j) {
          prev_delta[j] += weights_[l](i, j) * delta[i];
          weights_[l](i, j) -= learning_rate * delta[i] * in[j];
        }
        biases_[l][i] -= learning_rate * delta[i];
      }
      if (l == 0) break;
      // Through the ReLU of layer l-1.
      const auto& act = post[l - 1];
      for (std::size_t j = 0; j < prev_delta.size(); ++j) {
        if (act[j] <= 0.0) prev_delta[j] = 0.0;
      }
      delta = std::move(prev_delta);
    }
  }
  return total_loss / static_cast<double>(inputs.size());
}

}  // namespace sesame::deepknowledge
