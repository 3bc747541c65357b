#include "sesame/deepknowledge/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sesame::deepknowledge {

namespace {

/// Collects activations per hidden neuron over a dataset:
/// result[layer][neuron] = vector of activations across inputs.
std::vector<std::vector<std::vector<double>>> collect_activations(
    const Mlp& model, const std::vector<std::vector<double>>& data) {
  std::vector<std::vector<std::vector<double>>> acts(model.num_hidden_layers());
  for (std::size_t l = 0; l < model.num_hidden_layers(); ++l) {
    acts[l].resize(model.hidden_size(l));
  }
  ActivationTrace trace;
  for (const auto& input : data) {
    model.forward_traced(input, trace);
    for (std::size_t l = 0; l < trace.size(); ++l) {
      for (std::size_t n = 0; n < trace[l].size(); ++n) {
        acts[l][n].push_back(trace[l][n]);
      }
    }
  }
  return acts;
}

/// Symmetrized histogram divergence in [0, 1]: half the L1 distance between
/// normalized histograms over the union range (total-variation distance).
double histogram_divergence(const std::vector<double>& a,
                            const std::vector<double>& b, std::size_t bins) {
  double lo = a.front(), hi = a.front();
  for (double x : a) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  for (double x : b) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  if (hi - lo < 1e-12) return 0.0;  // both distributions degenerate & equal
  std::vector<double> ha(bins, 0.0), hb(bins, 0.0);
  const auto bin_of = [&](double x) {
    auto i = static_cast<std::size_t>((x - lo) / (hi - lo) *
                                      static_cast<double>(bins));
    return std::min(i, bins - 1);
  };
  for (double x : a) ha[bin_of(x)] += 1.0 / static_cast<double>(a.size());
  for (double x : b) hb[bin_of(x)] += 1.0 / static_cast<double>(b.size());
  double l1 = 0.0;
  for (std::size_t i = 0; i < bins; ++i) l1 += std::abs(ha[i] - hb[i]);
  return 0.5 * l1;
}

}  // namespace

Analyzer::Analyzer(const Mlp& model, const std::vector<std::vector<double>>& train,
                   const std::vector<std::vector<double>>& shifted,
                   AnalysisConfig config)
    : config_(config) {
  if (train.empty() || shifted.empty()) {
    throw std::invalid_argument("Analyzer: empty dataset");
  }
  if (model.num_hidden_layers() == 0) {
    throw std::invalid_argument("Analyzer: model has no hidden layers");
  }
  if (config_.top_k == 0 || config_.buckets == 0 || config_.histogram_bins == 0) {
    throw std::invalid_argument("Analyzer: zero-size configuration");
  }

  const auto train_acts = collect_activations(model, train);
  const auto shift_acts = collect_activations(model, shifted);

  for (std::size_t l = 0; l < train_acts.size(); ++l) {
    for (std::size_t n = 0; n < train_acts[l].size(); ++n) {
      NeuronProfile p;
      p.id = {l, n};
      const auto& ta = train_acts[l][n];
      p.train_min = *std::min_element(ta.begin(), ta.end());
      p.train_max = *std::max_element(ta.begin(), ta.end());
      p.transfer_score =
          histogram_divergence(ta, shift_acts[l][n], config_.histogram_bins);
      profiles_.push_back(p);
    }
  }
  std::stable_sort(profiles_.begin(), profiles_.end(),
                   [](const NeuronProfile& a, const NeuronProfile& b) {
                     return a.transfer_score > b.transfer_score;
                   });
  const std::size_t k = std::min(config_.top_k, profiles_.size());
  tk_neurons_.assign(profiles_.begin(), profiles_.begin() + static_cast<long>(k));
  double acc = 0.0;
  for (const auto& p : tk_neurons_) acc += p.transfer_score;
  generalisation_shift_ = tk_neurons_.empty() ? 0.0 : acc / static_cast<double>(k);
}

Observation Analyzer::observe(const Mlp& model,
                             const std::vector<double>& input) const {
  for (double x : input) {
    if (!std::isfinite(x)) {
      throw std::invalid_argument("Analyzer::observe: non-finite input value");
    }
  }
  ActivationTrace trace;
  model.forward_traced(input, trace);
  Observation obs(tk_neurons_.size(), kOutOfRange);
  for (std::size_t t = 0; t < tk_neurons_.size(); ++t) {
    const auto& p = tk_neurons_[t];
    const double a = trace.at(p.id.layer).at(p.id.index);
    if (!(a >= p.train_min - 1e-12 && a <= p.train_max + 1e-12)) continue;
    const double span = p.train_max - p.train_min;
    std::size_t bucket = 0;
    if (span > 1e-12) {
      bucket = static_cast<std::size_t>((a - p.train_min) / span *
                                        static_cast<double>(config_.buckets));
      bucket = std::min(bucket, config_.buckets - 1);
    }
    obs[t] = bucket;
  }
  return obs;
}

CoverageReport Analyzer::assess(const std::vector<Observation>& window) const {
  if (window.empty()) {
    throw std::invalid_argument("Analyzer::assess: empty window");
  }
  // Hit bitmap over (tk_index, bucket); out-of-range activations counted
  // apart.
  std::vector<char> hit(tk_neurons_.size() * config_.buckets, 0);
  std::size_t hits = 0;
  std::size_t oor = 0;
  for (const auto& obs : window) {
    for (std::size_t t = 0; t < obs.size(); ++t) {
      if (obs[t] == kOutOfRange) {
        ++oor;
      } else if (!hit[t * config_.buckets + obs[t]]) {
        hit[t * config_.buckets + obs[t]] = 1;
        ++hits;
      }
    }
  }
  const std::size_t total_obs = window.size() * tk_neurons_.size();

  CoverageReport r;
  const double total_buckets = static_cast<double>(hit.size());
  r.coverage = total_buckets > 0.0
                   ? static_cast<double>(hits) / total_buckets
                   : 0.0;
  r.out_of_range =
      total_obs > 0 ? static_cast<double>(oor) / static_cast<double>(total_obs)
                    : 0.0;
  // Uncertainty grows as coverage falls and as activations leave the
  // validated range. The window can only populate min(|window|, buckets)
  // buckets per neuron, so normalize coverage by the attainable maximum.
  const double attainable =
      std::min<double>(static_cast<double>(window.size()),
                       static_cast<double>(config_.buckets)) /
      static_cast<double>(config_.buckets);
  const double effective_cov =
      attainable > 0.0 ? std::min(1.0, r.coverage / attainable) : 0.0;
  r.uncertainty = std::clamp(1.0 - effective_cov * (1.0 - r.out_of_range),
                             0.0, 1.0);
  r.window_size = window.size();
  return r;
}

CoverageReport Analyzer::assess(
    const Mlp& model, const std::vector<std::vector<double>>& window) const {
  std::vector<Observation> observed;
  observed.reserve(window.size());
  for (const auto& input : window) observed.push_back(observe(model, input));
  return assess(observed);
}

}  // namespace sesame::deepknowledge
