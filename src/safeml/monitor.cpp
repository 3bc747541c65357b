#include "sesame/safeml/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sesame::safeml {

namespace {

std::vector<PreparedReference> prepare(
    const std::vector<std::vector<double>>& samples) {
  std::vector<PreparedReference> out;
  out.reserve(samples.size());
  for (const auto& f : samples) out.emplace_back(f);
  return out;
}

}  // namespace

ReferenceSet::ReferenceSet(const std::vector<std::vector<double>>& samples)
    : features_(std::make_shared<const std::vector<PreparedReference>>(
          prepare(samples))) {}

ReferenceSet::ReferenceSet(std::initializer_list<std::vector<double>> samples)
    : ReferenceSet(std::vector<std::vector<double>>(samples)) {}

Monitor::Monitor(MonitorConfig config, ReferenceSet reference)
    : config_(config), reference_(std::move(reference)) {
  if (reference_.num_features() == 0) {
    throw std::invalid_argument("Monitor: no reference features");
  }
  if (config_.window < 2) throw std::invalid_argument("Monitor: window < 2");
  if (config_.full_scale <= 0.0) {
    throw std::invalid_argument("Monitor: full_scale <= 0");
  }
  if (!(config_.low_threshold < config_.high_threshold) ||
      config_.low_threshold < 0.0 || config_.high_threshold > 1.0) {
    throw std::invalid_argument("Monitor: bad thresholds");
  }
  window_.resize(reference_.num_features());
  sorted_.resize(reference_.num_features());
  for (auto& s : sorted_) s.reserve(config_.window);
}

void Monitor::push(const std::vector<double>& features) {
  if (features.size() != reference_.num_features()) {
    throw std::invalid_argument("Monitor::push: feature count mismatch");
  }
  // A NaN has no place in the sorted window's order, and an infinity
  // would turn the walk's gaps into inf - inf.
  for (double x : features) {
    if (!std::isfinite(x)) {
      throw std::invalid_argument("Monitor::push: non-finite feature value");
    }
  }
  for (std::size_t i = 0; i < features.size(); ++i) {
    auto& sorted = sorted_[i];
    if (window_[i].size() == config_.window) {
      const double oldest = window_[i].front();
      window_[i].pop_front();
      sorted.erase(std::lower_bound(sorted.begin(), sorted.end(), oldest));
    }
    window_[i].push_back(features[i]);
    sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), features[i]),
                  features[i]);
  }
}

std::size_t Monitor::buffered() const noexcept {
  return window_.empty() ? 0 : window_.front().size();
}

bool Monitor::ready() const noexcept { return buffered() >= config_.window; }

std::vector<double> Monitor::per_feature_dissimilarity() const {
  if (!ready()) return {};
  std::vector<double> out;
  out.reserve(sorted_.size());
  for (std::size_t i = 0; i < sorted_.size(); ++i) {
    out.push_back(reference_[i].distance(config_.measure, sorted_[i]));
  }
  return out;
}

std::optional<Assessment> Monitor::assess() const {
  if (!ready()) return std::nullopt;
  const auto per_feature = per_feature_dissimilarity();
  double total = 0.0;
  for (double d : per_feature) total += d;
  const double dissimilarity = total / static_cast<double>(per_feature.size());
  Assessment a;
  a.dissimilarity = dissimilarity;
  a.confidence = std::clamp(1.0 - dissimilarity / config_.full_scale, 0.0, 1.0);
  a.level = classify(a.confidence);
  a.window_size = buffered();
  return a;
}

ConfidenceLevel Monitor::classify(double confidence) const {
  if (confidence >= config_.high_threshold) return ConfidenceLevel::kHigh;
  if (confidence >= config_.low_threshold) return ConfidenceLevel::kMedium;
  return ConfidenceLevel::kLow;
}

}  // namespace sesame::safeml
