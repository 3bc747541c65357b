#include "sesame/safeml/calibration.hpp"

#include <algorithm>
#include <stdexcept>

#include "sesame/mathx/stats.hpp"

namespace sesame::safeml {

CalibrationReport calibrate_monitor(
    Measure measure, const std::vector<std::vector<double>>& reference,
    std::size_t window, mathx::Rng& rng, int trials, double high_threshold,
    double low_threshold) {
  if (reference.empty()) {
    throw std::invalid_argument("calibrate_monitor: no reference features");
  }
  for (const auto& f : reference) {
    if (f.size() < window) {
      throw std::invalid_argument(
          "calibrate_monitor: reference smaller than window");
    }
  }
  if (window < 2) throw std::invalid_argument("calibrate_monitor: window < 2");
  if (trials < 10) throw std::invalid_argument("calibrate_monitor: trials < 10");
  if (!(0.0 < low_threshold && low_threshold < high_threshold &&
        high_threshold < 1.0)) {
    throw std::invalid_argument("calibrate_monitor: bad thresholds");
  }

  // Bootstrap self-distances: window resampled from the reference vs the
  // reference itself, aggregated across features as the monitor does.
  const ReferenceSet prepared(reference);
  std::vector<double> self_distances;
  self_distances.reserve(static_cast<std::size_t>(trials));
  std::vector<double> win(window);
  for (int t = 0; t < trials; ++t) {
    double total = 0.0;
    for (std::size_t k = 0; k < reference.size(); ++k) {
      const auto& feature = reference[k];
      for (std::size_t i = 0; i < window; ++i) {
        win[i] = feature[rng.uniform_index(feature.size())];
      }
      std::sort(win.begin(), win.end());
      total += prepared[k].distance(measure, win);
    }
    self_distances.push_back(total / static_cast<double>(reference.size()));
  }

  CalibrationReport report;
  report.self_distance_p50 = mathx::quantile(self_distances, 0.50);
  report.self_distance_p95 = mathx::quantile(self_distances, 0.95);

  MonitorConfig cfg;
  cfg.measure = measure;
  cfg.window = window;
  cfg.high_threshold = high_threshold;
  cfg.low_threshold = low_threshold;
  // confidence(d) = 1 - d / full_scale; place the p95 self-distance at the
  // High boundary so clean windows classify High ~95% of the time.
  const double p95 = std::max(report.self_distance_p95, 1e-9);
  cfg.full_scale = p95 / (1.0 - high_threshold);
  report.config = cfg;
  return report;
}

}  // namespace sesame::safeml
