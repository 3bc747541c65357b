// Descriptive statistics shared by the monitors, the campaign summaries
// and the benchmark harnesses.
#pragma once

#include <cstddef>
#include <vector>

namespace sesame::mathx {

/// Arithmetic mean. Throws std::invalid_argument on empty input.
double mean(const std::vector<double>& xs);

/// Unbiased sample variance (n-1 denominator). Requires size >= 2.
double variance(const std::vector<double>& xs);

/// Sample standard deviation.
double stddev(const std::vector<double>& xs);

/// Linear-interpolation quantile, q in [0,1]. Input copied & sorted.
double quantile(std::vector<double> xs, double q);

/// min/max over a non-empty vector.
double min_value(const std::vector<double>& xs);
double max_value(const std::vector<double>& xs);

/// Standard normal quantile (Acklam's rational approximation, |err|<1e-9).
double normal_quantile(double p);

}  // namespace sesame::mathx
