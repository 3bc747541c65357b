#include "sesame/mathx/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sesame::mathx {

namespace {
void require_nonempty(const std::vector<double>& xs, const char* who) {
  if (xs.empty()) {
    throw std::invalid_argument(std::string(who) + ": empty input");
  }
}
}  // namespace

double mean(const std::vector<double>& xs) {
  require_nonempty(xs, "mean");
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double variance(const std::vector<double>& xs) {
  if (xs.size() < 2) throw std::invalid_argument("variance: need >= 2 samples");
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(const std::vector<double>& xs) { return std::sqrt(variance(xs)); }

double quantile(std::vector<double> xs, double q) {
  require_nonempty(xs, "quantile");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q out of range");
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double min_value(const std::vector<double>& xs) {
  require_nonempty(xs, "min_value");
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(const std::vector<double>& xs) {
  require_nonempty(xs, "max_value");
  return *std::max_element(xs.begin(), xs.end());
}

double normal_quantile(double p) {
  if (p <= 0.0 || p >= 1.0) {
    throw std::invalid_argument("normal_quantile: p must be in (0,1)");
  }
  // Acklam's rational approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double plow = 0.02425;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - plow) {
    q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  q = p - 0.5;
  r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

}  // namespace sesame::mathx
