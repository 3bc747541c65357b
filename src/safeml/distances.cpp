#include "sesame/safeml/distances.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sesame::safeml {

namespace {

bool has_nan(const std::vector<double>& v) {
  return std::any_of(v.begin(), v.end(), [](double x) { return std::isnan(x); });
}

void require_samples(const std::vector<double>& a, const std::vector<double>& b,
                     const char* who) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument(std::string(who) + ": empty sample");
  }
  // NaN breaks the strict weak ordering the sort and the walk rely on.
  if (has_nan(a) || has_nan(b)) {
    throw std::invalid_argument(std::string(who) + ": NaN in sample");
  }
}

std::vector<double> sorted_copy(const std::vector<double>& v) {
  std::vector<double> out = v;
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

PreparedReference::PreparedReference(std::vector<double> sample)
    : n_(sample.size()) {
  if (sample.empty()) {
    throw std::invalid_argument("PreparedReference: empty sample");
  }
  if (has_nan(sample)) {
    throw std::invalid_argument("PreparedReference: NaN in sample");
  }
  std::sort(sample.begin(), sample.end());
  values_.reserve(n_);
  cdf_.reserve(n_);
  const double n = static_cast<double>(n_);
  std::size_t i = 0;
  while (i < sample.size()) {
    // A run of equal values is one ECDF point; keep its first element.
    const double x = sample[i];
    while (i < sample.size() && sample[i] == x) ++i;
    values_.push_back(x);
    cdf_.push_back(static_cast<double>(i) / n);
  }
  gap_.resize(values_.size(), 0.0);
  for (std::size_t k = 0; k + 1 < values_.size(); ++k) {
    gap_[k] = values_[k + 1] - values_[k];
  }
}

/// The one ECDF walk. Visits every distinct point x of the pooled sample in
/// ascending order and calls step(fa, fb, dx): the reference ECDF at x, the
/// window ECDF at x, and the distance from x to the next pooled point (0 at
/// the last). Each ECDF value is count / size and each dx is one
/// subtraction of neighbouring sample values, so every measure sees the
/// same terms in the same order as a merge of the two raw sorted samples.
template <typename Step>
void PreparedReference::walk(const std::vector<double>& window_sorted,
                             Step&& step) const {
  const std::vector<double>& w = window_sorted;
  const std::size_t kn = values_.size();
  const std::size_t wn = w.size();
  const double nb = static_cast<double>(wn);
  std::size_t k = 0;  // next reference value
  std::size_t j = 0;  // next window value
  double fa = 0.0;    // reference ECDF just below the next point
  while (j < wn) {
    const double y = w[j];
    if (k < kn && values_[k] < y) {
      // Reference-only points below y: each steps to the next reference
      // value, except the last, which steps to y.
      const double fb = static_cast<double>(j) / nb;
      for (; k + 1 < kn && values_[k + 1] < y; ++k) step(cdf_[k], fb, gap_[k]);
      fa = cdf_[k];
      step(fa, fb, y - values_[k]);
      ++k;
    }
    // The window point y, shared with the reference when values_[k] == y.
    if (k < kn && values_[k] == y) fa = cdf_[k++];
    std::size_t jn = j + 1;
    while (jn < wn && w[jn] == y) ++jn;
    double dx = 0.0;
    if (jn < wn) {
      dx = (k < kn ? std::min(values_[k], w[jn]) : w[jn]) - y;
    } else if (k < kn) {
      dx = values_[k] - y;
    }
    step(fa, static_cast<double>(jn) / nb, dx);
    j = jn;
  }
  // Reference-only points above the window: the window ECDF is wn / wn.
  for (; k < kn; ++k) step(cdf_[k], 1.0, gap_[k]);
}

double PreparedReference::distance(Measure m,
                                   const std::vector<double>& window_sorted) const {
  if (window_sorted.empty()) {
    throw std::invalid_argument("PreparedReference::distance: empty window");
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(window_sorted.size());
  const double n = na + nb;
  double acc = 0.0;
  switch (m) {
    case Measure::kKolmogorovSmirnov:
      walk(window_sorted, [&](double fa, double fb, double) {
        acc = std::max(acc, std::abs(fa - fb));
      });
      return acc;
    case Measure::kKuiper: {
      double dminus = 0.0;
      walk(window_sorted, [&](double fa, double fb, double) {
        acc = std::max(acc, fa - fb);
        dminus = std::max(dminus, fb - fa);
      });
      return acc + dminus;
    }
    case Measure::kAndersonDarling:
      // Integrate (Fa-Fb)^2 / (H(1-H)) dH-steps over the pooled ECDF H.
      walk(window_sorted, [&](double fa, double fb, double) {
        const double h = (na * fa + nb * fb) / n;
        const double w = h * (1.0 - h);
        if (w > 1e-12) {
          const double d = fa - fb;
          acc += d * d / w;
        }
      });
      // Normalize by the number of joint steps so the statistic is
      // comparable across window sizes (runtime monitors use fixed windows
      // anyway).
      return acc * (na * nb) / (n * n);
    case Measure::kCramerVonMises:
      walk(window_sorted, [&](double fa, double fb, double) {
        const double d = fa - fb;
        acc += d * d;
      });
      return acc * (na * nb) / (n * n);
    case Measure::kWasserstein:
      walk(window_sorted, [&](double fa, double fb, double dx) {
        acc += std::abs(fa - fb) * dx;
      });
      return acc;
    case Measure::kDts:
      walk(window_sorted, [&](double fa, double fb, double dx) {
        const double h = (na * fa + nb * fb) / n;
        const double w = h * (1.0 - h);
        if (w > 1e-12) {
          const double d = fa - fb;
          acc += (d * d / w) * dx;
        }
      });
      return acc;
  }
  throw std::invalid_argument("PreparedReference::distance: unknown measure");
}

std::string measure_name(Measure m) {
  switch (m) {
    case Measure::kKolmogorovSmirnov: return "KS";
    case Measure::kKuiper: return "Kuiper";
    case Measure::kAndersonDarling: return "AndersonDarling";
    case Measure::kCramerVonMises: return "CramerVonMises";
    case Measure::kWasserstein: return "Wasserstein";
    case Measure::kDts: return "DTS";
  }
  return "unknown";
}

const std::vector<Measure>& all_measures() {
  static const std::vector<Measure> ms{
      Measure::kKolmogorovSmirnov, Measure::kKuiper,
      Measure::kAndersonDarling,   Measure::kCramerVonMises,
      Measure::kWasserstein,       Measure::kDts};
  return ms;
}

double distance(Measure m, const std::vector<double>& a,
                const std::vector<double>& b) {
  require_samples(a, b, "distance");
  return PreparedReference(a).distance(m, sorted_copy(b));
}

double permutation_p_value(Measure m, const std::vector<double>& a,
                           const std::vector<double>& b, mathx::Rng& rng,
                           int iterations) {
  require_samples(a, b, "permutation_p_value");
  if (iterations <= 0) {
    throw std::invalid_argument("permutation_p_value: iterations <= 0");
  }
  const double observed = distance(m, a, b);
  std::vector<double> pooled;
  pooled.reserve(a.size() + b.size());
  pooled.insert(pooled.end(), a.begin(), a.end());
  pooled.insert(pooled.end(), b.begin(), b.end());
  int exceed = 0;
  std::vector<double> pa(a.size()), pb(b.size());
  for (int it = 0; it < iterations; ++it) {
    rng.shuffle(pooled);
    std::copy(pooled.begin(), pooled.begin() + static_cast<long>(a.size()),
              pa.begin());
    std::copy(pooled.begin() + static_cast<long>(a.size()), pooled.end(),
              pb.begin());
    if (distance(m, pa, pb) >= observed) ++exceed;
  }
  // Add-one smoothing keeps the p-value away from exactly 0.
  return (exceed + 1.0) / (iterations + 1.0);
}

}  // namespace sesame::safeml
