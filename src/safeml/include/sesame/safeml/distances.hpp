// Two-sample statistical distance measures over empirical CDFs.
//
// SafeML (Aslansefat et al., IMBSA 2020) estimates the dissimilarity
// between the data distribution seen at runtime and the distribution the
// ML model was trained on. All measures here are the ECDF-based statistics
// of that paper: Kolmogorov-Smirnov, Kuiper, Anderson-Darling,
// Cramer-von Mises, Wasserstein-1, and the DTS (combined) measure.
// Larger values mean the runtime data looks less like the training data.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sesame/mathx/rng.hpp"

namespace sesame::safeml {

/// Identifier for a distance measure (used by config/reporting and the
/// ablation benchmark).
enum class Measure {
  kKolmogorovSmirnov,
  kKuiper,
  kAndersonDarling,
  kCramerVonMises,
  kWasserstein,
  kDts,  ///< Wasserstein weighted by the AD variance term
};

/// Human-readable measure name ("KS", "Kuiper", ...).
std::string measure_name(Measure m);

/// All measures, for sweep code.
const std::vector<Measure>& all_measures();

/// Evaluates any measure by enum.
double distance(Measure m, const std::vector<double>& a,
                const std::vector<double>& b);

/// A reference sample prepared once for repeated comparison against
/// runtime windows: its distinct ascending values, the reference ECDF
/// after each value and the gap to the next value. Runtime monitors keep
/// one per feature and share it; distance() builds one per call, so
/// every measure goes through the same ECDF walk.
class PreparedReference {
 public:
  /// Throws std::invalid_argument on an empty sample or a NaN in it.
  explicit PreparedReference(std::vector<double> sample);

  /// Distance from this reference (the first sample of distance()) to a
  /// non-empty, ascending-sorted window. Bit-identical to
  /// distance(m, reference_sample, window).
  double distance(Measure m, const std::vector<double>& window_sorted) const;

 private:
  std::size_t n_ = 0;           ///< sample size, counting repeats
  std::vector<double> values_;  ///< distinct values, ascending
  std::vector<double> cdf_;     ///< count(sample <= values_[k]) / n_
  std::vector<double> gap_;     ///< values_[k + 1] - values_[k]; 0 at the end

  template <typename Step>
  void walk(const std::vector<double>& window_sorted, Step&& step) const;
};

/// Permutation-test p-value for the hypothesis that `a` and `b` come from
/// the same distribution, under the given measure. Small p-values indicate
/// distributional shift. `iterations` permutations are used.
double permutation_p_value(Measure m, const std::vector<double>& a,
                           const std::vector<double>& b, mathx::Rng& rng,
                           int iterations = 200);

}  // namespace sesame::safeml
