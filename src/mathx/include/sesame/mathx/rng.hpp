// Deterministic random-number generation for simulation and bootstrap
// resampling. A single seeded engine type is used everywhere so that every
// experiment in the repository is exactly reproducible.
#pragma once

#include <cstdint>
#include <vector>

namespace sesame::mathx {

/// xoshiro256++ engine. Fast, high-quality, and — unlike std::mt19937 —
/// guaranteed to produce identical streams on every platform, which keeps
/// the benchmark outputs reproducible.
class Rng {
 public:
  /// Seeds via splitmix64 expansion of `seed`.
  explicit Rng(std::uint64_t seed = 0x5E5A4E5EED5ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal deviate (Box-Muller with caching).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Samples an index according to non-negative weights (need not sum to 1).
  std::size_t categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_index(i));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace sesame::mathx
