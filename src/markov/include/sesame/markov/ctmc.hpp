// Continuous-time Markov chain (CTMC) engine.
//
// SafeDrones (Aslansefat et al., IMBSA 2022) models UAV subsystems —
// propulsion with motor reconfiguration, battery degradation, processor
// soft errors — as small CTMCs whose absorbing states represent subsystem
// failure. This engine provides transient analysis (state distribution at
// mission time t) via uniformization, with a matrix-exponential fallback,
// plus mean-time-to-absorption.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sesame/mathx/matrix.hpp"

namespace sesame::markov {

/// A labelled CTMC defined by its generator matrix Q (q_ij >= 0 for i != j,
/// rows sum to zero). States are indexed 0..n-1 and carry display names.
class Ctmc {
 public:
  /// Builds from a generator matrix. Throws std::invalid_argument if Q is
  /// not square, has negative off-diagonal entries, or rows do not sum to
  /// ~zero (tolerance 1e-9).
  explicit Ctmc(mathx::Matrix generator, std::vector<std::string> state_names = {});

  std::size_t num_states() const noexcept { return q_.rows(); }
  const mathx::Matrix& generator() const noexcept { return q_; }
  const std::string& state_name(std::size_t i) const { return names_.at(i); }

  /// True when state i has no outgoing transitions.
  bool is_absorbing(std::size_t i) const;

  /// Transient distribution pi(t) = pi0 * e^{Qt} via uniformization
  /// (Jensen's method) with adaptive truncation; falls back to expm for
  /// tiny rate matrices. pi0 must be a probability vector over the states.
  std::vector<double> transient(const std::vector<double>& pi0, double t) const;

  /// Probability of being in any of `states` at time t.
  double probability_in(const std::vector<double>& pi0, double t,
                        const std::vector<std::size_t>& states) const;

  /// Mean time to absorption from the given start state; requires at least
  /// one absorbing state reachable from every transient state, otherwise
  /// throws std::runtime_error (singular system).
  double mean_time_to_absorption(std::size_t start) const;

  /// The chain with every rate multiplied by `factor` (> 0): Q' = factor*Q.
  /// This is how temperature-accelerated models derive the adjusted chain
  /// from a base chain built once — entry-wise scaling of an existing
  /// generator instead of a full CtmcBuilder pass per evaluation. For
  /// single-exit rows the result is bit-identical to rebuilding with
  /// pre-scaled rates ((-r)*f == -(r*f) in IEEE arithmetic).
  Ctmc scaled_rates(double factor) const;

 private:
  mathx::Matrix q_;
  std::vector<std::string> names_;
  double max_exit_rate_ = 0.0;
};

/// Incremental builder so reliability models read declaratively:
///   CtmcBuilder b;
///   auto healthy = b.add_state("healthy");
///   auto failed  = b.add_state("failed");
///   b.add_transition(healthy, failed, lambda);
///   Ctmc chain = b.build();
class CtmcBuilder {
 public:
  /// Adds a state and returns its index.
  std::size_t add_state(std::string name);

  /// Adds a transition with the given rate (must be >= 0; zero is dropped).
  CtmcBuilder& add_transition(std::size_t from, std::size_t to, double rate);

  std::size_t num_states() const noexcept { return names_.size(); }

  /// Validates and constructs the chain.
  Ctmc build() const;

 private:
  struct Edge {
    std::size_t from;
    std::size_t to;
    double rate;
  };
  std::vector<std::string> names_;
  std::vector<Edge> edges_;
};

}  // namespace sesame::markov
