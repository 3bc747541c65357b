// Discrete Bayesian networks with exact inference by variable elimination.
//
// SINADRA (Reich & Trapp, EDCC 2020) performs situation-aware dynamic risk
// assessment by propagating runtime evidence (detector uncertainty, weather,
// altitude band, terrain) through a Bayesian network whose query node is the
// mission-level risk. This module provides the generic substrate: named
// variables with finite domains, conditional probability tables, evidence,
// and posterior queries.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sesame::bayes {

/// Index of a variable within a network.
using VarId = std::size_t;

/// A discrete random variable: a name plus named states.
struct Variable {
  std::string name;
  std::vector<std::string> states;
};

/// A factor over a set of variables: the core datum of variable
/// elimination. Values are stored in row-major order over the cartesian
/// product of the variables' domains, with the *last* variable in `vars`
/// varying fastest.
class Factor {
 public:
  Factor() = default;
  Factor(std::vector<VarId> vars, std::vector<std::size_t> cardinalities,
         std::vector<double> values);

  const std::vector<VarId>& vars() const noexcept { return vars_; }
  const std::vector<double>& values() const noexcept { return values_; }

  /// Pointwise product; variables are unioned.
  Factor multiply(const Factor& other) const;

  /// Sums out one variable.
  Factor marginalize(VarId var) const;

  /// Restricts one variable to a fixed state (evidence application).
  Factor reduce(VarId var, std::size_t state) const;

 private:
  std::vector<VarId> vars_;
  std::vector<std::size_t> cards_;  // parallel to vars_
  std::vector<double> values_;
};

/// A Bayesian network under construction and query.
///
/// Usage:
///   Network net;
///   auto rain  = net.add_variable("rain", {"no", "yes"});
///   auto grass = net.add_variable("grass_wet", {"no", "yes"});
///   net.set_prior(rain, {0.8, 0.2});
///   net.set_cpt(grass, {rain}, {0.9, 0.1,   // rain=no
///                               0.2, 0.8}); // rain=yes
///   auto posterior = net.query(rain, {{grass, "yes"}});
class Network {
 public:
  /// Adds a variable; at least two states required.
  VarId add_variable(std::string name, std::vector<std::string> states);

  std::size_t num_variables() const noexcept { return variables_.size(); }
  const Variable& variable(VarId id) const { return variables_.at(id); }

  /// Finds a variable by name; nullopt when absent.
  std::optional<VarId> find(const std::string& name) const;

  /// Root prior: probabilities over the variable's states (must sum to 1).
  void set_prior(VarId var, std::vector<double> probabilities);

  /// Conditional probability table. `values` is laid out with parent
  /// configurations as rows (first parent slowest) and the child's states
  /// as columns; each row must sum to 1.
  void set_cpt(VarId child, std::vector<VarId> parents,
               std::vector<double> values);

  /// Evidence: observed states per variable.
  using Evidence = std::map<VarId, std::size_t>;

  /// Posterior distribution over `target` given the evidence, via variable
  /// elimination (min-degree-ish ordering: ascending id excluding target and
  /// evidence). Throws std::logic_error if any variable lacks a CPT/prior,
  /// std::runtime_error when the evidence has zero probability.
  std::vector<double> query(VarId target, const Evidence& evidence = {}) const;

 private:
  std::vector<Variable> variables_;
  // Per-variable CPT as a factor over {parents..., child}.
  std::vector<std::optional<Factor>> cpts_;
  std::vector<std::vector<VarId>> parents_;

  void check_var(VarId var, const char* who) const;
};

}  // namespace sesame::bayes
