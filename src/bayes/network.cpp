#include "sesame/bayes/network.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace sesame::bayes {

namespace {

std::size_t product(const std::vector<std::size_t>& xs) {
  return std::accumulate(xs.begin(), xs.end(), std::size_t{1},
                         std::multiplies<>());
}

/// Maps an assignment (parallel to vars) to a flat row-major index with the
/// last variable fastest.
std::size_t flat_index(const std::vector<std::size_t>& assignment,
                       const std::vector<std::size_t>& cards) {
  std::size_t idx = 0;
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    idx = idx * cards[i] + assignment[i];
  }
  return idx;
}

}  // namespace

Factor::Factor(std::vector<VarId> vars, std::vector<std::size_t> cardinalities,
               std::vector<double> values)
    : vars_(std::move(vars)), cards_(std::move(cardinalities)),
      values_(std::move(values)) {
  if (vars_.size() != cards_.size()) {
    throw std::invalid_argument("Factor: vars/cards size mismatch");
  }
  for (std::size_t c : cards_) {
    if (c < 1) throw std::invalid_argument("Factor: zero cardinality");
  }
  if (values_.size() != product(cards_)) {
    throw std::invalid_argument("Factor: value count mismatch");
  }
  for (double v : values_) {
    if (v < 0.0 || !std::isfinite(v)) {
      throw std::invalid_argument("Factor: negative or non-finite value");
    }
  }
}

Factor Factor::multiply(const Factor& other) const {
  // Union of variables, preserving this factor's order then the new ones.
  std::vector<VarId> uvars = vars_;
  std::vector<std::size_t> ucards = cards_;
  for (std::size_t i = 0; i < other.vars_.size(); ++i) {
    if (std::find(uvars.begin(), uvars.end(), other.vars_[i]) == uvars.end()) {
      uvars.push_back(other.vars_[i]);
      ucards.push_back(other.cards_[i]);
    }
  }
  // Position of each union variable in each operand (or npos).
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::vector<std::size_t> pos_a(uvars.size(), npos), pos_b(uvars.size(), npos);
  for (std::size_t u = 0; u < uvars.size(); ++u) {
    for (std::size_t i = 0; i < vars_.size(); ++i) {
      if (vars_[i] == uvars[u]) pos_a[u] = i;
    }
    for (std::size_t i = 0; i < other.vars_.size(); ++i) {
      if (other.vars_[i] == uvars[u]) pos_b[u] = i;
    }
  }

  const std::size_t total = product(ucards);
  std::vector<double> out(total, 0.0);
  std::vector<std::size_t> assign(uvars.size(), 0);
  std::vector<std::size_t> a_assign(vars_.size(), 0);
  std::vector<std::size_t> b_assign(other.vars_.size(), 0);
  for (std::size_t idx = 0; idx < total; ++idx) {
    for (std::size_t u = 0; u < uvars.size(); ++u) {
      if (pos_a[u] != npos) a_assign[pos_a[u]] = assign[u];
      if (pos_b[u] != npos) b_assign[pos_b[u]] = assign[u];
    }
    out[idx] = values_[flat_index(a_assign, cards_)] *
               other.values_[flat_index(b_assign, other.cards_)];
    // Advance the union assignment (last variable fastest).
    for (std::size_t u = uvars.size(); u-- > 0;) {
      if (++assign[u] < ucards[u]) break;
      assign[u] = 0;
    }
  }
  return Factor(std::move(uvars), std::move(ucards), std::move(out));
}

Factor Factor::marginalize(VarId var) const {
  const auto it = std::find(vars_.begin(), vars_.end(), var);
  if (it == vars_.end()) {
    throw std::out_of_range("Factor::marginalize: variable not in factor");
  }
  const std::size_t k = static_cast<std::size_t>(it - vars_.begin());

  std::vector<VarId> nvars;
  std::vector<std::size_t> ncards;
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    if (i == k) continue;
    nvars.push_back(vars_[i]);
    ncards.push_back(cards_[i]);
  }
  std::vector<double> out(std::max<std::size_t>(1, product(ncards)), 0.0);

  std::vector<std::size_t> assign(vars_.size(), 0);
  std::vector<std::size_t> nassign;
  nassign.reserve(nvars.size());
  for (std::size_t idx = 0; idx < values_.size(); ++idx) {
    nassign.clear();
    for (std::size_t i = 0; i < vars_.size(); ++i) {
      if (i != k) nassign.push_back(assign[i]);
    }
    out[nvars.empty() ? 0 : flat_index(nassign, ncards)] += values_[idx];
    for (std::size_t i = vars_.size(); i-- > 0;) {
      if (++assign[i] < cards_[i]) break;
      assign[i] = 0;
    }
  }
  if (nvars.empty()) {
    return Factor({}, {}, {out[0]});
  }
  return Factor(std::move(nvars), std::move(ncards), std::move(out));
}

Factor Factor::reduce(VarId var, std::size_t state) const {
  const auto it = std::find(vars_.begin(), vars_.end(), var);
  if (it == vars_.end()) {
    throw std::out_of_range("Factor::reduce: variable not in factor");
  }
  const std::size_t k = static_cast<std::size_t>(it - vars_.begin());
  if (state >= cards_[k]) throw std::out_of_range("Factor::reduce: state");

  std::vector<VarId> nvars;
  std::vector<std::size_t> ncards;
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    if (i == k) continue;
    nvars.push_back(vars_[i]);
    ncards.push_back(cards_[i]);
  }
  std::vector<double> out;
  out.reserve(std::max<std::size_t>(1, product(ncards)));

  std::vector<std::size_t> assign(vars_.size(), 0);
  for (std::size_t idx = 0; idx < values_.size(); ++idx) {
    if (assign[k] == state) out.push_back(values_[idx]);
    for (std::size_t i = vars_.size(); i-- > 0;) {
      if (++assign[i] < cards_[i]) break;
      assign[i] = 0;
    }
  }
  return Factor(std::move(nvars), std::move(ncards), std::move(out));
}

VarId Network::add_variable(std::string name, std::vector<std::string> states) {
  if (states.size() < 2) {
    throw std::invalid_argument("add_variable: need >= 2 states");
  }
  if (find(name).has_value()) {
    throw std::invalid_argument("add_variable: duplicate name " + name);
  }
  variables_.push_back({std::move(name), std::move(states)});
  cpts_.emplace_back(std::nullopt);
  parents_.emplace_back();
  return variables_.size() - 1;
}

std::optional<VarId> Network::find(const std::string& name) const {
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    if (variables_[i].name == name) return i;
  }
  return std::nullopt;
}

void Network::set_prior(VarId var, std::vector<double> probabilities) {
  set_cpt(var, {}, std::move(probabilities));
}

void Network::set_cpt(VarId child, std::vector<VarId> parents,
                      std::vector<double> values) {
  check_var(child, "set_cpt");
  std::vector<VarId> fvars;
  std::vector<std::size_t> fcards;
  std::size_t rows = 1;
  for (VarId p : parents) {
    check_var(p, "set_cpt(parent)");
    if (p == child) throw std::invalid_argument("set_cpt: child as own parent");
    fvars.push_back(p);
    fcards.push_back(variables_[p].states.size());
    rows *= variables_[p].states.size();
  }
  const std::size_t cols = variables_[child].states.size();
  fvars.push_back(child);
  fcards.push_back(cols);
  if (values.size() != rows * cols) {
    throw std::invalid_argument("set_cpt: expected " + std::to_string(rows * cols) +
                                " values, got " + std::to_string(values.size()));
  }
  for (std::size_t r = 0; r < rows; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < cols; ++c) s += values[r * cols + c];
    if (std::abs(s - 1.0) > 1e-9) {
      throw std::invalid_argument("set_cpt: row " + std::to_string(r) +
                                  " does not sum to 1");
    }
  }
  cpts_[child] = Factor(std::move(fvars), std::move(fcards), std::move(values));
  parents_[child] = std::move(parents);
}

std::vector<double> Network::query(VarId target, const Evidence& evidence) const {
  check_var(target, "query");
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    if (!cpts_[i].has_value()) {
      throw std::logic_error("query: variable '" + variables_[i].name +
                             "' has no CPT/prior");
    }
  }
  for (const auto& [var, state] : evidence) {
    check_var(var, "query(evidence)");
    if (state >= variables_[var].states.size()) {
      throw std::out_of_range("query: evidence state out of range");
    }
  }

  // Querying an observed variable yields a point mass on the observed state.
  if (const auto it = evidence.find(target); it != evidence.end()) {
    std::vector<double> point(variables_[target].states.size(), 0.0);
    point[it->second] = 1.0;
    return point;
  }

  // Collect CPT factors with evidence applied.
  std::vector<Factor> factors;
  factors.reserve(variables_.size());
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    Factor f = *cpts_[i];
    for (const auto& [var, state] : evidence) {
      if (std::find(f.vars().begin(), f.vars().end(), var) != f.vars().end()) {
        f = f.reduce(var, state);
      }
    }
    factors.push_back(std::move(f));
  }

  // Eliminate all hidden variables in ascending-id order.
  for (VarId v = 0; v < variables_.size(); ++v) {
    if (v == target || evidence.count(v)) continue;
    // Multiply all factors mentioning v, then sum v out.
    Factor combined({}, {}, {1.0});
    bool any = false;
    std::vector<Factor> remaining;
    remaining.reserve(factors.size());
    for (auto& f : factors) {
      if (std::find(f.vars().begin(), f.vars().end(), v) != f.vars().end()) {
        combined = any ? combined.multiply(f) : std::move(f);
        any = true;
      } else {
        remaining.push_back(std::move(f));
      }
    }
    if (any) remaining.push_back(combined.marginalize(v));
    factors = std::move(remaining);
  }

  // Multiply what is left into the posterior over target.
  Factor result({}, {}, {1.0});
  bool any = false;
  for (auto& f : factors) {
    result = any ? result.multiply(f) : std::move(f);
    any = true;
  }
  const double total =
      std::accumulate(result.values().begin(), result.values().end(), 0.0);
  if (total <= 0.0) {
    throw std::runtime_error("query: evidence has zero probability");
  }
  // The surviving factor is over {target} only.
  if (result.vars().size() != 1 || result.vars()[0] != target) {
    throw std::logic_error("query: internal elimination error");
  }
  std::vector<double> posterior = result.values();
  for (double& p : posterior) p /= total;
  return posterior;
}

void Network::check_var(VarId var, const char* who) const {
  if (var >= variables_.size()) {
    throw std::out_of_range(std::string(who) + ": variable id out of range");
  }
}

}  // namespace sesame::bayes
