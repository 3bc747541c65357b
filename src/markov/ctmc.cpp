#include "sesame/markov/ctmc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sesame::markov {

namespace {

void validate_distribution(const std::vector<double>& pi, std::size_t n,
                           const char* who) {
  if (pi.size() != n) {
    throw std::invalid_argument(std::string(who) + ": distribution size mismatch");
  }
  double sum = 0.0;
  for (double p : pi) {
    if (p < -1e-12) {
      throw std::invalid_argument(std::string(who) + ": negative probability");
    }
    sum += p;
  }
  if (std::abs(sum - 1.0) > 1e-6) {
    throw std::invalid_argument(std::string(who) + ": distribution must sum to 1");
  }
}

std::vector<std::string> default_names(std::size_t n, const char* prefix) {
  std::vector<std::string> names;
  names.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    names.push_back(std::string(prefix) + std::to_string(i));
  }
  return names;
}

}  // namespace

Ctmc::Ctmc(mathx::Matrix generator, std::vector<std::string> state_names)
    : q_(std::move(generator)), names_(std::move(state_names)) {
  if (!q_.is_square()) throw std::invalid_argument("Ctmc: generator not square");
  const std::size_t n = q_.rows();
  if (names_.empty()) names_ = default_names(n, "s");
  if (names_.size() != n) {
    throw std::invalid_argument("Ctmc: state-name count mismatch");
  }
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && q_(i, j) < 0.0) {
        throw std::invalid_argument("Ctmc: negative off-diagonal rate");
      }
      row += q_(i, j);
    }
    if (std::abs(row) > 1e-9) {
      throw std::invalid_argument("Ctmc: generator row does not sum to zero");
    }
    max_exit_rate_ = std::max(max_exit_rate_, -q_(i, i));
  }
}

bool Ctmc::is_absorbing(std::size_t i) const {
  for (std::size_t j = 0; j < q_.cols(); ++j) {
    if (i != j && q_(i, j) > 0.0) return false;
  }
  return true;
}

std::vector<double> Ctmc::transient(const std::vector<double>& pi0,
                                    double t) const {
  validate_distribution(pi0, num_states(), "Ctmc::transient");
  if (t < 0.0) throw std::invalid_argument("Ctmc::transient: negative time");
  if (t == 0.0 || max_exit_rate_ == 0.0) return pi0;

  // Uniformization: P = I + Q/Lambda; pi(t) = sum_k Pois(k; Lambda t) pi0 P^k.
  const double lambda = max_exit_rate_ * 1.02 + 1e-12;  // slack keeps P >= 0
  const double lt = lambda * t;

  // For very large lt the Poisson series needs many terms; cap and fall back
  // to repeated squaring of the exponential for robustness.
  if (lt > 5000.0) {
    mathx::Matrix e = mathx::expm(q_ * t);
    return e.apply_transposed(pi0);
  }

  const std::size_t n = num_states();
  mathx::Matrix p = q_ * (1.0 / lambda);
  for (std::size_t i = 0; i < n; ++i) p(i, i) += 1.0;

  // Steady-Fox-Glynn-style truncation: iterate until cumulative Poisson
  // weight reaches 1 - eps.
  constexpr double eps = 1e-12;
  std::vector<double> v = pi0;        // pi0 * P^k, updated in place
  std::vector<double> acc(n, 0.0);
  // Poisson weights computed in log space to avoid overflow.
  double log_w = -lt;                 // log Pois(0)
  double cumulative = 0.0;
  for (std::size_t k = 0;; ++k) {
    const double w = std::exp(log_w);
    if (std::isfinite(w) && w > 0.0) {
      for (std::size_t i = 0; i < n; ++i) acc[i] += w * v[i];
      cumulative += w;
    }
    if (cumulative >= 1.0 - eps) break;
    if (k > 100000) break;  // defensive cap
    v = p.apply_transposed(v);
    log_w += std::log(lt) - std::log(static_cast<double>(k + 1));
  }
  // Renormalize the truncation remainder.
  if (cumulative > 0.0) {
    for (double& x : acc) x /= cumulative;
  }
  return acc;
}

double Ctmc::probability_in(const std::vector<double>& pi0, double t,
                            const std::vector<std::size_t>& states) const {
  const std::vector<double> pi = transient(pi0, t);
  double p = 0.0;
  for (std::size_t s : states) p += pi.at(s);
  return std::min(1.0, std::max(0.0, p));
}

double Ctmc::mean_time_to_absorption(std::size_t start) const {
  const std::size_t n = num_states();
  if (start >= n) throw std::out_of_range("mean_time_to_absorption: start");
  if (is_absorbing(start)) return 0.0;

  // Restrict Q to transient states T and solve Q_T * m = -1.
  std::vector<std::size_t> transient_states;
  std::vector<long> index_of(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_absorbing(i)) {
      index_of[i] = static_cast<long>(transient_states.size());
      transient_states.push_back(i);
    }
  }
  const std::size_t m = transient_states.size();
  mathx::Matrix qt(m, m);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < m; ++b) {
      qt(a, b) = q_(transient_states[a], transient_states[b]);
    }
  }
  std::vector<double> rhs(m, -1.0);
  std::vector<double> sol = mathx::solve_linear(std::move(qt), std::move(rhs));
  return sol[static_cast<std::size_t>(index_of[start])];
}

Ctmc Ctmc::scaled_rates(double factor) const {
  if (!(factor > 0.0)) {
    throw std::invalid_argument("Ctmc::scaled_rates: factor must be > 0");
  }
  return Ctmc(q_ * factor, names_);
}

std::size_t CtmcBuilder::add_state(std::string name) {
  names_.push_back(std::move(name));
  return names_.size() - 1;
}

CtmcBuilder& CtmcBuilder::add_transition(std::size_t from, std::size_t to,
                                         double rate) {
  if (from >= names_.size() || to >= names_.size()) {
    throw std::out_of_range("CtmcBuilder::add_transition: state index");
  }
  if (from == to) {
    throw std::invalid_argument("CtmcBuilder::add_transition: self loop");
  }
  if (rate < 0.0) {
    throw std::invalid_argument("CtmcBuilder::add_transition: negative rate");
  }
  if (rate > 0.0) edges_.push_back({from, to, rate});
  return *this;
}

Ctmc CtmcBuilder::build() const {
  const std::size_t n = names_.size();
  mathx::Matrix q(n, n);
  for (const auto& e : edges_) {
    q(e.from, e.to) += e.rate;
    q(e.from, e.from) -= e.rate;
  }
  return Ctmc(std::move(q), names_);
}

}  // namespace sesame::markov
