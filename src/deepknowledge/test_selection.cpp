#include "sesame/deepknowledge/test_selection.hpp"

#include <stdexcept>

namespace sesame::deepknowledge {

std::vector<RankedInput> select_tests(
    const Analyzer& analyzer, const Mlp& model,
    const std::vector<std::vector<double>>& pool, std::size_t budget) {
  if (pool.empty()) throw std::invalid_argument("select_tests: empty pool");
  if (budget == 0) throw std::invalid_argument("select_tests: zero budget");

  // Each candidate hits one bucket per in-range TK neuron; out-of-range
  // activations contribute nothing (they are anomalies, not coverage).
  std::vector<Observation> candidates;
  candidates.reserve(pool.size());
  for (const auto& input : pool) {
    candidates.push_back(analyzer.observe(model, input));
  }

  const std::size_t buckets = analyzer.config().buckets;
  std::vector<char> covered(analyzer.tk_neurons().size() * buckets, 0);
  std::size_t covered_count = 0;
  const auto uncovered = [&](const Observation& obs, std::size_t t) {
    return obs[t] != kOutOfRange && !covered[t * buckets + obs[t]];
  };
  std::vector<bool> taken(pool.size(), false);
  std::vector<RankedInput> ranking;

  for (std::size_t round = 0; round < budget; ++round) {
    std::size_t best = pool.size();
    std::size_t best_gain = 0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (taken[i]) continue;
      std::size_t gain = 0;
      for (std::size_t t = 0; t < candidates[i].size(); ++t) {
        if (uncovered(candidates[i], t)) ++gain;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == pool.size() || best_gain == 0) break;  // nothing adds coverage
    taken[best] = true;
    for (std::size_t t = 0; t < candidates[best].size(); ++t) {
      if (uncovered(candidates[best], t)) {
        covered[t * buckets + candidates[best][t]] = 1;
        ++covered_count;
      }
    }
    RankedInput r;
    r.pool_index = best;
    r.new_buckets = best_gain;
    r.cumulative_coverage =
        covered.empty() ? 0.0
                        : static_cast<double>(covered_count) /
                              static_cast<double>(covered.size());
    ranking.push_back(r);
  }
  return ranking;
}

double suite_coverage(const Analyzer& analyzer, const Mlp& model,
                      const std::vector<std::vector<double>>& suite) {
  return suite.empty() ? 0.0 : analyzer.assess(model, suite).coverage;
}

}  // namespace sesame::deepknowledge
