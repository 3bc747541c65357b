// Tests for DeepKnowledge: MLP forward/backward correctness, training
// convergence on a separable problem, TK-neuron selection, and the
// coverage/uncertainty behaviour under domain shift.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "sesame/deepknowledge/analysis.hpp"
#include "sesame/deepknowledge/mlp.hpp"
#include "sesame/mathx/rng.hpp"

namespace dk = sesame::deepknowledge;
namespace mx = sesame::mathx;

namespace {

/// Two-moon-ish separable dataset: label = 1 when x0 + x1 > 0.
void make_dataset(mx::Rng& rng, std::size_t n, double shift,
                  std::vector<std::vector<double>>& inputs,
                  std::vector<std::vector<double>>& targets) {
  inputs.clear();
  targets.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.normal(shift, 1.0);
    const double x1 = rng.normal(0.0, 1.0);
    inputs.push_back({x0, x1});
    targets.push_back({x0 + x1 > 0.0 ? 1.0 : 0.0});
  }
}

/// Output of one forward pass, discarding the hidden activations.
std::vector<double> forward(const dk::Mlp& net, const std::vector<double>& x) {
  dk::ActivationTrace trace;
  return net.forward_traced(x, trace);
}

}  // namespace

TEST(Mlp, ConstructionValidation) {
  mx::Rng rng(1);
  EXPECT_THROW(dk::Mlp({4}, rng), std::invalid_argument);
  EXPECT_THROW(dk::Mlp({4, 0, 1}, rng), std::invalid_argument);
  dk::Mlp net({3, 5, 2}, rng);
  EXPECT_EQ(net.input_size(), 3u);
  EXPECT_EQ(net.output_size(), 2u);
  EXPECT_EQ(net.num_hidden_layers(), 1u);
  EXPECT_EQ(net.hidden_size(0), 5u);
  EXPECT_EQ(net.num_hidden_neurons(), 5u);
}

TEST(Mlp, ForwardOutputsInUnitInterval) {
  mx::Rng rng(2);
  dk::Mlp net({2, 8, 1}, rng);
  for (int i = 0; i < 20; ++i) {
    const auto out = forward(net, {rng.normal(), rng.normal()});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_GT(out[0], 0.0);
    EXPECT_LT(out[0], 1.0);
  }
}

TEST(Mlp, ForwardRejectsBadInput) {
  mx::Rng rng(3);
  dk::Mlp net({2, 4, 1}, rng);
  EXPECT_THROW(forward(net, {1.0}), std::invalid_argument);
}

TEST(Mlp, TracedForwardCapturesHiddenLayers) {
  mx::Rng rng(4);
  dk::Mlp net({2, 6, 4, 1}, rng);
  dk::ActivationTrace trace;
  net.forward_traced({0.5, -0.5}, trace);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].size(), 6u);
  EXPECT_EQ(trace[1].size(), 4u);
  for (const auto& layer : trace) {
    for (double a : layer) EXPECT_GE(a, 0.0);  // ReLU output
  }
}

TEST(Mlp, DeterministicGivenSeed) {
  mx::Rng r1(7), r2(7);
  dk::Mlp a({2, 4, 1}, r1), b({2, 4, 1}, r2);
  const auto oa = forward(a, {0.3, 0.7});
  const auto ob = forward(b, {0.3, 0.7});
  EXPECT_DOUBLE_EQ(oa[0], ob[0]);
}

TEST(Mlp, TrainingReducesLossAndLearnsSeparableTask) {
  mx::Rng rng(11);
  std::vector<std::vector<double>> inputs, targets;
  make_dataset(rng, 400, 0.0, inputs, targets);
  dk::Mlp net({2, 8, 1}, rng);
  const double initial_loss = net.train_epoch(inputs, targets, 0.05, rng);
  double final_loss = initial_loss;
  for (int e = 0; e < 30; ++e) {
    final_loss = net.train_epoch(inputs, targets, 0.05, rng);
  }
  EXPECT_LT(final_loss, initial_loss * 0.5);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if ((forward(net, inputs[i])[0] >= 0.5) == (targets[i][0] >= 0.5)) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / inputs.size(), 0.95);
}

TEST(Mlp, TrainEpochValidatesDataset) {
  mx::Rng rng(13);
  dk::Mlp net({2, 4, 1}, rng);
  std::vector<std::vector<double>> inputs{{1.0, 2.0}};
  EXPECT_THROW(net.train_epoch(inputs, {}, 0.1, rng), std::invalid_argument);
  EXPECT_THROW(net.train_epoch(inputs, {{1.0, 0.0}}, 0.1, rng),
               std::invalid_argument);
}

TEST(Analyzer, ConstructionValidation) {
  mx::Rng rng(17);
  dk::Mlp net({2, 4, 1}, rng);
  std::vector<std::vector<double>> data{{0.0, 0.0}};
  EXPECT_THROW(dk::Analyzer(net, {}, data), std::invalid_argument);
  EXPECT_THROW(dk::Analyzer(net, data, {}), std::invalid_argument);
  dk::AnalysisConfig bad;
  bad.top_k = 0;
  EXPECT_THROW(dk::Analyzer(net, data, data, bad), std::invalid_argument);
  dk::Mlp shallow({2, 1}, rng);
  EXPECT_THROW(dk::Analyzer(shallow, data, data), std::invalid_argument);
}

TEST(Analyzer, ProfilesCoverAllHiddenNeurons) {
  mx::Rng rng(19);
  dk::Mlp net({2, 6, 4, 1}, rng);
  std::vector<std::vector<double>> train, targets;
  make_dataset(rng, 100, 0.0, train, targets);
  std::vector<std::vector<double>> shifted, _t;
  make_dataset(rng, 100, 2.0, shifted, _t);
  dk::Analyzer an(net, train, shifted);
  EXPECT_EQ(an.profiles().size(), net.num_hidden_neurons());
  // Profiles sorted descending by transfer score.
  for (std::size_t i = 1; i < an.profiles().size(); ++i) {
    EXPECT_GE(an.profiles()[i - 1].transfer_score,
              an.profiles()[i].transfer_score);
  }
}

TEST(Analyzer, TkSelectionRespectsTopK) {
  mx::Rng rng(23);
  dk::Mlp net({2, 10, 1}, rng);
  std::vector<std::vector<double>> train, targets, shifted, _t;
  make_dataset(rng, 100, 0.0, train, targets);
  make_dataset(rng, 100, 1.0, shifted, _t);
  dk::AnalysisConfig cfg;
  cfg.top_k = 3;
  dk::Analyzer an(net, train, shifted, cfg);
  EXPECT_EQ(an.tk_neurons().size(), 3u);
  // TK neurons have the highest scores among all profiles.
  EXPECT_DOUBLE_EQ(an.tk_neurons()[0].transfer_score,
                   an.profiles()[0].transfer_score);
}

TEST(Analyzer, NoShiftGivesLowGeneralisationShift) {
  mx::Rng rng(29);
  dk::Mlp net({2, 8, 1}, rng);
  std::vector<std::vector<double>> train, targets, same, _t;
  make_dataset(rng, 400, 0.0, train, targets);
  make_dataset(rng, 400, 0.0, same, _t);
  std::vector<std::vector<double>> far, _t2;
  make_dataset(rng, 400, 3.0, far, _t2);
  dk::Analyzer an_same(net, train, same);
  dk::Analyzer an_far(net, train, far);
  EXPECT_LT(an_same.generalisation_shift(), an_far.generalisation_shift());
}

TEST(Analyzer, InDistributionWindowLowUncertainty) {
  mx::Rng rng(31);
  std::vector<std::vector<double>> train, targets;
  make_dataset(rng, 500, 0.0, train, targets);
  dk::Mlp net({2, 8, 1}, rng);
  for (int e = 0; e < 10; ++e) net.train_epoch(train, targets, 0.05, rng);
  std::vector<std::vector<double>> shifted, _t;
  make_dataset(rng, 500, 2.0, shifted, _t);
  dk::Analyzer an(net, train, shifted);

  std::vector<std::vector<double>> window, _t2;
  make_dataset(rng, 64, 0.0, window, _t2);
  const auto in_dist = an.assess(net, window);

  std::vector<std::vector<double>> far_window, _t3;
  make_dataset(rng, 64, 6.0, far_window, _t3);
  const auto out_dist = an.assess(net, far_window);

  EXPECT_LT(in_dist.uncertainty, out_dist.uncertainty);
  EXPECT_GT(in_dist.coverage, 0.0);
  EXPECT_GT(out_dist.out_of_range, in_dist.out_of_range);
}

TEST(Analyzer, AssessRejectsEmptyWindow) {
  mx::Rng rng(37);
  dk::Mlp net({2, 4, 1}, rng);
  std::vector<std::vector<double>> train, targets;
  make_dataset(rng, 50, 0.0, train, targets);
  dk::Analyzer an(net, train, train);
  EXPECT_THROW(an.assess(net, {}), std::invalid_argument);
}

TEST(Analyzer, ReportFieldsWithinRanges) {
  mx::Rng rng(41);
  std::vector<std::vector<double>> train, targets;
  make_dataset(rng, 200, 0.0, train, targets);
  dk::Mlp net({2, 6, 1}, rng);
  dk::Analyzer an(net, train, train);
  for (double shift : {0.0, 1.0, 4.0, 10.0}) {
    std::vector<std::vector<double>> window, _t;
    make_dataset(rng, 32, shift, window, _t);
    const auto r = an.assess(net, window);
    EXPECT_GE(r.coverage, 0.0);
    EXPECT_LE(r.coverage, 1.0);
    EXPECT_GE(r.out_of_range, 0.0);
    EXPECT_LE(r.out_of_range, 1.0);
    EXPECT_GE(r.uncertainty, 0.0);
    EXPECT_LE(r.uncertainty, 1.0);
    EXPECT_EQ(r.window_size, 32u);
  }
}

// ---------------------------------------------------------------------------
// Cached observations: a ring of per-input observations must report
// exactly what a fresh assessment of the raw window does.

namespace {

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// Coverage counted straight from forward passes with a (tk, bucket) set,
/// independent of Analyzer::observe.
dk::CoverageReport oracle_assess(const dk::Analyzer& an, const dk::Mlp& net,
                                 const std::vector<std::vector<double>>& window) {
  std::set<std::pair<std::size_t, std::size_t>> hits;
  std::size_t oor = 0;
  const std::size_t buckets = an.config().buckets;
  for (const auto& input : window) {
    dk::ActivationTrace trace;
    net.forward_traced(input, trace);
    for (std::size_t t = 0; t < an.tk_neurons().size(); ++t) {
      const auto& p = an.tk_neurons()[t];
      const double a = trace[p.id.layer][p.id.index];
      if (a < p.train_min - 1e-12 || a > p.train_max + 1e-12) {
        ++oor;
        continue;
      }
      const double span = p.train_max - p.train_min;
      std::size_t bucket = 0;
      if (span > 1e-12) {
        bucket = std::min(
            static_cast<std::size_t>((a - p.train_min) / span *
                                     static_cast<double>(buckets)),
            buckets - 1);
      }
      hits.insert({t, bucket});
    }
  }
  dk::CoverageReport r;
  r.coverage = static_cast<double>(hits.size()) /
               static_cast<double>(an.tk_neurons().size() * buckets);
  r.out_of_range = static_cast<double>(oor) /
                   static_cast<double>(window.size() * an.tk_neurons().size());
  const double attainable =
      std::min<double>(static_cast<double>(window.size()),
                       static_cast<double>(buckets)) /
      static_cast<double>(buckets);
  const double effective_cov = std::min(1.0, r.coverage / attainable);
  r.uncertainty = std::clamp(1.0 - effective_cov * (1.0 - r.out_of_range),
                             0.0, 1.0);
  r.window_size = window.size();
  return r;
}

void expect_same_report(const dk::CoverageReport& a, const dk::CoverageReport& b) {
  EXPECT_EQ(bits(a.coverage), bits(b.coverage));
  EXPECT_EQ(bits(a.out_of_range), bits(b.out_of_range));
  EXPECT_EQ(bits(a.uncertainty), bits(b.uncertainty));
  EXPECT_EQ(a.window_size, b.window_size);
}

}  // namespace

TEST(Analyzer, ObservationRingMatchesFreshAssessment) {
  mx::Rng rng(4243);
  std::vector<std::vector<double>> train, targets, shifted, _t;
  make_dataset(rng, 300, 0.0, train, targets);
  make_dataset(rng, 300, 2.0, shifted, _t);
  dk::Mlp net({2, 8, 4, 1}, rng);
  for (int e = 0; e < 3; ++e) net.train_epoch(train, targets, 0.05, rng);
  dk::AnalysisConfig cfg;
  cfg.top_k = 6;
  const dk::Analyzer an(net, train, shifted, cfg);

  for (std::size_t window : {2u, 5u, 16u, 33u}) {
    std::vector<dk::Observation> ring;
    std::size_t next = 0;
    std::deque<std::vector<double>> raw;
    for (int p = 0; p < 80; ++p) {
      // Coarse inputs repeat often; a drift half-way moves them out of range.
      const double shift = p < 40 ? 0.0 : 4.0;
      const std::vector<double> input{
          std::round(rng.normal(shift, 1.0) * 4.0) / 4.0,
          std::round(rng.normal(0.0, 1.0) * 4.0) / 4.0};
      if (ring.size() < window) {
        ring.push_back(an.observe(net, input));
      } else {
        ring[next] = an.observe(net, input);
        next = (next + 1) % window;
      }
      raw.push_back(input);
      if (raw.size() > window) raw.pop_front();
      if (raw.size() < window) continue;
      const std::vector<std::vector<double>> entries(raw.begin(), raw.end());
      const auto fresh = an.assess(net, entries);
      expect_same_report(an.assess(ring), fresh);
      expect_same_report(oracle_assess(an, net, entries), fresh);
    }
  }
}

TEST(Analyzer, ObserveRejectsNonFiniteInput) {
  mx::Rng rng(4244);
  dk::Mlp net({2, 4, 1}, rng);
  std::vector<std::vector<double>> train, targets;
  make_dataset(rng, 50, 0.0, train, targets);
  const dk::Analyzer an(net, train, train);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(an.observe(net, {nan, 0.0}), std::invalid_argument);
  EXPECT_THROW(an.observe(net, {0.0, inf}), std::invalid_argument);
  EXPECT_THROW(an.assess(net, {{1.0, 0.0}, {-inf, 0.0}}), std::invalid_argument);
  EXPECT_EQ(an.observe(net, {0.5, -0.5}).size(), an.tk_neurons().size());
}
