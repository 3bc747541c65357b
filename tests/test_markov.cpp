// Tests for the CTMC/DTMC engines: transient analysis correctness against
// closed-form results, absorbing-state behaviour, builder validation.
#include <cmath>

#include <gtest/gtest.h>

#include "sesame/markov/ctmc.hpp"
#include "sesame/mathx/rng.hpp"

namespace mk = sesame::markov;
namespace mx = sesame::mathx;

namespace {

/// Two-state birth-death: healthy -> failed at rate lambda.
mk::Ctmc simple_failure_chain(double lambda) {
  mk::CtmcBuilder b;
  const auto healthy = b.add_state("healthy");
  const auto failed = b.add_state("failed");
  b.add_transition(healthy, failed, lambda);
  return b.build();
}

}  // namespace

TEST(Ctmc, RejectsBadGenerators) {
  EXPECT_THROW(mk::Ctmc(mx::Matrix(2, 3)), std::invalid_argument);
  // Row does not sum to zero.
  EXPECT_THROW(mk::Ctmc(mx::Matrix{{-1.0, 0.5}, {0.0, 0.0}}), std::invalid_argument);
  // Negative off-diagonal.
  EXPECT_THROW(mk::Ctmc(mx::Matrix{{1.0, -1.0}, {0.0, 0.0}}), std::invalid_argument);
}

TEST(Ctmc, TwoStateMatchesClosedForm) {
  const double lambda = 0.01;
  auto chain = simple_failure_chain(lambda);
  for (double t : {0.0, 10.0, 100.0, 500.0}) {
    const auto pi = chain.transient({1.0, 0.0}, t);
    EXPECT_NEAR(pi[1], 1.0 - std::exp(-lambda * t), 1e-9) << "t=" << t;
    EXPECT_NEAR(pi[0] + pi[1], 1.0, 1e-9);
  }
}

TEST(Ctmc, RepairableMachineMatchesClosedForm) {
  // healthy <-> failed with rates lambda, mu. Availability
  // A(t) = mu/(l+m) + l/(l+m) e^{-(l+m)t} starting healthy.
  const double lambda = 0.02, mu = 0.05;
  mk::CtmcBuilder b;
  const auto up = b.add_state("up");
  const auto down = b.add_state("down");
  b.add_transition(up, down, lambda).add_transition(down, up, mu);
  auto chain = b.build();
  for (double t : {1.0, 20.0, 200.0}) {
    const auto pi = chain.transient({1.0, 0.0}, t);
    const double expected =
        mu / (lambda + mu) + lambda / (lambda + mu) * std::exp(-(lambda + mu) * t);
    EXPECT_NEAR(pi[0], expected, 1e-9) << "t=" << t;
  }
}

TEST(Ctmc, TransientValidatesInput) {
  auto chain = simple_failure_chain(0.1);
  EXPECT_THROW(chain.transient({0.5, 0.2}, 1.0), std::invalid_argument);
  EXPECT_THROW(chain.transient({1.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(chain.transient({1.0, 0.0}, -1.0), std::invalid_argument);
}

TEST(Ctmc, AbsorbingStateDetection) {
  auto chain = simple_failure_chain(0.1);
  EXPECT_FALSE(chain.is_absorbing(0));
  EXPECT_TRUE(chain.is_absorbing(1));
}

TEST(Ctmc, ProbabilityInSubset) {
  auto chain = simple_failure_chain(0.01);
  const double p = chain.probability_in({1.0, 0.0}, 100.0, {1});
  EXPECT_NEAR(p, 1.0 - std::exp(-1.0), 1e-9);
}

TEST(Ctmc, MeanTimeToAbsorptionSingleStage) {
  auto chain = simple_failure_chain(0.25);
  EXPECT_NEAR(chain.mean_time_to_absorption(0), 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(chain.mean_time_to_absorption(1), 0.0);
}

TEST(Ctmc, MeanTimeToAbsorptionErlangStages) {
  // Three sequential stages each at rate 2 -> MTTA = 1.5.
  mk::CtmcBuilder b;
  const auto s0 = b.add_state("s0");
  const auto s1 = b.add_state("s1");
  const auto s2 = b.add_state("s2");
  const auto dead = b.add_state("dead");
  b.add_transition(s0, s1, 2.0).add_transition(s1, s2, 2.0).add_transition(s2, dead,
                                                                           2.0);
  EXPECT_NEAR(b.build().mean_time_to_absorption(s0), 1.5, 1e-9);
}

TEST(Ctmc, LongHorizonUsesExpmFallback) {
  // Large lambda*t exercises the expm fallback path (lt > 5000).
  auto chain = simple_failure_chain(100.0);
  const auto pi = chain.transient({1.0, 0.0}, 100.0);
  EXPECT_NEAR(pi[1], 1.0, 1e-9);
}

TEST(Ctmc, UniformizationMatchesExpmOnRandomChains) {
  mx::Rng rng(43);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 5;
    mx::Matrix q(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      double row = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        q(i, j) = rng.uniform(0.0, 0.3);
        row += q(i, j);
      }
      q(i, i) = -row;
    }
    mk::Ctmc chain(q);
    std::vector<double> pi0(n, 0.0);
    pi0[0] = 1.0;
    const double t = rng.uniform(0.5, 20.0);
    const auto uni = chain.transient(pi0, t);
    const auto exact = mx::expm(q * t).apply_transposed(pi0);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(uni[i], exact[i], 1e-8) << "state " << i;
    }
  }
}

TEST(CtmcBuilder, RejectsInvalidEdges) {
  mk::CtmcBuilder b;
  const auto a = b.add_state("a");
  const auto c = b.add_state("b");
  EXPECT_THROW(b.add_transition(a, a, 1.0), std::invalid_argument);
  EXPECT_THROW(b.add_transition(a, 5, 1.0), std::out_of_range);
  EXPECT_THROW(b.add_transition(a, c, -2.0), std::invalid_argument);
}

TEST(CtmcBuilder, NamesArePreserved) {
  mk::CtmcBuilder b;
  b.add_state("alpha");
  b.add_state("omega");
  auto chain = b.build();
  EXPECT_EQ(chain.state_name(0), "alpha");
  EXPECT_EQ(chain.state_name(1), "omega");
}

// Property: transient distributions remain valid probability vectors.
TEST(CtmcProperty, TransientIsDistribution) {
  mx::Rng rng(47);
  for (int trial = 0; trial < 10; ++trial) {
    mk::CtmcBuilder b;
    const std::size_t n = 4 + trial % 3;
    for (std::size_t i = 0; i < n; ++i) b.add_state("s" + std::to_string(i));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j && rng.bernoulli(0.5)) {
          b.add_transition(i, j, rng.uniform(0.01, 2.0));
        }
      }
    }
    auto chain = b.build();
    std::vector<double> pi0(n, 0.0);
    pi0[rng.uniform_index(n)] = 1.0;
    for (double t : {0.1, 1.0, 10.0, 100.0}) {
      const auto pi = chain.transient(pi0, t);
      double sum = 0.0;
      for (double p : pi) {
        EXPECT_GE(p, -1e-10);
        sum += p;
      }
      EXPECT_NEAR(sum, 1.0, 1e-8);
    }
  }
}

// Property: failure probability of a pure-death chain is monotone in time.
TEST(CtmcProperty, AbsorptionProbabilityMonotone) {
  auto chain = simple_failure_chain(0.005);
  double prev = -1.0;
  for (double t = 0.0; t <= 1000.0; t += 50.0) {
    const double p = chain.probability_in({1.0, 0.0}, t, {1});
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(Ctmc, CompetingRisksAbsorptionSplit) {
  // Competing risks from s0: absorb in a (rate 1) or b (rate 3). The
  // eventual absorption split is rate / total exit rate: 1/4 and 3/4.
  mk::CtmcBuilder b;
  const auto s0 = b.add_state("s0");
  const auto a = b.add_state("a");
  const auto c = b.add_state("b");
  b.add_transition(s0, a, 1.0).add_transition(s0, c, 3.0);
  const auto chain = b.build();
  const auto split = chain.transient({1.0, 0.0, 0.0}, 1e4);
  EXPECT_NEAR(split[a], 0.25, 1e-9);
  EXPECT_NEAR(split[c], 0.75, 1e-9);
}

TEST(Ctmc, ScaledRatesMatchesRebuiltChain) {
  mk::CtmcBuilder b;
  const auto h = b.add_state("healthy");
  const auto l = b.add_state("low");
  const auto f = b.add_state("failed");
  b.add_transition(h, l, 1.0 / 7200.0);
  b.add_transition(l, f, 1.0 / 1800.0);
  const mk::Ctmc base = b.build();

  const double factor = 3.7;
  const mk::Ctmc scaled = base.scaled_rates(factor);

  mk::CtmcBuilder b2;
  const auto h2 = b2.add_state("healthy");
  const auto l2 = b2.add_state("low");
  const auto f2 = b2.add_state("failed");
  b2.add_transition(h2, l2, (1.0 / 7200.0) * factor);
  b2.add_transition(l2, f2, (1.0 / 1800.0) * factor);
  const mk::Ctmc rebuilt = b2.build();

  // Bit-identical generators: (-r)*f == -(r*f) in IEEE arithmetic for the
  // single-exit rows these models use.
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(scaled.generator()(i, j), rebuilt.generator()(i, j))
          << "entry (" << i << "," << j << ")";
    }
  }
  EXPECT_EQ(scaled.state_name(0), "healthy");

  // Transient results follow bit-for-bit.
  const std::vector<double> pi0{1.0, 0.0, 0.0};
  const auto a = scaled.transient(pi0, 600.0);
  const auto c = rebuilt.transient(pi0, 600.0);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(a[i], c[i]);
}

TEST(Ctmc, ScaledRatesRejectsNonPositiveFactor) {
  const mk::Ctmc chain = simple_failure_chain(1e-3);
  EXPECT_THROW(chain.scaled_rates(0.0), std::invalid_argument);
  EXPECT_THROW(chain.scaled_rates(-1.0), std::invalid_argument);
  EXPECT_NO_THROW(chain.scaled_rates(1.0));
}
