// Unit and property tests for the mathx substrate: matrices, expm, RNG,
// statistics.
#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "sesame/mathx/matrix.hpp"
#include "sesame/mathx/rng.hpp"
#include "sesame/mathx/stats.hpp"

namespace mx = sesame::mathx;

namespace {

mx::Matrix diagonal(const std::vector<double>& d) {
  mx::Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

bool near_identity(const mx::Matrix& m, double tol) {
  if (!m.is_square()) return false;
  const mx::Matrix id = mx::Matrix::identity(m.rows());
  for (std::size_t i = 0; i < m.data().size(); ++i) {
    if (std::abs(m.data()[i] - id.data()[i]) > tol) return false;
  }
  return true;
}

}  // namespace

TEST(Matrix, InitializerListAndAccess) {
  mx::Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((mx::Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, Identity) {
  auto id = mx::Matrix::identity(3);
  EXPECT_DOUBLE_EQ(id(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 1), 0.0);
}

TEST(Matrix, ArithmeticOperators) {
  mx::Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  mx::Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  auto sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 6.0);
  auto diff = b - a;
  EXPECT_DOUBLE_EQ(diff(1, 1), 4.0);
  auto scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
}

TEST(Matrix, DimensionMismatchThrows) {
  mx::Matrix a(2, 3);
  mx::Matrix b(2, 2);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a * b, std::invalid_argument);
}

TEST(Matrix, Product) {
  mx::Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  mx::Matrix b{{0.0, 1.0}, {1.0, 0.0}};
  auto p = a * b;
  EXPECT_DOUBLE_EQ(p(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(p(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(p(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(p(1, 1), 3.0);
}

TEST(Matrix, ApplyVector) {
  mx::Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  auto v = a.apply({1.0, 1.0});
  EXPECT_DOUBLE_EQ(v[0], 3.0);
  EXPECT_DOUBLE_EQ(v[1], 7.0);
  auto vt = a.apply_transposed({1.0, 1.0});
  EXPECT_DOUBLE_EQ(vt[0], 4.0);
  EXPECT_DOUBLE_EQ(vt[1], 6.0);
}

TEST(Matrix, Norms) {
  mx::Matrix a{{1.0, -2.0}, {-3.0, 4.0}};
  EXPECT_DOUBLE_EQ(a.norm_inf(), 7.0);
}

TEST(SolveLinear, SolvesSystem) {
  mx::Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  auto x = mx::solve_linear(a, {3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(SolveLinear, SingularThrows) {
  mx::Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(mx::solve_linear(a, {1.0, 2.0}), std::runtime_error);
}

TEST(SolveLinear, PivotingHandlesZeroDiagonal) {
  mx::Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  auto x = mx::solve_linear(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Expm, ZeroMatrixGivesIdentity) {
  mx::Matrix z(3, 3);
  auto e = mx::expm(z);
  EXPECT_TRUE(near_identity(e, 1e-12));
}

TEST(Expm, DiagonalMatchesScalarExp) {
  auto d = diagonal({-1.0, 2.0, 0.5});
  auto e = mx::expm(d);
  EXPECT_NEAR(e(0, 0), std::exp(-1.0), 1e-10);
  EXPECT_NEAR(e(1, 1), std::exp(2.0), 1e-9);
  EXPECT_NEAR(e(2, 2), std::exp(0.5), 1e-10);
  EXPECT_NEAR(e(0, 1), 0.0, 1e-12);
}

TEST(Expm, NilpotentMatrixExact) {
  // exp([[0,1],[0,0]]) = [[1,1],[0,1]]
  mx::Matrix n{{0.0, 1.0}, {0.0, 0.0}};
  auto e = mx::expm(n);
  EXPECT_NEAR(e(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(e(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(e(1, 0), 0.0, 1e-12);
  EXPECT_NEAR(e(1, 1), 1.0, 1e-12);
}

TEST(Expm, RotationMatrix) {
  // exp(theta * [[0,-1],[1,0]]) is a rotation by theta.
  const double theta = std::numbers::pi / 3.0;
  mx::Matrix g{{0.0, -theta}, {theta, 0.0}};
  auto e = mx::expm(g);
  EXPECT_NEAR(e(0, 0), std::cos(theta), 1e-10);
  EXPECT_NEAR(e(1, 0), std::sin(theta), 1e-10);
}

TEST(Expm, LargeNormScalingPath) {
  auto d = diagonal({-40.0, -80.0});
  auto e = mx::expm(d);
  EXPECT_NEAR(e(0, 0), std::exp(-40.0), 1e-22);
  EXPECT_NEAR(e(1, 1), std::exp(-80.0), 1e-30);
}

TEST(Rng, DeterministicForSeed) {
  mx::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  mx::Rng a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  mx::Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanApproxHalf) {
  mx::Rng r(11);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += r.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  mx::Rng r(13);
  std::vector<double> xs;
  for (int i = 0; i < 200000; ++i) xs.push_back(r.normal(3.0, 2.0));
  EXPECT_NEAR(mx::mean(xs), 3.0, 0.05);
  EXPECT_NEAR(mx::stddev(xs), 2.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  mx::Rng r(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerateProbabilities) {
  mx::Rng r(1);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
}

TEST(Rng, CategoricalRespectWeights) {
  mx::Rng r(23);
  std::vector<int> counts(3, 0);
  const int n = 90000;
  for (int i = 0; i < n; ++i) ++counts[r.categorical({1.0, 2.0, 3.0})];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 1.0 / 6, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 2.0 / 6, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 3.0 / 6, 0.01);
}

TEST(Rng, CategoricalRejectsBadWeights) {
  mx::Rng r(1);
  EXPECT_THROW(r.categorical({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(r.categorical({1.0, -1.0}), std::invalid_argument);
}

TEST(Rng, UniformIndexCoversRange) {
  mx::Rng r(29);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 5000; ++i) ++seen[r.uniform_index(5)];
  for (int c : seen) EXPECT_GT(c, 0);
  EXPECT_THROW(r.uniform_index(0), std::invalid_argument);
}

TEST(Stats, MeanVariance) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mx::mean(xs), 2.5);
  EXPECT_NEAR(mx::variance(xs), 5.0 / 3.0, 1e-12);
}

TEST(Stats, EmptyInputsThrow) {
  EXPECT_THROW(mx::mean({}), std::invalid_argument);
  EXPECT_THROW(mx::variance({1.0}), std::invalid_argument);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(mx::quantile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(mx::quantile(xs, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(mx::quantile(xs, 1.0), 10.0);
  EXPECT_THROW(mx::quantile(xs, 1.5), std::invalid_argument);
}

TEST(NormalQuantile, InvertsCdf) {
  for (double p : {0.01, 0.1, 0.25, 0.5, 0.9, 0.999}) {
    // Standard normal CDF: 0.5 * erfc(-z / sqrt(2)).
    const double z = mx::normal_quantile(p);
    EXPECT_NEAR(0.5 * std::erfc(-z / std::numbers::sqrt2), p, 1e-6) << p;
  }
  EXPECT_THROW(mx::normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW(mx::normal_quantile(1.0), std::invalid_argument);
}

// Property: expm(Q)*expm(-Q) == I for random small matrices.
TEST(ExpmProperty, InverseOfNegation) {
  mx::Rng r(31);
  for (int trial = 0; trial < 20; ++trial) {
    mx::Matrix a(3, 3);
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 3; ++j) a(i, j) = r.uniform(-1.0, 1.0);
    }
    auto prod = mx::expm(a) * mx::expm(a * -1.0);
    EXPECT_TRUE(near_identity(prod, 1e-8));
  }
}

// Property: rows of expm(Q) for a generator Q sum to 1 (stochastic matrix).
TEST(ExpmProperty, GeneratorExponentialIsStochastic) {
  mx::Rng r(37);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 4;
    mx::Matrix q(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      double row = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        q(i, j) = r.uniform(0.0, 2.0);
        row += q(i, j);
      }
      q(i, i) = -row;
    }
    auto e = mx::expm(q * r.uniform(0.1, 5.0));
    for (std::size_t i = 0; i < n; ++i) {
      double row = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_GE(e(i, j), -1e-9);
        row += e(i, j);
      }
      EXPECT_NEAR(row, 1.0, 1e-9);
    }
  }
}

TEST(Matrix, ApplyDimensionMismatchThrows) {
  mx::Matrix m(2, 3);
  EXPECT_THROW(m.apply({1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(m.apply_transposed({1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(SolveLinear, RandomSystemsHaveSmallResidual) {
  mx::Rng rng(401);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.uniform_index(6);
    mx::Matrix a(n, n);
    std::vector<double> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      b[i] = rng.uniform(-5.0, 5.0);
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-3.0, 3.0);
      a(i, i) += 10.0;  // diagonally dominant: well conditioned
    }
    const auto x = mx::solve_linear(a, b);
    const auto ax = a.apply(x);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(ax[i], b[i], 1e-9);
    }
  }
}

TEST(Stats, QuantileSingleElement) {
  EXPECT_DOUBLE_EQ(mx::quantile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(mx::quantile({7.0}, 1.0), 7.0);
}

TEST(Stats, MinMaxValues) {
  const std::vector<double> xs{3.0, -1.0, 9.0};
  EXPECT_DOUBLE_EQ(mx::min_value(xs), -1.0);
  EXPECT_DOUBLE_EQ(mx::max_value(xs), 9.0);
  EXPECT_THROW(mx::min_value({}), std::invalid_argument);
}

TEST(Rng, NormalQuantileMonotone) {
  double prev = -1e18;
  for (double p = 0.01; p < 1.0; p += 0.01) {
    const double q = mx::normal_quantile(p);
    EXPECT_GT(q, prev);
    prev = q;
  }
}
