// Tests for SafeML: distance measures against hand-computed values and
// statistical properties, permutation testing, and the sliding-window
// monitor's confidence mapping.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>

#include <gtest/gtest.h>

#include "sesame/mathx/rng.hpp"
#include "sesame/safeml/distances.hpp"
#include "sesame/safeml/monitor.hpp"

namespace sml = sesame::safeml;
namespace mx = sesame::mathx;

namespace {

std::vector<double> normal_sample(mx::Rng& rng, std::size_t n, double mean,
                                  double sd) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(rng.normal(mean, sd));
  return out;
}

}  // namespace

TEST(Distances, IdenticalSamplesAreZero) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  for (auto m : sml::all_measures()) {
    EXPECT_NEAR(sml::distance(m, xs, xs), 0.0, 1e-12) << sml::measure_name(m);
  }
}

TEST(Distances, EmptySampleThrows) {
  const std::vector<double> xs{1.0};
  for (auto m : sml::all_measures()) {
    EXPECT_THROW(sml::distance(m, {}, xs), std::invalid_argument);
    EXPECT_THROW(sml::distance(m, xs, {}), std::invalid_argument);
  }
}

TEST(Distances, HandComputedTable) {
  using M = sml::Measure;
  struct Case {
    M measure;
    std::vector<double> a, b;
    double want;
  };
  const Case cases[] = {
      {M::kKolmogorovSmirnov, {1.0, 2.0}, {10.0, 11.0}, 1.0},  // disjoint
      // F_a steps at 1,3; F_b steps at 2,4. Max gap = 0.5.
      {M::kKolmogorovSmirnov, {1.0, 3.0}, {2.0, 4.0}, 0.5},
      // W1 between X and X + c is exactly |c|.
      {M::kWasserstein, {1.0, 2.0, 3.0, 4.0}, {3.5, 4.5, 5.5, 6.5}, 2.5},
  };
  for (const Case& c : cases) {
    EXPECT_NEAR(sml::distance(c.measure, c.a, c.b), c.want, 1e-12)
        << sml::measure_name(c.measure);
  }
}

TEST(Distances, KsSymmetric) {
  mx::Rng rng(3);
  const auto a = normal_sample(rng, 50, 0.0, 1.0);
  const auto b = normal_sample(rng, 60, 0.5, 1.2);
  const auto ks = sml::Measure::kKolmogorovSmirnov;
  EXPECT_DOUBLE_EQ(sml::distance(ks, a, b), sml::distance(ks, b, a));
}

TEST(Distances, KuiperAtLeastKs) {
  mx::Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    const auto a = normal_sample(rng, 40, 0.0, 1.0);
    const auto b = normal_sample(rng, 40, rng.uniform(-1.0, 1.0), 1.0);
    EXPECT_GE(sml::distance(sml::Measure::kKuiper, a, b) + 1e-12,
              sml::distance(sml::Measure::kKolmogorovSmirnov, a, b));
  }
}

TEST(Distances, WassersteinScalesWithUnits) {
  mx::Rng rng(7);
  const auto a = normal_sample(rng, 100, 0.0, 1.0);
  const auto b = normal_sample(rng, 100, 1.0, 1.0);
  std::vector<double> a10, b10;
  for (double x : a) a10.push_back(10.0 * x);
  for (double x : b) b10.push_back(10.0 * x);
  const auto w = sml::Measure::kWasserstein;
  EXPECT_NEAR(sml::distance(w, a10, b10), 10.0 * sml::distance(w, a, b), 1e-9);
}

TEST(Distances, GrowWithShiftMagnitude) {
  // Every measure should increase monotonically (statistically) with the
  // mean shift between distributions.
  mx::Rng rng(11);
  const auto ref = normal_sample(rng, 400, 0.0, 1.0);
  for (auto m : sml::all_measures()) {
    const auto near = normal_sample(rng, 400, 0.2, 1.0);
    const auto far = normal_sample(rng, 400, 2.0, 1.0);
    EXPECT_LT(sml::distance(m, ref, near), sml::distance(m, ref, far))
        << sml::measure_name(m);
  }
}

TEST(Distances, AndersonDarlingSensitiveToTails) {
  // Same mean/median but heavier tails: AD should detect it clearly.
  mx::Rng rng(13);
  const auto ref = normal_sample(rng, 500, 0.0, 1.0);
  const auto heavy = normal_sample(rng, 500, 0.0, 3.0);
  EXPECT_GT(sml::distance(sml::Measure::kAndersonDarling, ref, heavy), 0.05);
}

TEST(Distances, CvmBoundedByAd) {
  // AD upweights the same squared-gap integrand CvM sums, so CvM <= AD.
  mx::Rng rng(17);
  const auto a = normal_sample(rng, 100, 0.0, 1.0);
  const auto b = normal_sample(rng, 100, 1.0, 1.0);
  EXPECT_LE(sml::distance(sml::Measure::kCramerVonMises, a, b),
            sml::distance(sml::Measure::kAndersonDarling, a, b) + 1e-9);
}

TEST(Distances, MeasureNamesDistinct) {
  std::set<std::string> names;
  for (auto m : sml::all_measures()) names.insert(sml::measure_name(m));
  EXPECT_EQ(names.size(), sml::all_measures().size());
}

TEST(PermutationTest, SameDistributionHighP) {
  mx::Rng rng(19);
  const auto a = normal_sample(rng, 60, 0.0, 1.0);
  const auto b = normal_sample(rng, 60, 0.0, 1.0);
  const double p =
      sml::permutation_p_value(sml::Measure::kKolmogorovSmirnov, a, b, rng, 100);
  EXPECT_GT(p, 0.05);
}

TEST(PermutationTest, ShiftedDistributionLowP) {
  mx::Rng rng(23);
  const auto a = normal_sample(rng, 60, 0.0, 1.0);
  const auto b = normal_sample(rng, 60, 1.5, 1.0);
  const double p =
      sml::permutation_p_value(sml::Measure::kKolmogorovSmirnov, a, b, rng, 100);
  EXPECT_LT(p, 0.05);
}

TEST(PermutationTest, ValidatesArguments) {
  mx::Rng rng(1);
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_THROW(
      sml::permutation_p_value(sml::Measure::kKolmogorovSmirnov, xs, xs, rng, 0),
      std::invalid_argument);
}

TEST(Monitor, ConstructionValidation) {
  sml::MonitorConfig cfg;
  EXPECT_THROW(sml::Monitor(cfg, {}), std::invalid_argument);
  EXPECT_THROW(sml::Monitor(cfg, {{}}), std::invalid_argument);
  cfg.window = 1;
  EXPECT_THROW(sml::Monitor(cfg, {{1.0, 2.0}}), std::invalid_argument);
  cfg.window = 8;
  cfg.full_scale = 0.0;
  EXPECT_THROW(sml::Monitor(cfg, {{1.0, 2.0}}), std::invalid_argument);
  cfg.full_scale = 1.0;
  cfg.low_threshold = 0.9;
  cfg.high_threshold = 0.5;
  EXPECT_THROW(sml::Monitor(cfg, {{1.0, 2.0}}), std::invalid_argument);
}

TEST(Monitor, NotReadyUntilWindowFull) {
  mx::Rng rng(29);
  sml::MonitorConfig cfg;
  cfg.window = 8;
  sml::Monitor mon(cfg, {normal_sample(rng, 100, 0.0, 1.0)});
  for (int i = 0; i < 7; ++i) {
    mon.push({rng.normal(0.0, 1.0)});
    EXPECT_FALSE(mon.ready());
    EXPECT_FALSE(mon.assess().has_value());
  }
  mon.push({0.0});
  EXPECT_TRUE(mon.ready());
  EXPECT_TRUE(mon.assess().has_value());
}

TEST(Monitor, InDistributionDataHighConfidence) {
  mx::Rng rng(31);
  sml::MonitorConfig cfg;
  cfg.window = 64;
  sml::Monitor mon(cfg, {normal_sample(rng, 500, 0.0, 1.0)});
  for (int i = 0; i < 64; ++i) mon.push({rng.normal(0.0, 1.0)});
  const auto a = mon.assess();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->level, sml::ConfidenceLevel::kHigh);
  EXPECT_GT(a->confidence, 0.75);
}

TEST(Monitor, ShiftedDataLowConfidence) {
  mx::Rng rng(37);
  sml::MonitorConfig cfg;
  cfg.window = 64;
  sml::Monitor mon(cfg, {normal_sample(rng, 500, 0.0, 1.0)});
  for (int i = 0; i < 64; ++i) mon.push({rng.normal(5.0, 1.0)});
  const auto a = mon.assess();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->level, sml::ConfidenceLevel::kLow);
  EXPECT_LT(a->confidence, 0.4);
}

TEST(Monitor, SlidingWindowRecovers) {
  // After a burst of shifted data, pushing in-distribution data slides the
  // bad samples out and confidence recovers.
  mx::Rng rng(41);
  sml::MonitorConfig cfg;
  cfg.window = 32;
  sml::Monitor mon(cfg, {normal_sample(rng, 500, 0.0, 1.0)});
  for (int i = 0; i < 32; ++i) mon.push({rng.normal(5.0, 1.0)});
  const double bad = mon.assess()->confidence;
  for (int i = 0; i < 32; ++i) mon.push({rng.normal(0.0, 1.0)});
  const double good = mon.assess()->confidence;
  EXPECT_GT(good, bad + 0.3);
}

TEST(Monitor, MultiFeatureAggregation) {
  mx::Rng rng(43);
  sml::MonitorConfig cfg;
  cfg.window = 32;
  sml::Monitor mon(cfg, {normal_sample(rng, 300, 0.0, 1.0),
                         normal_sample(rng, 300, 10.0, 2.0)});
  EXPECT_EQ(mon.num_features(), 2u);
  for (int i = 0; i < 32; ++i) {
    mon.push({rng.normal(0.0, 1.0), rng.normal(10.0, 2.0)});
  }
  EXPECT_EQ(mon.assess()->level, sml::ConfidenceLevel::kHigh);
  EXPECT_THROW(mon.push({1.0}), std::invalid_argument);
}

TEST(Monitor, PerFeatureDissimilarityIsolatesDriftedChannel) {
  mx::Rng rng(107);
  sml::MonitorConfig cfg;
  cfg.window = 48;
  sml::Monitor mon(cfg, {normal_sample(rng, 300, 0.0, 1.0),
                         normal_sample(rng, 300, 10.0, 2.0)});
  EXPECT_TRUE(mon.per_feature_dissimilarity().empty());  // not ready yet
  // Feature 0 stays in distribution; feature 1 drifts hard.
  for (int i = 0; i < 48; ++i) {
    mon.push({rng.normal(0.0, 1.0), rng.normal(30.0, 2.0)});
  }
  const auto per = mon.per_feature_dissimilarity();
  ASSERT_EQ(per.size(), 2u);
  EXPECT_LT(per[0], 0.4);
  EXPECT_GT(per[1], 0.9);
  // The aggregate equals the mean of the per-feature distances.
  const auto a = mon.assess();
  ASSERT_TRUE(a.has_value());
  EXPECT_NEAR(a->dissimilarity, (per[0] + per[1]) / 2.0, 1e-12);
}

TEST(Distances, PreparedReferenceMatchesTwoSampleDistance) {
  mx::Rng rng(1234);
  std::vector<double> a, b;
  for (int i = 0; i < 200; ++i) a.push_back(rng.normal(0.0, 1.0));
  for (int i = 0; i < 150; ++i) b.push_back(rng.normal(0.4, 1.3));

  std::vector<double> b_sorted = b;
  std::sort(b_sorted.begin(), b_sorted.end());
  const sml::PreparedReference ref(a);
  for (const auto m : sml::all_measures()) {
    EXPECT_EQ(sml::distance(m, a, b), ref.distance(m, b_sorted))
        << sml::measure_name(m);
  }
  EXPECT_THROW(sml::PreparedReference({}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Incremental monitor: the sorted window and the prepared reference must
// give exactly the distances of the plain two-sample functions.

namespace {

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// A value on a coarse grid, so repeated values (ties) are common.
double grid_value(mx::Rng& rng, double mean) {
  return std::round(rng.normal(mean, 1.5) * 2.0) / 2.0;
}

}  // namespace

TEST(Monitor, SortedWindowMatchesTwoSampleDistanceBitForBit) {
  mx::Rng rng(4242);
  for (int sequence = 0; sequence < 12; ++sequence) {
    const std::size_t window = 2 + rng.uniform_index(63);  // 2..64
    const std::size_t features = 1 + rng.uniform_index(3);
    std::vector<std::vector<double>> reference(features);
    for (auto& f : reference) {
      const std::size_t n = 1 + rng.uniform_index(120);
      for (std::size_t i = 0; i < n; ++i) f.push_back(grid_value(rng, 0.0));
    }
    std::vector<sml::Monitor> monitors;
    for (auto m : sml::all_measures()) {
      sml::MonitorConfig cfg;
      cfg.measure = m;
      cfg.window = window;
      monitors.emplace_back(cfg, reference);
    }
    // The test's own window model: arrival order, oldest first.
    std::vector<std::deque<double>> model(features);
    const int pushes = 3 * static_cast<int>(window) + 5;
    for (int p = 0; p < pushes; ++p) {
      std::vector<double> row;
      const double drift = p > pushes / 3 ? 1.0 : 0.0;
      for (std::size_t k = 0; k < features; ++k) row.push_back(grid_value(rng, drift));
      for (auto& mon : monitors) mon.push(row);
      for (std::size_t k = 0; k < features; ++k) {
        model[k].push_back(row[k]);
        if (model[k].size() > window) model[k].pop_front();
      }
      for (std::size_t mi = 0; mi < monitors.size(); ++mi) {
        const auto per = monitors[mi].per_feature_dissimilarity();
        if (model[0].size() < window) {
          EXPECT_TRUE(per.empty());
          continue;
        }
        ASSERT_EQ(per.size(), features);
        for (std::size_t k = 0; k < features; ++k) {
          const std::vector<double> copy(model[k].begin(), model[k].end());
          const auto m = sml::all_measures()[mi];
          ASSERT_EQ(bits(per[k]), bits(sml::distance(m, reference[k], copy)))
              << sml::measure_name(m) << " sequence " << sequence << " push "
              << p << " feature " << k;
        }
      }
    }
  }
}

TEST(Monitor, RejectsNonFiniteFeatures) {
  sml::MonitorConfig cfg;
  cfg.window = 4;
  sml::Monitor mon(cfg, {{0.0, 1.0, 2.0}, {5.0, 6.0}});
  for (int i = 0; i < 4; ++i) mon.push({1.0, 5.5});
  const auto before = mon.per_feature_dissimilarity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(mon.push({nan, 5.0}), std::invalid_argument);
  EXPECT_THROW(mon.push({1.0, inf}), std::invalid_argument);
  EXPECT_THROW(mon.push({-inf, 5.0}), std::invalid_argument);
  // A rejected push leaves the window untouched.
  EXPECT_EQ(mon.buffered(), 4u);
  EXPECT_EQ(mon.per_feature_dissimilarity(), before);
  // A NaN reference cannot be ordered either.
  EXPECT_THROW(sml::Monitor(cfg, {{0.0, nan}}), std::invalid_argument);
  EXPECT_THROW(sml::distance(sml::Measure::kKolmogorovSmirnov, {1.0}, {nan}),
               std::invalid_argument);
}

// Bit patterns recorded with the merge-walk implementation that predates
// the prepared reference; the e2e digests only exercise Wasserstein.
TEST(Distances, PinnedBitsOnTieHeavyPair) {
  const std::vector<double> a{3.0, 0.0, 1.0, 1.0, -2.0, 1.0, 8.0,
                              3.0, 0.5, 8.0, 8.0, 13.0, -2.0};
  const std::vector<double> b{1.0, -0.0, 2.0, 2.0, 8.0, -1.0,
                              2.0, 3.0,  4.0, 1.0, 21.0};
  const std::uint64_t expected[] = {
      0x3fc660abdc322038ull, 0x3fd33ea8479bbf8eull, 0x3fccd7547007d457ull,
      0x3f9c5b7fe68a0b8aull, 0x3ffe99f5423cde00ull, 0x400490a145ebbd92ull};
  for (std::size_t mi = 0; mi < sml::all_measures().size(); ++mi) {
    const auto m = sml::all_measures()[mi];
    EXPECT_EQ(bits(sml::distance(m, a, b)), expected[mi]) << sml::measure_name(m);
  }
}

TEST(Monitor, PinnedBitsOnPlatformShape) {
  // The platform's shape: 3 features x 400 reference samples, window 64.
  mx::Rng rng(2025);
  std::vector<std::vector<double>> reference(3);
  for (std::size_t k = 0; k < 3; ++k) {
    for (int i = 0; i < 400; ++i) {
      reference[k].push_back(rng.normal(2.0 * k, 1.0 + k));
    }
  }
  std::vector<std::vector<double>> pushes;
  for (int i = 0; i < 64; ++i) {
    std::vector<double> row;
    for (std::size_t k = 0; k < 3; ++k) row.push_back(rng.normal(0.3 + 2.0 * k, 1.0 + k));
    pushes.push_back(row);
  }
  const std::uint64_t expected[][3] = {
      {0x3fc2b851eb851eb8ull, 0x3fc87ae147ae147aull, 0x3fb63d70a3d70a40ull},
      {0x3fc83d70a3d70a3dull, 0x3fc8e147ae147ae0ull, 0x3fc4e147ae147ae2ull},
      {0x4001dbc58e87fd6cull, 0x400f739df60ebb91ull, 0x3fe02ff4dc02834cull},
      {0x3fd844b906b57ec1ull, 0x3fe62b824b906b54ull, 0x3fb229398e4cfa03ull},
      {0x3fd2d07265f4ac4cull, 0x3fe6de1d9bc07893ull, 0x3fdb5442c72978d7ull},
      {0x3fca38f9459927edull, 0x3fe355055bb60109ull, 0x3fdc73fd7aadeb48ull}};
  const sml::ReferenceSet shared(reference);
  for (std::size_t mi = 0; mi < sml::all_measures().size(); ++mi) {
    sml::MonitorConfig cfg;
    cfg.measure = sml::all_measures()[mi];
    cfg.window = 64;
    sml::Monitor mon(cfg, shared);
    for (const auto& row : pushes) mon.push(row);
    const auto per = mon.per_feature_dissimilarity();
    ASSERT_EQ(per.size(), 3u);
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(bits(per[k]), expected[mi][k])
          << sml::measure_name(cfg.measure) << " feature " << k;
    }
  }
}
