// Tests for the synthetic person detector: the altitude/quality
// relationship the SAR-accuracy experiment relies on, detection and
// false-alarm behaviour, and feature generation for SafeML/DeepKnowledge.
#include <gtest/gtest.h>

#include "sesame/mathx/stats.hpp"
#include "sesame/perception/detector.hpp"

namespace pc = sesame::perception;
namespace geo = sesame::geo;
namespace mx = sesame::mathx;

namespace {

std::vector<sesame::sim::Person> one_person_below() {
  return {sesame::sim::Person{{0.0, 0.0, 0.0}, false}};
}

}  // namespace

TEST(Detector, ValidatesConfig) {
  pc::DetectorConfig cfg;
  cfg.gsd_ref_m = 0.0;
  EXPECT_THROW((pc::PersonDetector{cfg}), std::invalid_argument);
  cfg = {};
  cfg.peak_detection_probability = 1.5;
  EXPECT_THROW((pc::PersonDetector{cfg}), std::invalid_argument);
  cfg = {};
  cfg.false_alarm_rate = 1.0;
  EXPECT_THROW((pc::PersonDetector{cfg}), std::invalid_argument);
}

TEST(Detector, PeakProbabilityAtLowAltitude) {
  pc::PersonDetector det{pc::DetectorConfig{}};
  // Near the reference GSD (about 18 m altitude) detection is ~99.8%.
  EXPECT_NEAR(det.detection_probability(15.0), 0.998, 0.004);
  EXPECT_DOUBLE_EQ(det.detection_probability(0.0), 0.0);
  EXPECT_DOUBLE_EQ(det.detection_probability(-5.0), 0.0);
}

TEST(Detector, ProbabilityMonotoneDecreasingInAltitude) {
  pc::PersonDetector det{pc::DetectorConfig{}};
  double prev = 1.1;
  for (double alt = 10.0; alt <= 120.0; alt += 10.0) {
    const double p = det.detection_probability(alt);
    EXPECT_LE(p, prev + 1e-12) << "alt=" << alt;
    EXPECT_GE(p, 0.0);
    prev = p;
  }
  // High altitude is materially worse than low altitude.
  EXPECT_GT(det.detection_probability(20.0), 0.99);
  EXPECT_LT(det.detection_probability(80.0), 0.6);
}

TEST(Detector, DetectsPersonInFootprint) {
  pc::PersonDetector det{pc::DetectorConfig{}};
  mx::Rng rng(3);
  const auto persons = one_person_below();
  int hits = 0;
  const int frames = 2000;
  for (int i = 0; i < frames; ++i) {
    for (const auto& d : det.detect({0.0, 0.0, 20.0}, persons, rng)) {
      if (d.person_index == 0u) ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / frames,
              det.detection_probability(20.0), 0.02);
}

TEST(Detector, MissesPersonOutsideFootprint) {
  pc::PersonDetector det{pc::DetectorConfig{}};
  mx::Rng rng(5);
  std::vector<sesame::sim::Person> persons{{{1000.0, 0.0, 0.0}, false}};
  for (int i = 0; i < 100; ++i) {
    for (const auto& d : det.detect({0.0, 0.0, 20.0}, persons, rng)) {
      EXPECT_FALSE(d.person_index.has_value());  // only false alarms possible
    }
  }
}

TEST(Detector, NoDetectionsOnGround) {
  pc::PersonDetector det{pc::DetectorConfig{}};
  mx::Rng rng(7);
  EXPECT_TRUE(det.detect({0.0, 0.0, 0.0}, one_person_below(), rng).empty());
}

TEST(Detector, CandidateSubsetMatchesFullScanBitForBit) {
  // The spatial-index path hands detect() a pre-filtered ascending
  // candidate list. Any superset of the persons actually inside the
  // footprint must reproduce the full scan exactly — same RNG draws, same
  // detections — because out-of-footprint persons draw nothing.
  pc::PersonDetector det{pc::DetectorConfig{}};
  std::vector<sesame::sim::Person> persons;
  for (int i = 0; i < 24; ++i) {
    // Mix of in-footprint (near origin) and far-away persons.
    const double east = (i % 3 == 0) ? 0.5 * i : 500.0 + 10.0 * i;
    persons.push_back({{east, 0.25 * i, 0.0}, false});
  }
  const geo::EnuPoint uav_pos{0.0, 0.0, 20.0};
  const auto fp = det.camera().footprint(uav_pos);

  std::vector<std::uint32_t> in_footprint;
  std::vector<std::uint32_t> superset;
  for (std::uint32_t i = 0; i < persons.size(); ++i) {
    superset.push_back(i);
    if (fp.contains(persons[i].position)) in_footprint.push_back(i);
  }
  ASSERT_FALSE(in_footprint.empty());
  ASSERT_LT(in_footprint.size(), persons.size());

  for (int frame = 0; frame < 50; ++frame) {
    mx::Rng full_rng(100 + frame);
    mx::Rng tight_rng(100 + frame);
    mx::Rng super_rng(100 + frame);
    const auto full = det.detect(uav_pos, persons, full_rng);
    const auto tight = det.detect(uav_pos, persons, in_footprint, tight_rng);
    const auto super = det.detect(uav_pos, persons, superset, super_rng);
    for (const auto* other : {&tight, &super}) {
      ASSERT_EQ(full.size(), other->size());
      for (std::size_t d = 0; d < full.size(); ++d) {
        EXPECT_EQ(full[d].person_index, (*other)[d].person_index);
        EXPECT_DOUBLE_EQ(full[d].confidence, (*other)[d].confidence);
        EXPECT_DOUBLE_EQ(full[d].estimated_position.east_m,
                         (*other)[d].estimated_position.east_m);
        EXPECT_DOUBLE_EQ(full[d].estimated_position.north_m,
                         (*other)[d].estimated_position.north_m);
      }
    }
  }
}

TEST(Detector, FalseAlarmRateApproximatelyConfigured) {
  pc::DetectorConfig cfg;
  cfg.false_alarm_rate = 0.10;
  pc::PersonDetector det{cfg};
  mx::Rng rng(9);
  int false_alarms = 0;
  const int frames = 5000;
  const std::vector<sesame::sim::Person> nobody;
  for (int i = 0; i < frames; ++i) {
    for (const auto& d : det.detect({0.0, 0.0, 30.0}, nobody, rng)) {
      if (!d.person_index.has_value()) ++false_alarms;
    }
  }
  EXPECT_NEAR(static_cast<double>(false_alarms) / frames, 0.10, 0.02);
}

TEST(Detector, LocalizationNoiseGrowsWithAltitude) {
  pc::PersonDetector det{pc::DetectorConfig{}};
  mx::Rng rng(11);
  const auto persons = one_person_below();
  auto rms_error = [&](double alt) {
    double ss = 0.0;
    int n = 0;
    for (int i = 0; i < 3000; ++i) {
      for (const auto& d : det.detect({0.0, 0.0, alt}, persons, rng)) {
        if (!d.person_index) continue;
        ss += d.estimated_position.east_m * d.estimated_position.east_m +
              d.estimated_position.north_m * d.estimated_position.north_m;
        ++n;
      }
    }
    return n ? std::sqrt(ss / n) : 0.0;
  };
  EXPECT_LT(rms_error(15.0), rms_error(70.0));
}

TEST(Detector, ConfidenceWithinBounds) {
  pc::PersonDetector det{pc::DetectorConfig{}};
  mx::Rng rng(13);
  const auto persons = one_person_below();
  for (int i = 0; i < 500; ++i) {
    for (const auto& d : det.detect({0.0, 0.0, 40.0}, persons, rng)) {
      EXPECT_GT(d.confidence, 0.0);
      EXPECT_LT(d.confidence, 1.0);
    }
  }
}

TEST(FrameFeatures, ShiftWithAltitude) {
  pc::PersonDetector det{pc::DetectorConfig{}};
  mx::Rng rng(17);
  std::vector<double> sharp_low, sharp_high, scale_low, scale_high;
  for (int i = 0; i < 200; ++i) {
    const auto lo = det.frame_features(18.0, rng);
    const auto hi = det.frame_features(70.0, rng);
    sharp_low.push_back(lo.sharpness);
    sharp_high.push_back(hi.sharpness);
    scale_low.push_back(lo.target_scale);
    scale_high.push_back(hi.target_scale);
  }
  EXPECT_GT(mx::mean(sharp_low), mx::mean(sharp_high));
  EXPECT_GT(mx::mean(scale_low), mx::mean(scale_high));
}

TEST(FrameFeatures, VectorHasDeclaredArity) {
  pc::PersonDetector det{pc::DetectorConfig{}};
  mx::Rng rng(19);
  const auto f = det.frame_features(30.0, rng);
  EXPECT_EQ(f.as_vector().size(), pc::FrameFeatures::kNumFeatures);
}

TEST(DetectionFeatures, ArityAndAltitudeSensitivity) {
  pc::PersonDetector det{pc::DetectorConfig{}};
  mx::Rng rng(23);
  pc::Detection d;
  d.confidence = 0.9;
  const auto lo = det.detection_features(d, 18.0, rng);
  const auto hi = det.detection_features(d, 70.0, rng);
  EXPECT_EQ(lo.size(), pc::PersonDetector::kDetectionFeatureCount);
  EXPECT_LT(lo[0], hi[0]);  // normalized GSD grows with altitude
  EXPECT_DOUBLE_EQ(lo[1], 0.9);
}
