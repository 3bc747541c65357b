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

#include "sesame/perception/tracker.hpp"

namespace {
pc::Detection det_at(double e, double n, double conf = 0.9) {
  pc::Detection d;
  d.person_index = 0;
  d.confidence = conf;
  d.estimated_position = {e, n, 0.0};
  return d;
}
}  // namespace

TEST(Tracker, ValidatesConfig) {
  pc::TrackerConfig cfg;
  cfg.gate_m = 0.0;
  EXPECT_THROW((pc::PersonTracker{cfg}), std::invalid_argument);
  cfg = {};
  cfg.confirm_hits = 0;
  EXPECT_THROW((pc::PersonTracker{cfg}), std::invalid_argument);
}

TEST(Tracker, ConfirmsAfterRepeatedHits) {
  pc::PersonTracker tracker;  // confirm after 3 hits
  tracker.update({det_at(10.0, 10.0)});
  tracker.update({det_at(10.5, 9.8)});
  EXPECT_TRUE(tracker.confirmed().empty());  // 2 hits: still tentative
  tracker.update({det_at(9.7, 10.2)});
  const auto confirmed = tracker.confirmed();
  ASSERT_EQ(confirmed.size(), 1u);
  EXPECT_EQ(confirmed[0].hits, 3u);
  // Averaged position near the true point.
  EXPECT_NEAR(confirmed[0].position.east_m, 10.0, 0.5);
  EXPECT_NEAR(confirmed[0].position.north_m, 10.0, 0.5);
}

TEST(Tracker, IsolatedFalseAlarmDiesOut) {
  pc::TrackerConfig cfg;
  cfg.max_misses = 3;
  pc::PersonTracker tracker(cfg);
  tracker.update({det_at(50.0, 50.0, 0.3)});  // single spurious hit
  for (int i = 0; i < 5; ++i) tracker.update({});
  EXPECT_TRUE(tracker.tracks().empty());
}

TEST(Tracker, SeparatePersonsGetSeparateTracks) {
  pc::PersonTracker tracker;
  for (int i = 0; i < 4; ++i) {
    tracker.update({det_at(0.0, 0.0), det_at(100.0, 0.0)});
  }
  EXPECT_EQ(tracker.confirmed().size(), 2u);
}

TEST(Tracker, ConfirmedTracksPersistThroughGaps) {
  pc::PersonTracker tracker;
  for (int i = 0; i < 3; ++i) tracker.update({det_at(5.0, 5.0)});
  ASSERT_EQ(tracker.confirmed().size(), 1u);
  for (int i = 0; i < 50; ++i) tracker.update({});  // long occlusion
  EXPECT_EQ(tracker.confirmed().size(), 1u);  // persons do not vanish
}

TEST(Tracker, EndToEndSuppressesFalseAlarms) {
  // Run the real detector over a person for many frames: the tracker
  // confirms exactly one track even though raw detections include false
  // alarms scattered across the footprint.
  pc::DetectorConfig dcfg;
  dcfg.false_alarm_rate = 0.2;
  pc::PersonDetector det{dcfg};
  mx::Rng rng(91);
  std::vector<sesame::sim::Person> persons{{{0.0, 0.0, 0.0}, false}};
  pc::TrackerConfig tcfg;
  tcfg.confirm_hits = 5;
  pc::PersonTracker tracker(tcfg);
  for (int f = 0; f < 60; ++f) {
    tracker.update(det.detect({0.0, 0.0, 20.0}, persons, rng));
  }
  const auto confirmed = tracker.confirmed();
  ASSERT_GE(confirmed.size(), 1u);
  // The dominant confirmed track sits on the person.
  EXPECT_LT(geo::enu_ground_distance_m(confirmed[0].position, {0.0, 0.0, 0.0}),
            2.0);
  // Scattered false alarms (each at a random spot) must not confirm.
  EXPECT_LE(confirmed.size(), 2u);
}

#include <bit>
#include <optional>
#include <string>

#include "sesame/mathx/rng.hpp"

namespace {

// Reference tracker: ages and culls every track on every frame, exactly as
// PersonTracker did before it derived ages from frame counts. The
// differential test below holds the production tracker to it.
class EagerTracker {
 public:
  explicit EagerTracker(pc::TrackerConfig config) : config_(config) {}

  void update(const std::vector<pc::Detection>& detections) {
    ++frames_;
    std::vector<bool> track_updated(tracks_.size(), false);
    for (const auto& det : detections) {
      std::size_t best = tracks_.size();
      double best_d = config_.gate_m;
      for (std::size_t i = 0; i < tracks_.size(); ++i) {
        if (track_updated[i]) continue;
        const double d = geo::enu_ground_distance_m(tracks_[i].position,
                                                    det.estimated_position);
        if (d <= best_d) {
          if (d == best_d && best < tracks_.size()) ++gate_ties_;
          best_d = d;
          best = i;
        }
      }
      if (best < tracks_.size()) {
        pc::Track& t = tracks_[best];
        const double n = static_cast<double>(t.hits);
        t.position.east_m =
            (t.position.east_m * n + det.estimated_position.east_m) / (n + 1.0);
        t.position.north_m =
            (t.position.north_m * n + det.estimated_position.north_m) /
            (n + 1.0);
        ++t.hits;
        t.misses = 0;
        t.last_confidence = det.confidence;
        if (t.hits >= config_.confirm_hits) t.confirmed = true;
        track_updated[best] = true;
      } else {
        pc::Track t;
        t.id = next_id_++;
        t.position = det.estimated_position;
        t.hits = 1;
        t.last_confidence = det.confidence;
        t.confirmed = config_.confirm_hits <= 1;
        tracks_.push_back(t);
        track_updated.push_back(true);
      }
    }
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
      if (!track_updated[i]) ++tracks_[i].misses;
    }
    std::erase_if(tracks_, [this](const pc::Track& t) {
      return !t.confirmed && t.misses > config_.max_misses;
    });
  }

  const std::vector<pc::Track>& tracks() const { return tracks_; }
  std::size_t frames() const { return frames_; }
  /// Associations decided by an exact distance tie (the later track wins).
  std::size_t gate_ties() const { return gate_ties_; }

  std::vector<pc::Track> confirmed() const {
    std::vector<pc::Track> out;
    for (const auto& t : tracks_) {
      if (t.confirmed) out.push_back(t);
    }
    return out;
  }


 private:
  pc::TrackerConfig config_;
  std::vector<pc::Track> tracks_;
  std::size_t next_id_ = 0;
  std::size_t frames_ = 0;
  std::size_t gate_ties_ = 0;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Empty when the two track lists agree field by field (positions and
/// confidences bit for bit); otherwise a description of the first
/// difference.
std::string track_diff(const std::vector<pc::Track>& want,
                       const std::vector<pc::Track>& got) {
  if (want.size() != got.size()) {
    return "size " + std::to_string(got.size()) + " != " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    const pc::Track& w = want[i];
    const pc::Track& g = got[i];
    const bool same =
        w.id == g.id && same_bits(w.position.east_m, g.position.east_m) &&
        same_bits(w.position.north_m, g.position.north_m) &&
        same_bits(w.position.up_m, g.position.up_m) && w.hits == g.hits &&
        w.misses == g.misses && w.confirmed == g.confirmed &&
        same_bits(w.last_confidence, g.last_confidence);
    if (!same) {
      return "track " + std::to_string(i) + " (id " + std::to_string(w.id) +
             "): got id " + std::to_string(g.id) + " hits " +
             std::to_string(g.hits) + " misses " + std::to_string(g.misses) +
             ", want hits " + std::to_string(w.hits) + " misses " +
             std::to_string(w.misses);
    }
  }
  return "";
}

}  // namespace

TEST(Tracker, MatchesEagerReferenceOnSeededFrameSequences) {
  // Long empty stretches (tracks age out while no detection arrives),
  // bursts of detections on integer points (duplicates in one frame open
  // twin tracks, which later tie exactly at the gate comparison), and
  // scattered false alarms.
  std::size_t frames_checked = 0;
  std::size_t tracks_seen = 0;
  std::size_t gate_ties = 0;
  std::size_t culling_frames = 0;  // frames that ended with fewer tracks
  for (std::size_t confirm_hits = 1; confirm_hits <= 4; ++confirm_hits) {
    for (std::size_t max_misses = 1; max_misses <= 12; ++max_misses) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        mx::Rng rng(1000 * confirm_hits + 10 * max_misses + seed);
        pc::TrackerConfig cfg;
        cfg.gate_m = rng.bernoulli(0.5) ? 3.0 : 6.0;
        cfg.confirm_hits = confirm_hits;
        cfg.max_misses = max_misses;
        pc::PersonTracker tracker(cfg);
        EagerTracker reference(cfg);
        std::vector<geo::EnuPoint> persons;
        for (int p = 0; p < 4; ++p) {
          persons.push_back({static_cast<double>(rng.uniform_index(21)),
                             static_cast<double>(rng.uniform_index(21)), 0.0});
        }
        const std::string where = "confirm_hits " +
                                  std::to_string(confirm_hits) +
                                  " max_misses " + std::to_string(max_misses) +
                                  " seed " + std::to_string(seed);
        for (int phase = 0; phase < 40; ++phase) {
          const bool empty_stretch = rng.bernoulli(0.5);
          const std::size_t length =
              empty_stretch ? rng.uniform_index(2 * max_misses + 4)
                            : 1 + rng.uniform_index(6);
          for (std::size_t f = 0; f < length; ++f) {
            std::vector<pc::Detection> frame;
            const std::size_t n = empty_stretch ? 0 : rng.uniform_index(6);
            for (std::size_t k = 0; k < n; ++k) {
              geo::EnuPoint at;
              if (rng.bernoulli(0.8)) {
                at = persons[rng.uniform_index(persons.size())];
                at.east_m += 0.5 * static_cast<double>(rng.uniform_index(3));
              } else {
                at = {static_cast<double>(rng.uniform_index(41)),
                      static_cast<double>(rng.uniform_index(41)), 0.0};
              }
              frame.push_back(det_at(at.east_m, at.north_m,
                                     rng.uniform(0.1, 1.0)));
            }
            const std::size_t before = reference.tracks().size();
            tracker.update(frame);
            reference.update(frame);
            ++frames_checked;
            tracks_seen += reference.tracks().size();
            if (reference.tracks().size() < before) ++culling_frames;

            const std::string diff =
                track_diff(reference.tracks(), tracker.tracks());
            ASSERT_EQ(diff, "") << where << " frame " << reference.frames();
            ASSERT_EQ(track_diff(reference.confirmed(), tracker.confirmed()),
                      "")
                << where << " frame " << reference.frames();
            ASSERT_EQ(tracker.frames_processed(), reference.frames());
          }
        }
        gate_ties += reference.gate_ties();
      }
    }
  }
  // The sequences must exercise what they are meant to: populated track
  // lists, tracks dying, and exact gate ties.
  EXPECT_GT(frames_checked, 10000u);
  EXPECT_GT(tracks_seen, frames_checked);
  EXPECT_GT(culling_frames, 100u);
  EXPECT_GT(gate_ties, 100u);
}
