// Multi-frame person tracking.
//
// The Collaborative Localization hardware stack (paper Fig. 2) pairs the
// detector with a "Detection & Tracking" module: raw per-frame detections
// are noisy and contain false alarms, so persons are only reported once a
// track accumulates enough consistent hits. This is a nearest-neighbour
// gating tracker: detections associate to the closest live track within a
// gate, tracks confirm after `confirm_hits` hits and die after
// `max_misses` frames without an update. Confirmed tracks are what the
// GCS plots as red dots (Fig. 4).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "sesame/perception/detector.hpp"

namespace sesame::perception {

struct TrackerConfig {
  /// Association gate: a detection joins a track when within this ground
  /// distance of the track's position estimate.
  double gate_m = 6.0;
  /// Hits before a track is reported as a confirmed person.
  std::size_t confirm_hits = 3;
  /// Consecutive frames without an update before a tentative track dies.
  /// Confirmed tracks are kept (persons do not vanish).
  std::size_t max_misses = 10;
};

struct Track {
  std::size_t id = 0;
  geo::EnuPoint position;      ///< running average of associated detections
  std::size_t hits = 0;
  std::size_t misses = 0;      ///< consecutive frames without an update
  bool confirmed = false;
  double last_confidence = 0.0;
};

class PersonTracker {
 public:
  explicit PersonTracker(TrackerConfig config = {});

  const TrackerConfig& config() const noexcept { return config_; }

  /// Ingests one frame of detections. Association is greedy
  /// nearest-neighbour in detection order; unmatched detections open new
  /// tentative tracks; unmatched tentative tracks age and die. An empty
  /// frame costs O(1): ages are derived from frame counts, and tracks that
  /// died are dropped when the next detection arrives or a query runs.
  void update(const std::vector<Detection>& detections);

  /// All live tracks (tentative + confirmed), oldest first.
  std::vector<Track> tracks() const;

  /// Confirmed tracks only (the reported persons).
  std::vector<Track> confirmed() const;

  std::size_t frames_processed() const noexcept { return frames_; }

 private:
  /// A track as stored: `track.misses` is not maintained; it is
  /// `frames_ - hit_frame`, materialised by the queries.
  struct Slot {
    Track track;
    std::size_t hit_frame = 0;  ///< frame of the last associated detection
  };

  /// A tentative track past `max_misses` is dead even while still stored.
  bool dead(const Slot& s) const noexcept {
    return !s.track.confirmed && frames_ - s.hit_frame > config_.max_misses;
  }
  Track materialise(const Slot& s) const;

  TrackerConfig config_;
  std::vector<Slot> slots_;  ///< creation order; may hold dead tracks
  std::size_t next_id_ = 0;
  std::size_t frames_ = 0;
};

}  // namespace sesame::perception
