#include "sesame/perception/tracker.hpp"

#include <stdexcept>

namespace sesame::perception {

PersonTracker::PersonTracker(TrackerConfig config) : config_(config) {
  if (config_.gate_m <= 0.0 || config_.confirm_hits == 0 ||
      config_.max_misses == 0) {
    throw std::invalid_argument("PersonTracker: bad config");
  }
}

void PersonTracker::update(const std::vector<Detection>& detections) {
  if (detections.empty()) {
    ++frames_;  // every track misses this frame
    return;
  }
  // Tracks that died in earlier frames leave before association; the
  // removal is stable, so the survivors keep their order.
  std::erase_if(slots_, [this](const Slot& s) { return dead(s); });
  ++frames_;

  for (const auto& det : detections) {
    // Greedy nearest-neighbour association within the gate, preferring
    // tracks not yet updated this frame.
    std::size_t best = slots_.size();
    double best_d = config_.gate_m;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].hit_frame == frames_) continue;  // updated this frame
      const double d = geo::enu_ground_distance_m(slots_[i].track.position,
                                                  det.estimated_position);
      if (d <= best_d) {
        best_d = d;
        best = i;
      }
    }
    if (best < slots_.size()) {
      Slot& s = slots_[best];
      Track& t = s.track;
      // Running average sharpens the position as hits accumulate.
      const double n = static_cast<double>(t.hits);
      t.position.east_m =
          (t.position.east_m * n + det.estimated_position.east_m) / (n + 1.0);
      t.position.north_m =
          (t.position.north_m * n + det.estimated_position.north_m) / (n + 1.0);
      ++t.hits;
      t.last_confidence = det.confidence;
      if (t.hits >= config_.confirm_hits) t.confirmed = true;
      s.hit_frame = frames_;
    } else {
      Slot s;
      s.track.id = next_id_++;
      s.track.position = det.estimated_position;
      s.track.hits = 1;
      s.track.last_confidence = det.confidence;
      s.track.confirmed = config_.confirm_hits <= 1;
      s.hit_frame = frames_;
      slots_.push_back(s);
    }
  }
}

Track PersonTracker::materialise(const Slot& s) const {
  Track t = s.track;
  t.misses = frames_ - s.hit_frame;
  return t;
}

std::vector<Track> PersonTracker::tracks() const {
  std::vector<Track> out;
  for (const auto& s : slots_) {
    if (!dead(s)) out.push_back(materialise(s));
  }
  return out;
}

std::vector<Track> PersonTracker::confirmed() const {
  std::vector<Track> out;
  for (const auto& s : slots_) {
    if (s.track.confirmed) out.push_back(materialise(s));
  }
  return out;
}

}  // namespace sesame::perception
