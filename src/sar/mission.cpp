#include "sesame/sar/mission.hpp"

#include <algorithm>
#include <stdexcept>

namespace sesame::sar {

double DetectionStats::precision() const {
  const std::size_t total = true_detections + false_alarms;
  if (total == 0) return 1.0;
  return static_cast<double>(true_detections) / static_cast<double>(total);
}

double DetectionStats::recall() const {
  if (persons_total == 0) return 1.0;
  return static_cast<double>(persons_found) / static_cast<double>(persons_total);
}

SarMission::SarMission(sim::World& world,
                       const std::vector<std::string>& uav_names,
                       std::vector<SweepPlan> plans,
                       perception::DetectorConfig detector)
    : world_(&world), detector_(detector) {
  if (uav_names.size() != plans.size() || uav_names.empty()) {
    throw std::invalid_argument("SarMission: UAV/plan count mismatch");
  }
  on_roster_.assign(world_->num_uavs(), 0);
  for (std::size_t i = 0; i < uav_names.size(); ++i) {
    sim::Uav& uav = world_->uav_by_name(uav_names[i]);
    active_uavs_.push_back(uav.fleet_index());
    on_roster_[uav.fleet_index()] = 1;
    uav.clear_waypoints();
    for (const auto& wp : plans[i].waypoints) uav.add_waypoint(wp);
  }
  stats_.persons_total = world_->persons().size();
}

void SarMission::enable_coverage_tracking(const Area& area, double cell_m) {
  tracker_.emplace(area, cell_m);
}

void SarMission::tick() {
  ++stats_.frames;
  last_tick_detectors_.clear();
  auto& persons = world_->persons();
  if (person_grid_.indexed_points() != persons.size()) {
    person_grid_.rebuild(persons.size(),
                         [&persons](std::size_t i) -> const geo::EnuPoint& {
                           return persons[i].position;
                         });
  }
  for (const std::size_t i : active_uavs_) {
    const sim::Uav& uav = world_->uav(i);
    if (!uav.airborne()) continue;
    if (!uav.vision_sensor_healthy()) continue;  // camera blind: no frames
    const auto fp = detector_.camera().footprint(uav.true_position());
    if (tracker_) tracker_->mark(fp);
    candidate_scratch_.clear();
    person_grid_.query_rect(fp.center_east_m - fp.half_width_m,
                            fp.center_east_m + fp.half_width_m,
                            fp.center_north_m - fp.half_height_m,
                            fp.center_north_m + fp.half_height_m,
                            candidate_scratch_);
    const auto detections = detector_.detect(uav.true_position(), persons,
                                             candidate_scratch_, world_->rng());
    if (!detections.empty()) last_tick_detectors_.push_back(i);
    for (const auto& d : detections) {
      if (d.person_index.has_value()) {
        ++stats_.true_detections;
        auto& person = persons[*d.person_index];
        if (!person.detected) {
          person.detected = true;
          ++stats_.persons_found;
        }
      } else {
        ++stats_.false_alarms;
      }
    }
  }
}

std::size_t SarMission::remaining_waypoints(std::size_t uav) const {
  return world_->uav(uav).waypoints_remaining();
}

std::size_t SarMission::total_remaining() const {
  std::size_t total = 0;
  for (const std::size_t i : active_uavs_) total += remaining_waypoints(i);
  return total;
}

bool SarMission::complete() const { return total_remaining() == 0; }

std::optional<std::size_t> SarMission::takeover_for(
    std::size_t failed_uav) const {
  std::optional<std::size_t> takeover;
  std::size_t best_load = ~std::size_t{0};
  for (const std::size_t i : active_uavs_) {
    if (i == failed_uav) continue;
    const sim::Uav& c = world_->uav(i);
    if (!c.airborne() || c.mode() == sim::FlightMode::kEmergencyLand ||
        c.mode() == sim::FlightMode::kReturnToBase) {
      continue;
    }
    if (c.waypoints_remaining() < best_load) {
      best_load = c.waypoints_remaining();
      takeover = i;
    }
  }
  return takeover;
}

std::size_t SarMission::redistribute(std::size_t failed_uav,
                                     std::size_t takeover_uav) {
  if (!active(failed_uav) || !active(takeover_uav) ||
      failed_uav == takeover_uav) {
    throw std::invalid_argument(
        "redistribute: UAVs " + std::to_string(failed_uav) + " -> " +
        std::to_string(takeover_uav) + " are not two distinct mission UAVs");
  }
  const std::size_t moved =
      world_->uav(failed_uav).transfer_waypoints_to(world_->uav(takeover_uav));
  leave_roster(failed_uav);
  return moved;
}

std::size_t SarMission::retire(std::size_t uav) {
  if (!active(uav)) {
    throw std::invalid_argument("retire: UAV " + std::to_string(uav) +
                                " is not on the mission roster");
  }
  sim::Uav& vehicle = world_->uav(uav);
  const std::size_t stranded = vehicle.waypoints_remaining();
  vehicle.clear_waypoints();
  leave_roster(uav);
  return stranded;
}

void SarMission::leave_roster(std::size_t uav) {
  active_uavs_.erase(
      std::find(active_uavs_.begin(), active_uavs_.end(), uav));
  on_roster_[uav] = 0;
}

}  // namespace sesame::sar
