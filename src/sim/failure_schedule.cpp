#include "sesame/sim/failure_schedule.hpp"

#include <algorithm>
#include <stdexcept>

#include "sesame/mathx/rng.hpp"

namespace sesame::sim {

std::string failure_mode_name(FailureMode m) {
  switch (m) {
    case FailureMode::kMotorDegradation: return "motor_degradation";
    case FailureMode::kSensorDropout: return "sensor_dropout";
    case FailureMode::kBatteryCellFault: return "battery_cell_fault";
    case FailureMode::kCommsBlackout: return "comms_blackout";
    case FailureMode::kHardCrash: return "hard_crash";
  }
  return "unknown";
}

FailureMode failure_mode_from_name(const std::string& name);

FailureMode failure_mode_from_name(const std::string& name) {
  for (const FailureMode m :
       {FailureMode::kMotorDegradation, FailureMode::kSensorDropout,
        FailureMode::kBatteryCellFault, FailureMode::kCommsBlackout,
        FailureMode::kHardCrash}) {
    if (failure_mode_name(m) == name) return m;
  }
  throw std::invalid_argument("failure_mode_from_name: unknown mode '" + name +
                              "'");
}

void FailureSchedule::sort() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FailureEvent& a, const FailureEvent& b) {
                     if (a.time_s != b.time_s) return a.time_s < b.time_s;
                     if (a.uav != b.uav) return a.uav < b.uav;
                     return static_cast<int>(a.mode) < static_cast<int>(b.mode);
                   });
}

double FailureSchedule::first_event_time_s() const {
  if (events.empty()) return -1.0;
  double first = events.front().time_s;
  for (const auto& e : events) first = std::min(first, e.time_s);
  return first;
}

FailureSchedule FailureSchedule::chaos(std::uint64_t seed,
                                       const std::vector<std::string>& uavs,
                                       const ChaosProfile& profile) {
  if (profile.latest_time_s < profile.earliest_time_s ||
      profile.max_duration_s < profile.min_duration_s) {
    throw std::invalid_argument("FailureSchedule::chaos: inverted range");
  }
  mathx::Rng rng(seed);
  const std::vector<double> weights(std::begin(profile.weights),
                                    std::end(profile.weights));
  FailureSchedule schedule;
  std::size_t crashes = 0;
  for (const auto& uav : uavs) {
    const std::size_t n = static_cast<std::size_t>(
        rng.uniform_index(profile.max_events_per_uav + 1));
    for (std::size_t i = 0; i < n; ++i) {
      FailureEvent e;
      e.uav = uav;
      e.mode = static_cast<FailureMode>(rng.categorical(weights));
      if (e.mode == FailureMode::kHardCrash) {
        if (crashes >= profile.max_hard_crashes) {
          // Crash budget exhausted: degrade to a comms blackout, which
          // exercises the same detection path without downing the fleet.
          e.mode = FailureMode::kCommsBlackout;
        } else {
          ++crashes;
        }
      }
      e.time_s = rng.uniform(profile.earliest_time_s, profile.latest_time_s);
      e.duration_s =
          rng.uniform(profile.min_duration_s, profile.max_duration_s);
      e.soc_after = rng.uniform(0.25, 0.50);
      e.temp_c = rng.uniform(65.0, 80.0);
      schedule.events.push_back(std::move(e));
    }
  }
  schedule.sort();
  return schedule;
}

// Drops every message a blacked-out vehicle publishes (its radio is dead)
// and every message addressed to its C2 topics (the uplink is the same
// radio): telemetry, position fixes, pings. Pure time-window logic — no
// randomness, so the gate never perturbs any other stream.
//
// The rule is by name, but a publication is answered by its interned
// source and topic ids: each id's verdict is computed from the name rule
// once and memoised until the set of blacked-out vehicles changes.
class FailureInjector::BlackoutGate : public mw::DeliveryPolicy {
 public:
  mw::FaultDecision decide(const mw::MessageHeader& header) override {
    mw::FaultDecision d;
    if (active_.empty()) return d;
    d.drop = memoised(source_verdicts_, header.source_id.index(),
                      [&](const std::string& uav) {
                        return header.source == uav;
                      }) ||
             memoised(topic_verdicts_, header.topic_id.index(),
                      [&](const std::string& uav) {
                        return topic_of(header.topic, uav);
                      });
    return d;
  }

  /// Replaces the blacked-out vehicles; the memo survives when the set
  /// is unchanged.
  void set_active(std::vector<std::string> names) {
    if (names == active_) return;
    active_ = std::move(names);
    source_verdicts_.clear();
    topic_verdicts_.clear();
  }

 private:
  enum Verdict : std::uint8_t { kUnknown, kPass, kDrop };

  /// The verdict for one interned id: whether `matches` holds for any
  /// blacked-out vehicle, computed on the id's first publication.
  template <typename Match>
  bool memoised(std::vector<std::uint8_t>& verdicts, std::uint32_t index,
                const Match& matches) {
    if (index >= verdicts.size()) verdicts.resize(index + 1, kUnknown);
    std::uint8_t& v = verdicts[index];
    if (v == kUnknown) {
      v = std::any_of(active_.begin(), active_.end(), matches) ? kDrop : kPass;
    }
    return v == kDrop;
  }

  static bool topic_of(std::string_view topic, const std::string& uav) {
    // "uav/<name>/..." — any channel of the vehicle rides its radio.
    if (!topic.starts_with("uav/")) return false;
    const std::string_view rest = topic.substr(4);
    return rest.size() > uav.size() && rest.substr(0, uav.size()) == uav &&
           rest[uav.size()] == '/';
  }

  std::vector<std::string> active_;
  std::vector<std::uint8_t> source_verdicts_;  ///< by SourceId index
  std::vector<std::uint8_t> topic_verdicts_;   ///< by TopicId index
};

FailureInjector::FailureInjector(World& world, FailureSchedule schedule)
    : world_(&world), schedule_(std::move(schedule)) {
  schedule_.sort();
  event_uav_.reserve(schedule_.events.size());
  for (const auto& e : schedule_.events) {
    // Throws on a schedule naming unknown UAVs.
    event_uav_.push_back(world_->uav_by_name(e.uav).fleet_index());
    if (e.time_s < 0.0) {
      throw std::invalid_argument("FailureInjector: negative event time");
    }
  }
  const bool any_blackout = std::any_of(
      schedule_.events.begin(), schedule_.events.end(), [](const auto& e) {
        return e.mode == FailureMode::kCommsBlackout;
      });
  if (any_blackout) {
    gate_ = std::make_unique<BlackoutGate>();
    gate_sub_ = world_->bus().add_delivery_policy(gate_.get());
  }
}

FailureInjector::~FailureInjector() = default;

bool FailureInjector::comms_blacked_out(std::size_t uav) const {
  for (const auto& o : outages_) {
    if (o.mode == FailureMode::kCommsBlackout && o.uav == uav) return true;
  }
  return false;
}

std::size_t FailureInjector::step(double now_s) {
  // Expire finished outages first so a dropout ending exactly when another
  // begins hands over cleanly.
  for (std::size_t i = 0; i < outages_.size();) {
    const Outage o = outages_[i];
    if (!o.forever && now_s >= o.until_s) {
      outages_.erase(outages_.begin() + static_cast<std::ptrdiff_t>(i));
      if (o.mode == FailureMode::kCommsBlackout) blackouts_changed_ = true;
      // A concurrent dropout on the same vehicle keeps it blind.
      const auto blinds = [&o](const Outage& other) {
        return other.mode == FailureMode::kSensorDropout && other.uav == o.uav;
      };
      if (o.mode == FailureMode::kSensorDropout &&
          std::none_of(outages_.begin(), outages_.end(), blinds)) {
        world_->uav(o.uav).set_vision_sensor_healthy(true);
      }
      continue;
    }
    ++i;
  }

  std::size_t newly_applied = 0;
  while (next_event_ < schedule_.events.size() &&
         schedule_.events[next_event_].time_s <= now_s) {
    apply(schedule_.events[next_event_], event_uav_[next_event_], now_s);
    ++next_event_;
    ++applied_;
    ++newly_applied;
  }

  if (gate_ != nullptr && blackouts_changed_) {
    blackouts_changed_ = false;
    std::vector<std::string> active;
    for (const auto& o : outages_) {
      if (o.mode == FailureMode::kCommsBlackout) {
        active.push_back(world_->uav(o.uav).name());
      }
    }
    gate_->set_active(std::move(active));
  }
  return newly_applied;
}

void FailureInjector::apply(const FailureEvent& event, std::size_t i,
                            double now_s) {
  Uav& uav = world_->uav(i);
  switch (event.mode) {
    case FailureMode::kMotorDegradation:
      uav.fail_motor();
      break;
    case FailureMode::kSensorDropout:
      uav.set_vision_sensor_healthy(false);
      outages_.push_back({i, event.mode, now_s + event.duration_s,
                          event.duration_s <= 0.0});
      break;
    case FailureMode::kBatteryCellFault:
      // Only collapse downward: a fault cannot recharge the pack.
      uav.battery().inject_thermal_fault(
          std::min(event.soc_after, uav.battery().soc()), event.temp_c);
      break;
    case FailureMode::kCommsBlackout:
      outages_.push_back({i, event.mode, now_s + event.duration_s,
                          event.duration_s <= 0.0});
      blackouts_changed_ = true;
      break;
    case FailureMode::kHardCrash:
      world_->crash_uav(i);
      break;
  }
}

}  // namespace sesame::sim
