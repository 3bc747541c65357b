#include "sesame/sim/failure_schedule.hpp"

#include <algorithm>
#include <map>
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
// The rule is by name, but only vehicles with a scheduled blackout can
// ever match it. A publication is answered by its interned source and
// topic ids: each id is resolved to the vehicles it names once, on its
// first publication, and the verdict then reads per-vehicle blackout
// counts (counts, not flags: two blackouts of one vehicle may overlap).
class FailureInjector::BlackoutGate : public mw::DeliveryPolicy {
 public:
  /// `vehicles`: name -> fleet index of every vehicle that may black out.
  explicit BlackoutGate(
      std::map<std::string, std::size_t, std::less<>> vehicles)
      : vehicles_(std::move(vehicles)) {
    for (const auto& [name, uav] : vehicles_) {
      counts_.resize(std::max(counts_.size(), uav + 1), 0);
    }
  }

  mw::FaultDecision decide(const mw::MessageHeader& header) override {
    mw::FaultDecision d;
    if (active_ == 0) return d;
    d.drop = any_blacked_out(resolved(source_lists_, header.source_id.index(),
                                      [&] { match(header.source); })) ||
             any_blacked_out(resolved(topic_lists_, header.topic_id.index(),
                                      [&] { match_topic(header.topic); }));
    return d;
  }

  /// A blackout of `uav` (one of the constructor's vehicles) starts/ends.
  void begin(std::size_t uav) {
    ++counts_[uav];
    ++active_;
  }

  void end(std::size_t uav) {
    --counts_[uav];
    --active_;
  }

  bool blacked_out(std::size_t uav) const {
    return uav < counts_.size() && counts_[uav] > 0;
  }

 private:
  static constexpr std::uint32_t kUnresolved = ~std::uint32_t{0};

  /// The offset in pool_ of an id's match list, resolved on the id's
  /// first publication.
  template <typename Resolve>
  std::uint32_t resolved(std::vector<std::uint32_t>& lists,
                         std::uint32_t index, const Resolve& resolve) {
    if (index >= lists.size()) lists.resize(index + 1, kUnresolved);
    if (lists[index] == kUnresolved) {
      const auto list = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(0);
      resolve();
      const auto n = static_cast<std::uint32_t>(pool_.size() - list - 1);
      if (n == 0) {
        pool_.pop_back();  // no vehicle: share the empty list at offset 0
        lists[index] = 0;
      } else {
        pool_[list] = n;
        lists[index] = list;
      }
    }
    return lists[index];
  }

  bool any_blacked_out(std::uint32_t list) const {
    const std::uint32_t* const uavs = pool_.data() + list + 1;
    for (std::uint32_t k = 0; k < pool_[list]; ++k) {
      if (counts_[uavs[k]] > 0) return true;
    }
    return false;
  }

  /// Appends the vehicle named exactly `name`, if it may black out.
  void match(std::string_view name) {
    if (const auto it = vehicles_.find(name); it != vehicles_.end()) {
      pool_.push_back(static_cast<std::uint32_t>(it->second));
    }
  }

  /// "uav/<name>/..." — any channel of the vehicle rides its radio. Every
  /// prefix of the rest that ends before a '/' is a candidate name.
  void match_topic(std::string_view topic) {
    if (!topic.starts_with("uav/")) return;
    const std::string_view rest = topic.substr(4);
    for (auto slash = rest.find('/'); slash != std::string_view::npos;
         slash = rest.find('/', slash + 1)) {
      match(rest.substr(0, slash));
    }
  }

  std::map<std::string, std::size_t, std::less<>> vehicles_;
  std::vector<std::uint32_t> counts_;  ///< active blackouts by fleet index
  std::size_t active_ = 0;             ///< sum of counts_
  /// Match lists, each a count then that many fleet indices; offset 0
  /// holds the empty list.
  std::vector<std::uint32_t> pool_{0};
  std::vector<std::uint32_t> source_lists_;  ///< by SourceId index
  std::vector<std::uint32_t> topic_lists_;   ///< by TopicId index
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
  std::map<std::string, std::size_t, std::less<>> blackout_vehicles;
  for (std::size_t k = 0; k < schedule_.events.size(); ++k) {
    if (schedule_.events[k].mode == FailureMode::kCommsBlackout) {
      blackout_vehicles.emplace(schedule_.events[k].uav, event_uav_[k]);
    }
  }
  if (!blackout_vehicles.empty()) {
    gate_ = std::make_unique<BlackoutGate>(std::move(blackout_vehicles));
    gate_sub_ = world_->bus().add_delivery_policy(gate_.get());
  }
}

FailureInjector::~FailureInjector() = default;

bool FailureInjector::comms_blacked_out(std::size_t uav) const {
  return gate_ != nullptr && gate_->blacked_out(uav);
}

std::size_t FailureInjector::step(double now_s) {
  // Expire finished outages first so a dropout ending exactly when another
  // begins hands over cleanly.
  for (std::size_t i = 0; i < outages_.size();) {
    const Outage o = outages_[i];
    if (!o.forever && now_s >= o.until_s) {
      outages_.erase(outages_.begin() + static_cast<std::ptrdiff_t>(i));
      if (o.mode == FailureMode::kCommsBlackout) gate_->end(o.uav);
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
      gate_->begin(i);
      break;
    case FailureMode::kHardCrash:
      world_->crash_uav(i);
      break;
  }
}

}  // namespace sesame::sim
