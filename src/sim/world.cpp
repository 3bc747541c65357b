#include "sesame/sim/world.hpp"

#include <chrono>
#include <stdexcept>

namespace sesame::sim {

std::string telemetry_topic(const std::string& uav_name) {
  return "uav/" + uav_name + "/telemetry";
}

std::string position_fix_topic(const std::string& uav_name) {
  return "uav/" + uav_name + "/position_fix";
}

std::string ping_topic(const std::string& uav_name) {
  return "uav/" + uav_name + "/ping";
}

std::string health_topic(const std::string& uav_name) {
  return "uav/" + uav_name + "/health";
}

// Drops C2 traffic with probability 1 − link quality at the publishing
// UAV's current ground distance from the GCS. Each vehicle's fading and
// drop draws come from its *own* SplitMix64-derived stream (keyed by the
// vehicle's add-order index), so the world's random stream is untouched
// AND one vehicle's traffic volume never perturbs another vehicle's link
// draws: adding, crashing, or losing a vehicle mid-run leaves every other
// link sequence bit-identical — the property chaos campaigns rely on.
class World::LinkGate : public mw::DeliveryPolicy {
 public:
  static constexpr std::uint32_t kNotC2 = 0xFFFFFFFFu;

  LinkGate(World& world, const LossyLinkConfig& config)
      : world_(world), link_(config.link), gcs_(config.gcs_enu),
        seed_(config.seed) {}

  mw::FaultDecision decide(const mw::MessageHeader& header) override {
    mw::FaultDecision d;
    const std::uint32_t index = uav_for_topic(header);
    if (index == kNotC2) return d;  // not C2 traffic
    mathx::Rng& rng = stream_for(index);
    const Uav& uav = *world_.uavs_[index].uav;
    const double distance_m =
        geo::enu_ground_distance_m(uav.true_position(), gcs_);
    const double quality = link_.sample_quality(distance_m, rng);
    world_.fleet_.link_quality[index] = quality;
    d.drop = rng.bernoulli(1.0 - quality);
    return d;
  }

 private:
  /// The vehicle's decoupled link stream, created on first use.
  mathx::Rng& stream_for(std::uint32_t index) {
    while (streams_.size() <= index) {
      streams_.emplace_back(derive_stream_seed(seed_, streams_.size()));
    }
    return streams_[index];
  }

  /// Resolves "uav/<name>/telemetry" and "uav/<name>/position_fix" to the
  /// index of the UAV whose link the message rides; kNotC2 for any other
  /// topic. The per-TopicId resolution is memoised: steady-state C2
  /// traffic costs one indexed load here, not a topic-string parse.
  std::uint32_t uav_for_topic(const mw::MessageHeader& header) {
    const std::uint32_t idx = header.topic_id.index();
    if (idx < cache_.size() && cache_[idx].known) return cache_[idx].uav_index;
    const std::string_view topic = header.topic;
    bool cacheable = true;
    const std::uint32_t uav_index = parse_topic(topic, cacheable);
    if (cacheable && header.topic_id.valid()) {
      if (cache_.size() <= idx) cache_.resize(idx + 1);
      cache_[idx] = {true, uav_index};
    }
    return uav_index;
  }

  /// `cacheable` is cleared for topics that *look like* C2 traffic but name
  /// an unknown UAV — one added later must not inherit a stale miss.
  std::uint32_t parse_topic(std::string_view topic, bool& cacheable) const {
    if (!topic.starts_with("uav/")) return kNotC2;
    const auto slash = topic.find('/', 4);
    if (slash == std::string_view::npos) return kNotC2;
    const std::string_view suffix = topic.substr(slash);
    if (suffix != "/telemetry" && suffix != "/position_fix") return kNotC2;
    const std::string_view name = topic.substr(4, slash - 4);
    if (const auto it = world_.uav_index_.find(name);
        it != world_.uav_index_.end()) {
      return static_cast<std::uint32_t>(it->second);
    }
    cacheable = false;
    return kNotC2;
  }

  struct CacheSlot {
    bool known = false;
    std::uint32_t uav_index = kNotC2;
  };

  World& world_;
  CommLink link_;
  geo::EnuPoint gcs_;
  std::uint64_t seed_;
  std::vector<mathx::Rng> streams_;  ///< indexed by vehicle add-order
  std::vector<CacheSlot> cache_;     ///< indexed by TopicId
};

World::World(const geo::GeoPoint& origin, std::uint64_t seed)
    : frame_(origin), rng_(seed) {}

// Out-of-line: LinkGate is incomplete in the header.
World::~World() {
  // Teardown half of the reset contract: in-flight delayed deliveries must
  // not survive the run that published them.
  bus_.clear_delayed();
}
World::World(World&&) noexcept = default;

void World::enable_lossy_links(const LossyLinkConfig& config) {
  if (link_gate_ != nullptr) {
    throw std::logic_error("World::enable_lossy_links: already enabled");
  }
  link_gate_ = std::make_unique<LinkGate>(*this, config);
  link_gate_sub_ = bus_.add_delivery_policy(link_gate_.get());
}

std::size_t World::add_uav(UavConfig config, const geo::GeoPoint& home) {
  if (uav_index_.contains(config.name)) {
    throw std::invalid_argument("World::add_uav: duplicate name " + config.name);
  }
  Slot slot;
  const std::size_t fleet_index = fleet_.add({0.0, 0.0, 0.0}, 1.0);
  slot.uav = std::make_unique<Uav>(std::move(config), frame_, home, rng_,
                                   fleet_, fleet_index);
  Uav* raw = slot.uav.get();
  uav_grid_stale_ = true;
  // The fix channel is trusted verbatim — the deliberate vulnerability.
  slot.fix_subscription = bus_.subscribe<geo::GeoPoint>(
      position_fix_topic(raw->name()),
      [raw](const mw::MessageHeader&, const geo::GeoPoint& fix) {
        raw->correct_estimate(fix);
      });
  slot.telemetry_topic = bus_.intern_topic(telemetry_topic(raw->name()));
  slot.health_topic = bus_.intern_topic(health_topic(raw->name()));
  slot.source = bus_.intern_source(raw->name());
  // Liveness ping: a reachable vehicle answers with an immediate telemetry
  // publication (the pong rides the same lossy C2 link as everything else).
  // The ping itself is droppable too — a blacked-out vehicle never hears it.
  const std::size_t index = uavs_.size();
  slot.ping_subscription = bus_.subscribe<double>(
      ping_topic(raw->name()),
      [this, index](const mw::MessageHeader&, const double&) {
        const Slot& s = uavs_[index];
        if (s.uav->mode() != FlightMode::kCrashed) publish_telemetry(s);
      });
  uav_index_.emplace(raw->name(), uavs_.size());
  uavs_.push_back(std::move(slot));
  return uavs_.size() - 1;
}

void World::enable_health_heartbeats(double period_s) {
  if (period_s <= 0.0) {
    throw std::invalid_argument(
        "World::enable_health_heartbeats: non-positive period");
  }
  heartbeat_period_s_ = period_s;
  next_heartbeat_s_ = time_s_ + period_s;
}

void World::crash_uav(std::size_t i) {
  Slot& slot = uavs_.at(i);
  if (slot.uav->mode() == FlightMode::kCrashed) return;
  slot.uav->force_crash();
  slot.fix_subscription.reset();
  slot.ping_subscription.reset();
  drop_pending_from(i);
}

std::size_t World::drop_pending_from(std::size_t i) {
  return bus_.clear_delayed(uavs_.at(i).source);
}

Uav& World::uav_by_name(const std::string& name) {
  if (const auto it = uav_index_.find(name); it != uav_index_.end()) {
    return *uavs_[it->second].uav;
  }
  throw std::out_of_range("World::uav_by_name: " + name);
}

void World::add_person(const geo::EnuPoint& position) {
  persons_.push_back(Person{position, false});
}

std::size_t World::persons_detected() const {
  std::size_t n = 0;
  for (const auto& p : persons_) {
    if (p.detected) ++n;
  }
  return n;
}

void World::set_metrics(obs::MetricsRegistry* registry) {
  bus_.set_metrics(registry);
  if (registry == nullptr) {
    step_duration_ = nullptr;
    steps_total_ = nullptr;
    clock_gauge_ = nullptr;
    return;
  }
  step_duration_ = &registry->histogram("sesame.sim.step_duration_seconds", {},
                                        obs::duration_buckets_s());
  steps_total_ = &registry->counter("sesame.sim.steps_total");
  clock_gauge_ = &registry->gauge("sesame.sim.time_s");
}

void World::step(double dt_s) {
  if (dt_s <= 0.0) throw std::invalid_argument("World::step: non-positive dt");
  const auto t0 = step_duration_ != nullptr
                      ? std::chrono::steady_clock::now()
                      : std::chrono::steady_clock::time_point{};
  // Delayed messages mature on the step boundary so a "delay by N steps"
  // fault means exactly N calls to step(), independent of wall time.
  bus_.drain_delayed();
  // Phase 1: batched guidance. plan() is RNG-free and reads only the
  // vehicle's own previous-step state, so running it fleet-wide first is
  // result-identical to the old fused per-vehicle loop while streaming the
  // guidance arithmetic over the contiguous fleet arrays.
  for (auto& slot : uavs_) {
    slot.uav->plan(dt_s);
  }
  // Phase 2: stochastic pass in vehicle order — gusts, motion, GPS,
  // battery. The fleet-wide RNG draw sequence matches the pre-split
  // simulation bit-for-bit.
  for (auto& slot : uavs_) {
    slot.uav->integrate(dt_s, wind_);
  }
  time_s_ += dt_s;
  uav_grid_stale_ = true;
  for (auto& slot : uavs_) {
    // A wreck's radio is dead: no telemetry, no heartbeats.
    if (slot.uav->mode() == FlightMode::kCrashed) continue;
    publish_telemetry(slot);
  }
  if (heartbeat_period_s_ > 0.0 && time_s_ >= next_heartbeat_s_) {
    for (auto& slot : uavs_) {
      const Uav& u = *slot.uav;
      if (u.mode() == FlightMode::kCrashed) continue;
      HealthHeartbeat hb;
      hb.uav = u.name();
      hb.time_s = time_s_;
      hb.mode = u.mode();
      hb.motors_failed = u.motors_failed();
      hb.vision_sensor_healthy = u.vision_sensor_healthy();
      hb.battery_soc = u.battery().soc();
      hb.battery_fault = u.battery().fault_active();
      bus_.publish(slot.health_topic, hb, slot.source, time_s_);
    }
    while (next_heartbeat_s_ <= time_s_) next_heartbeat_s_ += heartbeat_period_s_;
  }
  if (step_duration_ != nullptr) {
    step_duration_->observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    steps_total_->inc();
    clock_gauge_->set(time_s_);
  }
}

void World::publish_telemetry(const Slot& slot) {
  const Uav& u = *slot.uav;
  Telemetry t;
  t.uav = u.name();
  t.reported_position = u.estimated_geo();
  t.altitude_m = u.true_position().up_m;
  t.battery_soc = u.battery().soc();
  t.battery_temp_c = u.battery().temperature_c();
  t.mode = u.mode();
  t.time_s = time_s_;
  t.gps_fix = !u.gps().signal_lost() && !u.gps().disabled();
  bus_.publish(slot.telemetry_topic, t, slot.source, time_s_);
}

void World::run(std::size_t n, double dt_s) {
  for (std::size_t i = 0; i < n; ++i) step(dt_s);
}

bool World::has_neighbor_within(std::size_t i, double radius_m,
                                bool airborne_only) {
  if (i >= uavs_.size()) {
    throw std::out_of_range("World::has_neighbor_within: bad index");
  }
  if (radius_m <= 0.0) return false;
  if (uav_grid_stale_) {
    uav_grid_.rebuild(fleet_.size(),
                      [this](std::size_t j) -> const geo::EnuPoint& {
                        return fleet_.true_pos[j];
                      });
    uav_grid_stale_ = false;
  }
  const geo::EnuPoint& p = fleet_.true_pos[i];
  neighbor_scratch_.clear();
  // A ground-plane window of the query radius over-approximates the 3-D
  // ball; candidates get the exact distance test below.
  uav_grid_.query_rect(p.east_m - radius_m, p.east_m + radius_m,
                       p.north_m - radius_m, p.north_m + radius_m,
                       neighbor_scratch_);
  for (const std::uint32_t j : neighbor_scratch_) {
    if (j == i) continue;
    if (airborne_only && !uavs_[j].uav->airborne()) continue;
    if (geo::enu_distance_m(fleet_.true_pos[j], p) < radius_m) return true;
  }
  return false;
}

}  // namespace sesame::sim
