#include "sesame/platform/recovery.hpp"

#include <cmath>
#include <stdexcept>

namespace sesame::platform {

RecoveryManager::RecoveryManager(std::vector<std::string> uavs,
                                 RecoveryConfig config, RecoveryHooks hooks)
    : uavs_(std::move(uavs)), config_(config), hooks_(std::move(hooks)) {
  if (uavs_.empty()) {
    throw std::invalid_argument("RecoveryManager: no vehicles");
  }
  if (config_.staleness_window_s <= 0.0 || config_.ping_timeout_s <= 0.0 ||
      config_.demote_grace_s <= 0.0 || config_.rth_timeout_s <= 0.0 ||
      config_.ping_backoff < 1.0) {
    throw std::invalid_argument("RecoveryManager: non-positive bound");
  }
  tracks_.resize(uavs_.size());
}

void RecoveryManager::attach_observability(obs::Observability* o) {
  obs_ = o;
  ping_counters_.assign(uavs_.size(), nullptr);
  demote_counters_.assign(uavs_.size(), nullptr);
  rth_counters_.assign(uavs_.size(), nullptr);
  lost_counter_ = nullptr;
  recovered_counter_ = nullptr;
  if (o == nullptr) return;
  lost_counter_ = &o->metrics.counter("sesame.platform.uav_lost_total");
  recovered_counter_ =
      &o->metrics.counter("sesame.platform.recovery_recovered_total");
  for (std::size_t i = 0; i < uavs_.size(); ++i) {
    const auto& name = uavs_[i];
    ping_counters_[i] = &o->metrics.counter(
        "sesame.platform.recovery_pings_total", {{"uav", name}});
    demote_counters_[i] = &o->metrics.counter(
        "sesame.platform.recovery_demotions_total", {{"uav", name}});
    rth_counters_[i] = &o->metrics.counter(
        "sesame.platform.rth_commanded_total", {{"uav", name}});
  }
}

void RecoveryManager::emit(const char* event, std::size_t i, double now_s) {
  if (obs_ == nullptr) return;
  obs_->tracer.event(std::string("sesame.recovery.") + event,
                     {{"uav", uavs_[i]}, {"t_s", obs::attr_value(now_s)}});
}

std::vector<std::string> RecoveryManager::lost_uavs() const {
  std::vector<std::string> lost;
  for (std::size_t i = 0; i < uavs_.size(); ++i) {
    if (tracks_[i].state == RecoveryState::kLost) lost.push_back(uavs_[i]);
  }
  return lost;
}

void RecoveryManager::step(double now_s, const StalenessFn& staleness) {
  for (std::size_t i = 0; i < uavs_.size(); ++i) {
    Track& track = tracks_[i];
    if (track.state == RecoveryState::kLost) continue;  // terminal

    if (staleness(i) <= config_.staleness_window_s) {
      if (track.state != RecoveryState::kHealthy) {
        // Single re-arm on recovery: one hook call per outage, however many
        // escalation steps it climbed.
        track.state = RecoveryState::kHealthy;
        track.pings = 0;
        ++recoveries_;
        if (recovered_counter_ != nullptr) recovered_counter_->inc();
        emit("recovered", i, now_s);
        if (hooks_.recovered) hooks_.recovered(i);
      }
      continue;
    }
    escalate(i, now_s);
  }
}

void RecoveryManager::escalate(std::size_t i, double now_s) {
  Track& track = tracks_[i];
  switch (track.state) {
    case RecoveryState::kHealthy:
      track.state = RecoveryState::kPinging;
      track.times.detect_s = now_s;
      track.pings = 1;
      track.deadline_s = now_s + config_.ping_timeout_s;
      ++pings_sent_;
      if (i < ping_counters_.size() && ping_counters_[i] != nullptr) {
        ping_counters_[i]->inc();
      }
      emit("ping", i, now_s);
      if (hooks_.ping) hooks_.ping(i);
      break;

    case RecoveryState::kPinging:
      if (now_s < track.deadline_s) break;
      if (track.pings < config_.max_pings) {
        track.deadline_s =
            now_s + config_.ping_timeout_s *
                        std::pow(config_.ping_backoff,
                                 static_cast<double>(track.pings));
        ++track.pings;
        ++pings_sent_;
        if (i < ping_counters_.size() && ping_counters_[i] != nullptr) {
          ping_counters_[i]->inc();
        }
        emit("ping", i, now_s);
        if (hooks_.ping) hooks_.ping(i);
      } else {
        track.state = RecoveryState::kDemoted;
        track.deadline_s = now_s + config_.demote_grace_s;
        ++demotions_;
        if (i < demote_counters_.size() && demote_counters_[i] != nullptr) {
          demote_counters_[i]->inc();
        }
        emit("demote", i, now_s);
        if (hooks_.demote) hooks_.demote(i);
      }
      break;

    case RecoveryState::kDemoted:
      if (now_s < track.deadline_s) break;
      track.state = RecoveryState::kRthCommanded;
      track.deadline_s = now_s + config_.rth_timeout_s;
      ++rth_commands_;
      if (i < rth_counters_.size() && rth_counters_[i] != nullptr) {
        rth_counters_[i]->inc();
      }
      emit("rth_commanded", i, now_s);
      if (hooks_.command_rth) hooks_.command_rth(i);
      break;

    case RecoveryState::kRthCommanded:
      if (now_s < track.deadline_s) break;
      track.state = RecoveryState::kLost;
      track.times.lost_s = now_s;
      if (lost_counter_ != nullptr) lost_counter_->inc();
      emit("uav_lost", i, now_s);
      if (hooks_.declare_lost) hooks_.declare_lost(i);
      break;

    case RecoveryState::kLost:
      break;  // unreachable: filtered by step()
  }
}

}  // namespace sesame::platform
