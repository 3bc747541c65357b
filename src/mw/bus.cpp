#include "sesame/mw/bus.hpp"

#include <vector>

namespace sesame::mw {

TopicId Bus::intern_topic(std::string_view name) {
  if (const auto it = topic_index_.find(name); it != topic_index_.end()) {
    return TopicId(it->second);
  }
  const auto index = static_cast<std::uint32_t>(topic_names_.size());
  topic_names_.emplace_back(name);
  topic_index_.emplace(topic_names_.back(), index);
  topics_.emplace_back();
  return TopicId(index);
}

SourceId Bus::intern_source(std::string_view name) {
  if (const auto it = source_index_.find(name); it != source_index_.end()) {
    return SourceId(it->second);
  }
  const auto index = static_cast<std::uint32_t>(source_names_.size());
  source_names_.emplace_back(name);
  source_index_.emplace(source_names_.back(), index);
  return SourceId(index);
}

Subscription Bus::add_tap(TapFn tap) {
  const std::uint64_t id = next_sub_id_++;
  taps_.push_back(TapEntry{id, std::move(tap), epoch_, kLive});
  return Subscription(this, Subscription::Kind::kTap, TopicId(), id);
}

Subscription Bus::add_delivery_policy(DeliveryPolicy* policy) {
  if (policy == nullptr) {
    throw std::invalid_argument("Bus::add_delivery_policy: null policy");
  }
  const std::uint64_t id = next_sub_id_++;
  policies_.push_back(PolicyEntry{id, policy, epoch_, kLive});
  return Subscription(this, Subscription::Kind::kPolicy, TopicId(), id);
}

std::size_t Bus::drain_delayed() {
  if (delayed_.empty()) return 0;
  // Collect the due batch first: delivering may publish (and so enqueue)
  // further delayed messages, which must not be touched mid-iteration.
  std::vector<Delayed> due;
  for (auto it = delayed_.begin(); it != delayed_.end();) {
    if (--it->steps_left == 0) {
      due.push_back(std::move(*it));
      it = delayed_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& d : due) d.deliver(*this);
  return due.size();
}

void Bus::restrict_publisher(std::string_view topic, std::string_view source) {
  const TopicId t = intern_topic(topic);
  const SourceId s = intern_source(source);
  topics_[t.index_].allowed_source = s.index_;
}

std::size_t Bus::subscriber_count(std::string_view topic) const {
  const auto it = topic_index_.find(topic);
  return it == topic_index_.end() ? 0 : subscriber_count(TopicId(it->second));
}

std::size_t Bus::subscriber_count(TopicId topic) const {
  std::size_t n = 0;
  for (const auto& e : topics_[topic.index_].subscribers) {
    if (e.died == kLive) ++n;
  }
  return n;
}

void Bus::scan_subscriber_types(const TopicState& ts, std::type_index type,
                                const char* type_name,
                                std::string_view topic) const {
  for (const auto& e : ts.subscribers) {
    if (e.died != kLive) continue;  // unsubscribed, pending compaction
    if (e.type != type) {
      throw std::runtime_error("Bus: type mismatch on topic '" +
                               std::string(topic) + "': published " +
                               type_name +
                               " but a subscriber expects a different type");
    }
  }
}

void Bus::remove_registration(Subscription::Kind kind, TopicId topic,
                              std::uint64_t id) {
  switch (kind) {
    case Subscription::Kind::kSubscriber: {
      TopicState& ts = topics_[topic.index_];
      for (auto it = ts.subscribers.begin(); it != ts.subscribers.end();
           ++it) {
        if (it->id != id) continue;
        if (fanout_depth_ == 0) {
          ts.subscribers.erase(it);  // ordered: survivors keep their order
        } else {
          it->died = epoch_;  // still sees the in-flight message
          ts.has_tombstones = true;
          tombstones_pending_ = true;
        }
        return;
      }
      return;
    }
    case Subscription::Kind::kTap: {
      for (auto it = taps_.begin(); it != taps_.end(); ++it) {
        if (it->id != id) continue;
        if (fanout_depth_ == 0) {
          taps_.erase(it);
        } else {
          it->died = epoch_;
          taps_tombstoned_ = true;
          tombstones_pending_ = true;
        }
        return;
      }
      return;
    }
    case Subscription::Kind::kPolicy: {
      for (auto it = policies_.begin(); it != policies_.end(); ++it) {
        if (it->id != id) continue;
        if (fanout_depth_ == 0) {
          policies_.erase(it);
        } else {
          it->died = epoch_;
          policies_tombstoned_ = true;
          tombstones_pending_ = true;
        }
        return;
      }
      return;
    }
  }
}

void Bus::compact() {
  // Order-preserving sweeps: delivery order must survive unsubscribes.
  if (taps_tombstoned_) {
    std::erase_if(taps_, [](const TapEntry& t) { return t.died != kLive; });
    taps_tombstoned_ = false;
  }
  if (policies_tombstoned_) {
    std::erase_if(policies_,
                  [](const PolicyEntry& p) { return p.died != kLive; });
    policies_tombstoned_ = false;
  }
  for (TopicState& ts : topics_) {
    if (!ts.has_tombstones) continue;
    std::erase_if(ts.subscribers,
                  [](const Entry& e) { return e.died != kLive; });
    ts.has_tombstones = false;
  }
  tombstones_pending_ = false;
}

void Bus::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  for (TopicState& ts : topics_) {  // cached pointers belong to the old registry
    ts.instruments = TopicInstruments{};
    ts.instruments_ready = false;
    ts.fanouts = 0;
  }
  rejected_counter_ =
      metrics_ != nullptr ? &metrics_->counter("sesame.mw.rejected_total")
                          : nullptr;
}

Bus::TopicInstruments& Bus::resolve_instruments(TopicId topic) {
  TopicState& ts = topics_[topic.index_];
  const obs::Labels labels{{"topic", topic_names_[topic.index_]}};
  ts.instruments.publish = &metrics_->counter("sesame.mw.publish_total", labels);
  ts.instruments.deliver = &metrics_->counter("sesame.mw.deliver_total", labels);
  ts.instruments.latency =
      &metrics_->histogram("sesame.mw.delivery_latency_seconds", labels);
  ts.instruments.dropped =
      &metrics_->counter("sesame.mw.fault_dropped_total", labels);
  ts.instruments.delayed =
      &metrics_->counter("sesame.mw.fault_delayed_total", labels);
  ts.instruments.duplicated =
      &metrics_->counter("sesame.mw.fault_duplicated_total", labels);
  ts.instruments_ready = true;
  return ts.instruments;
}

}  // namespace sesame::mw
