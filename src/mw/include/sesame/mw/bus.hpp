// In-process typed publish/subscribe middleware.
//
// Stands in for ROS in the paper's architecture: UAV nodes, the ground
// control station, EDDIs and the IDS all communicate over named topics.
// Deliberately reproduces the property the paper exploits in its security
// scenario — *any* participant can publish to any topic (no authentication),
// so a spoofing node can inject falsified telemetry/waypoints. The IDS taps
// the bus through `add_tap` to inspect traffic.
//
// Topic interning (the hot-path design; see docs/PERFORMANCE.md):
//  - Every topic and source name is interned once into a handle table; a
//    `TopicId` / `SourceId` indexes flat per-topic state (subscribers, the
//    publisher ACL, cached metric instruments), so the steady-state publish
//    path does no string hashing, no map lookups and no allocation.
//  - The string-keyed `publish(topic, payload, source, time)` overload is a
//    compatibility shim that interns on first use; hot callers resolve
//    their ids once (`intern_topic` / `intern_source`) and publish through
//    the id overload.
//  - `MessageHeader` carries the interned ids plus string views into the
//    bus-owned name table (valid for the bus's lifetime) — no per-message
//    string copies.
//
// Delivery contract (single-threaded by design — the simulator steps the
// world deterministically, so fan-out is synchronous and in subscription
// order):
//  - Each publication runs the pipeline taps → ACL → type validation →
//    fault policies → delivery. Taps observe every attempt, in
//    registration order, so a tap is the one way to record the traffic;
//    the ACL drops unauthorized publications before subscribers;
//    subscriber payload types are validated *before* any handler runs;
//    registered `DeliveryPolicy` objects may then drop, delay, duplicate
//    or reorder the message (see fault_plan.hpp).
//  - Delivery order is subscription order, and unsubscribing never
//    reorders the remaining subscribers. (Removal is ordered rather than
//    swap-and-pop precisely to keep this guarantee — campaign reports are
//    bit-identical across optimisations only because fan-out order never
//    changes.)
//  - Re-entrancy: registries are iterated under a generation count instead
//    of being copied, so handlers may freely (un)subscribe, add taps, or
//    release their own Subscription mid-delivery. A handler or tap removed
//    during a fan-out still observes the in-flight message; one added
//    during a fan-out first observes the next message. A tap or handler
//    that publishes runs the inner publication to completion before the
//    outer fan-out resumes: taps registered before a publishing tap see
//    the outer message first, taps after it see the inner one first.
//    Delivery policies must not mutate the bus from inside decide().
//  - Delayed messages sit in a queue drained by `drain_delayed()` (called
//    once per `sim::World::step`); they are delivered to the subscribers
//    registered *at drain time*, with their original header.
#pragma once

#include <any>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <typeindex>

#include "sesame/obs/metrics.hpp"

namespace sesame::mw {

class Bus;

/// Opaque handle to an interned name (topic or source). Obtained from
/// Bus::intern_topic / Bus::intern_source; valid for that bus's lifetime.
/// A default-constructed id is invalid and belongs to no bus.
template <typename Tag>
class InternedId {
 public:
  constexpr InternedId() = default;

  constexpr bool valid() const noexcept { return index_ != kInvalid; }
  constexpr std::uint32_t index() const noexcept { return index_; }

  friend constexpr bool operator==(InternedId a, InternedId b) noexcept {
    return a.index_ == b.index_;
  }
  friend constexpr bool operator!=(InternedId a, InternedId b) noexcept {
    return a.index_ != b.index_;
  }

 private:
  friend class Bus;
  constexpr explicit InternedId(std::uint32_t index) noexcept
      : index_(index) {}
  static constexpr std::uint32_t kInvalid = 0xFFFFFFFFu;

  std::uint32_t index_ = kInvalid;
};

using TopicId = InternedId<struct TopicIdTag>;
using SourceId = InternedId<struct SourceIdTag>;

/// Metadata attached to every published message. The string views point
/// into the publishing bus's intern table: they stay valid for the bus's
/// lifetime, and copying a header never allocates.
struct MessageHeader {
  std::uint64_t seq = 0;        ///< bus-wide sequence number
  double time_s = 0.0;          ///< publisher's notion of mission time
  std::string_view source;      ///< publishing node name (unauthenticated!)
  std::string_view topic;
  TopicId topic_id;             ///< interned handle of `topic`
  SourceId source_id;           ///< interned handle of `source`
};

/// What a delivery policy decided for one accepted publication.
struct FaultDecision {
  bool drop = false;          ///< lose the message in flight
  std::size_t delay_steps = 0;  ///< 0 = deliver now; N = after N drains
  std::size_t duplicates = 0;   ///< extra copies delivered
  bool reorder = false;  ///< delayed copies jump ahead of earlier ones
};

/// Pluggable per-publication delivery fault model. Implementations must be
/// deterministic given the publication sequence (any randomness must come
/// from an owned seeded RNG) and must not mutate the bus from decide().
class DeliveryPolicy {
 public:
  virtual ~DeliveryPolicy() = default;
  virtual FaultDecision decide(const MessageHeader& header) = 0;
};

/// Token returned by subscribe/tap/policy registration; unsubscribes on
/// release. Holds the owning bus and the interned registration identity —
/// releasing one is a direct index into the bus's tables, no allocation
/// and no string lookup.
class Subscription {
 public:
  Subscription() = default;
  Subscription(Subscription&& o) noexcept
      : bus_(o.bus_), kind_(o.kind_), topic_(o.topic_), id_(o.id_) {
    o.bus_ = nullptr;
  }
  Subscription& operator=(Subscription&& o) noexcept {
    if (this != &o) {  // self-move must not release the live registration
      reset();
      bus_ = o.bus_;
      kind_ = o.kind_;
      topic_ = o.topic_;
      id_ = o.id_;
      o.bus_ = nullptr;
    }
    return *this;
  }
  Subscription(const Subscription&) = delete;
  Subscription& operator=(const Subscription&) = delete;
  ~Subscription() { reset(); }

  inline void reset();  // defined after Bus
  bool active() const noexcept { return bus_ != nullptr; }

 private:
  friend class Bus;
  enum class Kind : std::uint8_t { kSubscriber, kTap, kPolicy };
  Subscription(Bus* bus, Kind kind, TopicId topic, std::uint64_t id) noexcept
      : bus_(bus), kind_(kind), topic_(topic), id_(id) {}

  Bus* bus_ = nullptr;
  Kind kind_ = Kind::kSubscriber;
  TopicId topic_;  ///< meaningful for kSubscriber only
  std::uint64_t id_ = 0;
};

/// The message bus. Single-threaded by design; see the delivery contract
/// in the file header.
class Bus {
 public:
  /// Interns `name`, returning its stable handle (idempotent). The handle
  /// indexes this bus's flat topic table; resolve once, publish many.
  TopicId intern_topic(std::string_view name);
  SourceId intern_source(std::string_view name);

  /// The interned spelling behind a handle (bus-lifetime storage).
  const std::string& topic_name(TopicId topic) const {
    return topic_names_.at(topic.index_);
  }
  const std::string& source_name(SourceId source) const {
    return source_names_.at(source.index_);
  }

  /// Publishes a payload on `topic`. The payload type must match
  /// subscribers' expected type exactly; a mismatch throws
  /// std::runtime_error *before any handler runs* (it is a programming
  /// error, not an attack vector).
  ///
  /// When the topic carries a publisher restriction (restrict_publisher —
  /// the SROS2-style authentication mitigation), publications from any
  /// other source are dropped before reaching subscribers; taps (IDS)
  /// still observe the attempt, as a network IDS would.
  ///
  /// Registered delivery policies (add_delivery_policy) may drop, delay,
  /// duplicate or reorder the accepted message; without policies delivery
  /// is immediate and lossless.
  ///
  /// This id overload is the hot path: with no taps, policies or metrics
  /// attached, it performs no allocation and no string or map lookup of
  /// any kind.
  template <typename T>
  void publish(TopicId topic, const T& payload, SourceId source,
               double time_s) {
    TopicState& ts = topics_[topic.index_];
    MessageHeader h;
    h.seq = next_seq_++;
    h.time_s = time_s;
    h.source = source_names_[source.index_];
    h.topic = topic_names_[topic.index_];
    h.topic_id = topic;
    h.source_id = source;
    // Instrumentation rides the same point as the taps: both observe
    // every publication attempt, accepted or not.
    TopicInstruments* ti = nullptr;
    if (metrics_ != nullptr) {
      ti = &instruments(topic);
      ti->publish->inc();
    }
    // Taps see everything, before subscribers. Generation-counted
    // iteration: a tap may re-entrantly add taps or release tap
    // Subscriptions; entries born during this fan-out are skipped,
    // entries that died during it still see the in-flight message.
    if (!taps_.empty()) {
      FanoutGuard guard(*this);
      const std::uint64_t snap = ++epoch_;
      const std::any ref(std::cref(payload));  // fits std::any's SBO
      for (std::size_t i = 0; i < taps_.size(); ++i) {
        const TapEntry& t = taps_[i];
        if (t.born >= snap || t.died < snap) continue;
        t.tap(h, ref, std::type_index(typeid(T)));
      }
    }
    if (ts.allowed_source != kNoRestriction &&
        ts.allowed_source != source.index_) {
      ++rejected_publications_;
      if (rejected_counter_ != nullptr) rejected_counter_->inc();
      return;  // authenticated transport: unauthorized publication dropped
    }
    ++published_;
    // A type mismatch must surface deterministically, before any handler
    // runs and regardless of what the fault policies decide.
    validate_subscriber_types(ts, std::type_index(typeid(T)),
                              typeid(T).name(), h.topic);
    FaultDecision fd;
    if (!policies_.empty()) {
      // Every policy is consulted for every accepted publication (even
      // when an earlier one already dropped it), so each policy's random
      // stream advances independently of the others' decisions.
      FanoutGuard guard(*this);
      const std::uint64_t snap = ++epoch_;
      for (std::size_t i = 0; i < policies_.size(); ++i) {
        PolicyEntry& p = policies_[i];
        if (p.born >= snap || p.died < snap) continue;
        const FaultDecision d = p.policy->decide(h);
        fd.drop = fd.drop || d.drop;
        fd.delay_steps = std::max(fd.delay_steps, d.delay_steps);
        fd.duplicates += d.duplicates;
        fd.reorder = fd.reorder || d.reorder;
      }
    }
    if (fd.drop) {
      ++faults_dropped_;
      if (ti != nullptr) ti->dropped->inc();
      return;
    }
    const std::size_t copies = 1 + fd.duplicates;
    if (fd.duplicates > 0) {
      faults_duplicated_ += fd.duplicates;
      if (ti != nullptr) ti->duplicated->inc(static_cast<double>(fd.duplicates));
    }
    if (fd.delay_steps > 0) {
      faults_delayed_ += 1;
      if (ti != nullptr) ti->delayed->inc();
      Delayed d;
      d.steps_left = fd.delay_steps;
      d.source = source;
      d.deliver = [topic, h, payload, copies](Bus& bus) {
        for (std::size_t i = 0; i < copies; ++i) {
          bus.deliver_now(topic, h, payload);
        }
      };
      if (fd.reorder) {
        delayed_.push_front(std::move(d));
      } else {
        delayed_.push_back(std::move(d));
      }
      return;
    }
    for (std::size_t i = 0; i < copies; ++i) deliver_now(topic, h, payload);
  }

  /// String-keyed compatibility shim: interns on first use, then runs the
  /// id-keyed hot path. Cold callers can stay on this overload; per-call
  /// cost is two ordered-map lookups.
  template <typename T>
  void publish(std::string_view topic, const T& payload,
               std::string_view source, double time_s) {
    publish(intern_topic(topic), payload, intern_source(source), time_s);
  }

  /// Subscribes a handler to `topic`. Returns a token whose destruction
  /// unsubscribes. Delivery order is subscription order (see the file
  /// header; unsubscribing never reorders the survivors).
  template <typename T>
  [[nodiscard]] Subscription subscribe(
      TopicId topic,
      std::function<void(const MessageHeader&, const T&)> handler) {
    const std::uint64_t id = next_sub_id_++;
    Entry e;
    e.id = id;
    e.type = std::type_index(typeid(T));
    e.born = epoch_;
    e.handler = [handler = std::move(handler)](const MessageHeader& h,
                                               const void* payload) {
      handler(h, *static_cast<const T*>(payload));
    };
    TopicState& ts = topics_[topic.index_];
    if (ts.subscriber_type == std::type_index(typeid(void))) {
      ts.subscriber_type = e.type;
    } else if (ts.subscriber_type != e.type) {
      ts.mixed_types = true;
    }
    ts.subscribers.push_back(std::move(e));
    return Subscription(this, Subscription::Kind::kSubscriber, topic, id);
  }

  template <typename T>
  [[nodiscard]] Subscription subscribe(
      std::string_view topic,
      std::function<void(const MessageHeader&, const T&)> handler) {
    return subscribe<T>(intern_topic(topic), std::move(handler));
  }

  /// Tap invoked for every message on every topic (IDS / diagnostics).
  /// The std::any carries a std::reference_wrapper<const T>.
  using TapFn = std::function<void(const MessageHeader&, const std::any&,
                                   std::type_index)>;
  [[nodiscard]] Subscription add_tap(TapFn tap);

  /// Registers a delivery fault policy (non-owning; the policy must
  /// outlive the returned token). Multiple policies compose: a message is
  /// dropped if any policy drops it, delayed by the longest requested
  /// delay, and duplicated once per requesting policy.
  [[nodiscard]] Subscription add_delivery_policy(DeliveryPolicy* policy);

  /// Delivers every delayed message whose hold time has elapsed (called
  /// once per simulation step). Messages enqueue with their original
  /// header and reach the subscribers registered at drain time. Returns
  /// the number of delayed messages delivered this drain.
  std::size_t drain_delayed();

  /// Delayed messages currently queued.
  std::size_t delayed_pending() const noexcept { return delayed_.size(); }

  /// Discards every pending delayed delivery without delivering it and
  /// returns how many were dropped. A bus reused across scenario runs must
  /// call this between runs (sim::World does, on reset and teardown) —
  /// otherwise the next run's subscribers receive the previous run's
  /// in-flight messages. Discards are not counted as fault drops: the
  /// run that published them is over.
  std::size_t clear_delayed() noexcept {
    const std::size_t n = delayed_.size();
    delayed_.clear();
    return n;
  }

  /// Discards only the pending delayed deliveries published by `source`
  /// (mid-run vehicle removal: a crashed UAV's queued messages must not
  /// deliver after it is declared lost). Other publishers' in-flight
  /// messages keep their relative order. Returns how many were dropped.
  std::size_t clear_delayed(SourceId source) noexcept {
    std::size_t dropped = 0;
    for (std::size_t i = 0; i < delayed_.size();) {
      if (delayed_[i].source == source) {
        delayed_.erase(delayed_.begin() + static_cast<std::ptrdiff_t>(i));
        ++dropped;
      } else {
        ++i;
      }
    }
    return dropped;
  }

  /// Number of live subscribers on a topic.
  std::size_t subscriber_count(std::string_view topic) const;
  std::size_t subscriber_count(TopicId topic) const;

  /// Publications accepted by the transport (attempts minus ACL rejects).
  /// Messages later dropped or delayed by fault policies still count: the
  /// transport accepted them, the link lost them. Taps see every attempt,
  /// accepted or not.
  std::uint64_t messages_published() const noexcept { return published_; }

  /// Enables authenticated publishing on `topic`: only `source` may
  /// publish there; other publications are dropped (and counted). This is
  /// the paper's mitigation for the ROS spoofing vulnerability — without
  /// it the bus accepts traffic from any node. Resolved at restriction
  /// time: the publish path compares interned source ids, not strings.
  void restrict_publisher(std::string_view topic, std::string_view source);

  /// Publications dropped by publisher restrictions so far.
  std::uint64_t rejected_publications() const noexcept {
    return rejected_publications_;
  }

  /// Fault-policy outcomes so far (bus-wide; per-topic counters live in
  /// the metrics registry when one is attached).
  std::uint64_t faults_dropped() const noexcept { return faults_dropped_; }
  std::uint64_t faults_delayed() const noexcept { return faults_delayed_; }
  std::uint64_t faults_duplicated() const noexcept {
    return faults_duplicated_;
  }

  /// Attaches (nullptr: detaches) a metrics registry. While attached the
  /// bus maintains, per topic: `sesame.mw.publish_total` (every publication
  /// attempt, as taps see them), `sesame.mw.deliver_total` (handler
  /// invocations), `sesame.mw.delivery_latency_seconds` (wall time to
  /// fan one message out to a topic's subscribers) and the fault-policy
  /// counters `sesame.mw.fault_dropped_total` /
  /// `sesame.mw.fault_delayed_total` / `sesame.mw.fault_duplicated_total`;
  /// plus the bus-wide `sesame.mw.rejected_total`. The counters are exact.
  /// The latency histogram is sampled: the 16th, 32nd, ... fan-out of each
  /// topic since attachment is timed and recorded with weight 16, so its
  /// count is a multiple of 16 and its sum estimates the topic's total
  /// fan-out time; a topic with fewer than 16 fan-outs has no samples.
  /// The registry must outlive the attachment.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  friend class Subscription;

  static constexpr std::uint64_t kLive =
      std::numeric_limits<std::uint64_t>::max();
  static constexpr std::uint32_t kNoRestriction = 0xFFFFFFFFu;
  /// One fan-out in this many per topic is timed into the latency
  /// histogram, with this weight: a clock pair costs about 100 ns in
  /// place, and one per fan-out was the largest cost of observing a
  /// `fleet_1024` run (docs/PERFORMANCE.md).
  static constexpr std::uint32_t kTimingStride = 16;

  /// A subscriber registration. `born`/`died` are bus-epoch stamps that
  /// implement copy-free re-entrant iteration: a fan-out with snapshot S
  /// invokes exactly the entries with born < S <= died-inclusive (i.e.
  /// born < S && died >= S). Dead entries are compacted (order-preserving)
  /// once no fan-out is on the stack.
  struct Entry {
    std::uint64_t id = 0;
    std::type_index type = std::type_index(typeid(void));
    std::function<void(const MessageHeader&, const void*)> handler;
    std::uint64_t born = 0;
    std::uint64_t died = kLive;
  };
  struct TapEntry {
    std::uint64_t id = 0;
    TapFn tap;
    std::uint64_t born = 0;
    std::uint64_t died = kLive;
  };
  struct PolicyEntry {
    std::uint64_t id = 0;
    DeliveryPolicy* policy = nullptr;
    std::uint64_t born = 0;
    std::uint64_t died = kLive;
  };

  /// A message held back by a fault policy; `deliver` re-runs the fan-out
  /// against the subscribers present at drain time. `source` identifies the
  /// publisher so a removed vehicle's in-flight traffic can be drained
  /// without touching anyone else's (clear_delayed(SourceId)).
  struct Delayed {
    std::size_t steps_left = 0;
    SourceId source;
    std::function<void(Bus&)> deliver;
  };

  /// Per-topic instruments, resolved once per topic then cached in the
  /// topic's flat state.
  struct TopicInstruments {
    obs::Counter* publish = nullptr;
    obs::Counter* deliver = nullptr;
    obs::Histogram* latency = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* delayed = nullptr;
    obs::Counter* duplicated = nullptr;
  };

  /// Everything the bus knows about one interned topic, index-addressed
  /// by TopicId. Lives in a deque: references stay valid while handlers
  /// intern new topics mid-delivery.
  struct TopicState {
    std::deque<Entry> subscribers;
    std::uint32_t allowed_source = kNoRestriction;  ///< ACL (SourceId index)
    TopicInstruments instruments;
    /// Fan-outs of this topic since the registry was attached; selects
    /// the timed ones (see kTimingStride).
    std::uint32_t fanouts = 0;
    bool instruments_ready = false;
    bool has_tombstones = false;
    /// Payload type of the first subscriber the topic ever had, and
    /// whether any later subscriber expected another type. Recorded at
    /// subscribe time and never cleared, so while `mixed_types` is false
    /// every subscriber, live or removed, expects `subscriber_type`.
    std::type_index subscriber_type = std::type_index(typeid(void));
    bool mixed_types = false;
  };

  /// Tracks fan-out nesting; when the outermost fan-out unwinds, dead
  /// registrations are compacted (they cannot be erased mid-iteration).
  struct FanoutGuard {
    explicit FanoutGuard(Bus& b) noexcept : bus(b) { ++bus.fanout_depth_; }
    ~FanoutGuard() {
      if (--bus.fanout_depth_ == 0 && bus.tombstones_pending_) bus.compact();
    }
    Bus& bus;
  };

  TopicInstruments& instruments(TopicId topic) {
    TopicState& ts = topics_[topic.index_];
    return ts.instruments_ready ? ts.instruments : resolve_instruments(topic);
  }
  /// Registers the topic's instruments with the attached registry.
  TopicInstruments& resolve_instruments(TopicId topic);

  /// Throws std::runtime_error if any live subscriber on the topic expects
  /// a payload type other than `type`. A topic whose subscribers have all
  /// expected `type` answers from the type recorded at subscribe time;
  /// any other topic is scanned.
  void validate_subscriber_types(const TopicState& ts, std::type_index type,
                                 const char* type_name,
                                 std::string_view topic) const {
    if (!ts.mixed_types && ts.subscriber_type == type) return;
    scan_subscriber_types(ts, type, type_name, topic);
  }
  void scan_subscriber_types(const TopicState& ts, std::type_index type,
                             const char* type_name,
                             std::string_view topic) const;

  /// Unregisters a subscriber/tap/policy (Subscription::reset). Outside a
  /// fan-out the entry is erased immediately (ordered — delivery order of
  /// the survivors is preserved); inside one it is tombstoned and swept
  /// when the outermost fan-out unwinds.
  void remove_registration(Subscription::Kind kind, TopicId topic,
                           std::uint64_t id);

  /// Order-preserving removal of tombstoned entries; only called with no
  /// fan-out on the stack.
  void compact();

  /// Synchronous fan-out of one message to the current subscribers.
  /// Re-validates types (the subscriber set may have changed since a
  /// delayed message was enqueued) and records delivery metrics for the
  /// handlers that completed, even when one of them throws.
  template <typename T>
  void deliver_now(TopicId topic, const MessageHeader& h, const T& payload) {
    TopicState& ts = topics_[topic.index_];
    if (ts.subscribers.empty()) return;
    validate_subscriber_types(ts, std::type_index(typeid(T)),
                              typeid(T).name(), h.topic);
    TopicInstruments* ti =
        metrics_ != nullptr ? &instruments(topic) : nullptr;
    // Only every kTimingStride-th fan-out of a topic reads the clock; the
    // first never does, so a cold fan-out is not weighted up.
    const bool timed = ti != nullptr && ++ts.fanouts % kTimingStride == 0;
    const auto t0 = timed ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
    FanoutGuard guard(*this);
    const std::uint64_t snap = ++epoch_;
    std::size_t completed = 0;
    const auto record = [&] {
      if (ti == nullptr) return;
      ti->deliver->inc(static_cast<double>(completed));
      if (!timed) return;
      ti->latency->observe(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count(),
                           kTimingStride);
    };
    try {
      // Index-based: handlers may subscribe re-entrantly, growing the
      // deque (which keeps existing entries' addresses stable).
      for (std::size_t i = 0; i < ts.subscribers.size(); ++i) {
        const Entry& e = ts.subscribers[i];
        if (e.born >= snap || e.died < snap) continue;
        e.handler(h, &payload);
        ++completed;
      }
    } catch (...) {
      record();  // the handlers that ran are still accounted for
      throw;
    }
    record();
  }

  // --- interning ---------------------------------------------------------
  // Names live in deques (stable addresses — MessageHeader views point
  // here); the maps are the cold-path name → id resolvers.
  std::deque<std::string> topic_names_;
  std::deque<std::string> source_names_;
  std::map<std::string, std::uint32_t, std::less<>> topic_index_;
  std::map<std::string, std::uint32_t, std::less<>> source_index_;
  /// Flat per-topic state, indexed by TopicId. Deque: handler re-entrancy
  /// may intern new topics while a fan-out holds a TopicState reference.
  std::deque<TopicState> topics_;

  // --- registries ---------------------------------------------------------
  std::deque<TapEntry> taps_;
  std::deque<PolicyEntry> policies_;
  std::deque<Delayed> delayed_;

  // --- bookkeeping --------------------------------------------------------
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* rejected_counter_ = nullptr;
  std::uint64_t epoch_ = 0;
  int fanout_depth_ = 0;
  bool tombstones_pending_ = false;
  bool taps_tombstoned_ = false;
  bool policies_tombstoned_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t published_ = 0;
  std::uint64_t rejected_publications_ = 0;
  std::uint64_t faults_dropped_ = 0;
  std::uint64_t faults_delayed_ = 0;
  std::uint64_t faults_duplicated_ = 0;
  std::uint64_t next_sub_id_ = 0;
};

inline void Subscription::reset() {
  if (bus_ == nullptr) return;
  Bus* bus = bus_;
  bus_ = nullptr;
  bus->remove_registration(kind_, topic_, id_);
}

}  // namespace sesame::mw
