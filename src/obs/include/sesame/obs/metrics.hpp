// Metrics primitives: counters, gauges, fixed-bucket histograms, and the
// registry that owns them.
//
// Design goals, in order:
//  1. Hot-path cost of an *attached* metric is one pointer-indirect add —
//     instrumented components look their instruments up once and cache the
//     returned reference (addresses are stable for the registry's lifetime).
//  2. Hot-path cost of a *detached* component is one branch: every
//     instrumentation point in the codebase guards on a nullable
//     `MetricsRegistry*`, so uninstrumented runs pay nothing measurable.
//  3. No dependencies beyond the standard library, single-threaded like the
//     rest of the simulator (the world steps deterministically; metrics
//     inherit that determinism except for wall-clock duration samples).
//
// Naming convention (see docs/OBSERVABILITY.md): dotted lowercase paths,
// `sesame.<module>.<metric>`, counters suffixed `_total`, histograms carrying
// their unit (`_seconds`). `render_prometheus()` maps dots to underscores.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace sesame::obs {

/// Sorted key/value pairs attached to a metric series (or a trace event).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing count (messages published, alerts raised...).
class Counter {
 public:
  void inc(double n = 1.0) noexcept { value_ += n; }
  /// Monotone raise to an externally maintained cumulative count (no-op
  /// when `v` is not ahead). Components that keep their own tallies — the
  /// wire bridge's `mw::LinkCounters` — mirror them into the registry
  /// with this instead of tracking per-sample deltas.
  void raise_to(double v) noexcept {
    if (v > value_) value_ = v;
  }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Point-in-time value (mission clock, fleet availability...).
///
/// A gauge carries a merge *stamp* alongside its value: the provenance
/// order (run index, merge sequence) of the snapshot that last set it
/// through a merge. Live `set`/`add` calls leave the stamp untouched —
/// stamps only matter when snapshots of different registries are folded
/// together, where "which value survives" must not depend on merge order.
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double d) noexcept { value_ += d; }
  double value() const noexcept { return value_; }

  /// Deterministic merge: the (stamp, value) pair wins lexicographically —
  /// a higher stamp replaces, an equal stamp keeps the larger value (so
  /// folding the same snapshot set in any permutation lands on one
  /// result), a lower stamp is ignored.
  void merge_stamped(double v, std::uint64_t stamp) noexcept {
    if (stamp > stamp_ || (stamp == stamp_ && v > value_)) {
      value_ = v;
      stamp_ = stamp;
    }
  }
  std::uint64_t stamp() const noexcept { return stamp_; }

 private:
  double value_ = 0.0;
  std::uint64_t stamp_ = 0;
};

/// Fixed-bucket histogram: upper bounds are set at registration and never
/// reallocate, so `observe` is a linear scan over a handful of doubles.
class Histogram {
 public:
  /// `bounds` are strictly ascending bucket upper limits; an implicit
  /// +Inf bucket catches the overflow. Throws std::invalid_argument on an
  /// empty or non-ascending bound list.
  explicit Histogram(std::vector<double> bounds);

  /// Records `v` as `weight` observations of the same value: `weight` is
  /// added to v's bucket and to count(), `weight * v` to sum(), and the
  /// extremes take v. A sampled instrument records one value in N with
  /// weight N, so count() and sum() estimate the unsampled totals (the
  /// bus's delivery latency does this with N = 16). `weight` must be at
  /// least 1.
  void observe(double v, std::size_t weight = 1) noexcept;

  std::size_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket (non-cumulative) counts; back() is the +Inf overflow bucket.
  const std::vector<std::size_t>& bucket_counts() const noexcept {
    return counts_;
  }
  /// Smallest / largest value observed so far; 0 while empty. These tighten
  /// quantile interpolation at the distribution's edges (the first bucket
  /// reaches down to min, the overflow bucket up to max) and survive merges.
  double min_observed() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max_observed() const noexcept { return count_ == 0 ? 0.0 : max_; }

  /// Bucket-interpolated quantile estimate (q in [0,1]); 0 when empty.
  /// Interpolation is bracketed by the observed min/max, so quantiles of
  /// series with mass in the overflow bucket (or below the first bound,
  /// e.g. negative-valued error gauges) stay inside the observed range.
  double quantile(double q) const;

  /// Folds another histogram's observations into this one (campaign-level
  /// roll-up of per-run registries). Throws std::invalid_argument when the
  /// bucket bounds differ or a sample claims observations without any
  /// bucket mass. Merging an empty side is a no-op and never disturbs the
  /// observed extremes; extremes inconsistent with the bucket mass (e.g. a
  /// wire peer's defaulted zeros) are replaced by the occupied buckets'
  /// finite edges rather than trusted.
  void merge(const Histogram& other);

 private:
  friend class MetricsRegistry;  // snapshot merge uses merge_raw
  void merge_raw(const std::vector<double>& bounds,
                 const std::vector<std::size_t>& counts, std::size_t count,
                 double sum, double min_observed, double max_observed);

  std::vector<double> bounds_;        // ascending upper limits
  std::vector<std::size_t> counts_;   // bounds_.size() + 1 (overflow)
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;  // valid only while count_ > 0
  double max_ = 0.0;
};

/// Default bucket ladder for sub-millisecond code-path latencies (seconds).
std::vector<double> latency_buckets_s();
/// Default bucket ladder for multi-millisecond step/phase durations (seconds).
std::vector<double> duration_buckets_s();

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One series in a snapshot: the metric's identity plus its current value.
struct MetricSample {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;                        ///< counter/gauge value, histogram sum
  std::size_t observations = 0;              ///< histogram count
  std::vector<double> bucket_bounds;         ///< histogram only
  std::vector<std::size_t> bucket_counts;    ///< histogram only (non-cumulative)
  double min_observed = 0.0;                 ///< histogram only; 0 when empty
  double max_observed = 0.0;                 ///< histogram only; 0 when empty
  std::uint64_t gauge_stamp = 0;             ///< gauge only; merge provenance
};

struct MetricsSnapshot {
  std::vector<MetricSample> samples;  ///< sorted by (name, labels)

  /// First sample matching name (+ labels when given); nullptr when absent.
  const MetricSample* find(const std::string& name,
                           const Labels& labels = {}) const;
};

/// Owns every metric. Registration is idempotent: asking for the same
/// (name, labels) again returns the same instance, so call sites can simply
/// re-request instead of caching when off the hot path. Registering one
/// name as two different kinds throws std::logic_error.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  /// `bounds` applies on first registration of the family; later calls
  /// reuse the family's bounds.
  Histogram& histogram(const std::string& name, Labels labels = {},
                       std::vector<double> bounds = latency_buckets_s());

  /// Point-in-time copy of every series, sorted by (name, labels).
  MetricsSnapshot snapshot() const;

  /// Folds a snapshot (typically of another registry — one campaign run's
  /// metrics) into this registry: counters add their value, histograms add
  /// their bucket counts / sum / min / max, gauges merge by stamp (see
  /// below). Series absent here are created. Throws std::logic_error on a
  /// kind clash and std::invalid_argument on histogram bound mismatch.
  ///
  /// Gauge determinism: each gauge keeps the value of the highest-stamped
  /// merge it has seen (ties keep the larger value), so folding a fixed
  /// set of stamped snapshots produces the same result in any merge order.
  /// Callers stamp with a provenance order, e.g. the campaign run index + 1;
  /// folding in that order makes the last merge win.
  void merge(const MetricsSnapshot& snapshot, std::uint64_t gauge_stamp);

  /// Prometheus text exposition (v0.0.4) of the current state: dotted
  /// names become underscored, histograms expand to cumulative
  /// `_bucket{le=...}` series plus `_sum` and `_count`.
  std::string render_prometheus() const;

  std::size_t series_count() const noexcept;

 private:
  /// One series: its sorted labels beside its instrument. Map nodes never
  /// move, so the instrument's address is stable for the registry's life.
  template <typename T>
  struct Series {
    Labels labels;
    T instrument;
  };
  struct Family {
    MetricKind kind = MetricKind::kCounter;
    std::vector<double> bounds;  // histograms only
    // Keyed by the serialized label set (snapshot order within a family).
    std::map<std::string, Series<Counter>> counters;
    std::map<std::string, Series<Gauge>> gauges;
    std::map<std::string, Series<Histogram>> histograms;
  };

  Family& family_of(const std::string& name, MetricKind kind);
  /// The instrument registered under `labels` (sorted here), created with
  /// `make()` on first registration.
  template <typename T, typename Make>
  static T& series(std::map<std::string, Series<T>>& family, Labels labels,
                   const Make& make);

  std::map<std::string, Family> families_;
};

/// Renders a snapshot in the Prometheus text format (what
/// MetricsRegistry::render_prometheus uses internally).
std::string render_prometheus(const MetricsSnapshot& snapshot);

/// Shortest readable decimal form of `v`: "%.6g" when that reads back as
/// the same double, else the round-trip "%.17g". Used by the Prometheus
/// renderer and the campaign CSV tables.
std::string format_double(double v);

}  // namespace sesame::obs
