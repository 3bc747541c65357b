#include "sesame/obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace sesame::obs {

namespace {

/// Serializes a (sorted) label set into a map key.
std::string labels_key(const Labels& labels) {
  std::string key;
  for (const auto& [k, v] : labels) {
    key += k;
    key += '\x1f';
    key += v;
    key += '\x1e';
  }
  return key;
}

Labels sorted(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; dots (our convention)
/// and anything else exotic become underscores.
std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

std::string prometheus_label_value(const std::string& v) {
  std::string out;
  for (const char c : v) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string prometheus_labels(const Labels& labels,
                              const std::string& extra_key = "",
                              const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += prometheus_name(k) + "=\"" + prometheus_label_value(v) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ',';
    out += extra_key + "=\"" + extra_value + "\"";
  }
  out += '}';
  return out;
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: no bucket bounds");
  }
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::invalid_argument("Histogram: bounds must ascend strictly");
    }
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v, std::size_t weight) noexcept {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  counts_[i] += weight;
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  count_ += weight;
  sum_ += static_cast<double>(weight) * v;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cumulative + static_cast<double>(counts_[i]);
    if (next >= target && counts_[i] > 0) {
      // Interpolate within the bucket, bracketed by the observed extremes:
      // the first bucket's true lower edge is the observed min (not 0 —
      // series can be negative), and the overflow bucket's upper edge is
      // the observed max (not the last finite bound).
      double lo = i == 0 ? min_ : bounds_[i - 1];
      double hi = i >= bounds_.size() ? max_ : bounds_[i];
      lo = std::max(lo, min_);
      hi = std::min(hi, max_);
      if (hi <= lo) return lo;  // all of the bucket's range collapsed
      const double within =
          (target - cumulative) / static_cast<double>(counts_[i]);
      return lo + within * (hi - lo);
    }
    cumulative = next;
  }
  return max_;
}

void Histogram::merge(const Histogram& other) {
  merge_raw(other.bounds_, other.counts_, other.count_, other.sum_,
            other.min_observed(), other.max_observed());
}

void Histogram::merge_raw(const std::vector<double>& bounds,
                          const std::vector<std::size_t>& counts,
                          std::size_t count, double sum, double min_observed,
                          double max_observed) {
  if (bounds != bounds_ || counts.size() != counts_.size()) {
    throw std::invalid_argument("Histogram::merge: bucket bounds differ");
  }
  if (count == 0) return;
  std::size_t first = counts.size();
  std::size_t last = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0) {
      if (first == counts.size()) first = i;
      last = i;
    }
  }
  if (first == counts.size()) {
    throw std::invalid_argument(
        "Histogram::merge: sample claims observations but every bucket is "
        "empty");
  }
  // Claimed extremes must be consistent with the bucket mass: the min lies
  // in the first occupied bucket (lower edge exclusive) and the max in the
  // last. MetricSample is a public struct, so external producers (wire
  // peers, hand-built samples) can leave min/max defaulted to 0 while the
  // mass sits elsewhere; trusting such values drags the merged extremes to
  // 0 and collapses quantile bracketing onto the bucket bounds. Fall back
  // to the occupied buckets' finite edges instead. NaN claims fail every
  // comparison and take the same fallback.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double min_lo = first == 0 ? -kInf : bounds_[first - 1];
  const double min_hi = first < bounds_.size() ? bounds_[first] : kInf;
  const double max_lo = last == 0 ? -kInf : bounds_[last - 1];
  const double max_hi = last < bounds_.size() ? bounds_[last] : kInf;
  const bool consistent = min_observed <= max_observed &&
                          min_observed > min_lo && min_observed <= min_hi &&
                          max_observed > max_lo && max_observed <= max_hi;
  if (!consistent) {
    min_observed = bounds_[first == 0 ? 0 : first - 1];
    max_observed = bounds_[last < bounds_.size() ? last : bounds_.size() - 1];
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += counts[i];
  if (count_ == 0) {
    min_ = min_observed;
    max_ = max_observed;
  } else {
    min_ = std::min(min_, min_observed);
    max_ = std::max(max_, max_observed);
  }
  count_ += count;
  sum_ += sum;
}

std::vector<double> latency_buckets_s() {
  return {1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5,
          2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 1e-2};
}

std::vector<double> duration_buckets_s() {
  return {1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
          1e-3, 2.5e-3, 5e-3, 1e-2, 5e-2, 0.25, 1.0};
}

const MetricSample* MetricsSnapshot::find(const std::string& name,
                                          const Labels& labels) const {
  const Labels wanted = sorted(labels);
  for (const auto& s : samples) {
    if (s.name != name) continue;
    if (!wanted.empty() && wanted != s.labels) continue;
    return &s;
  }
  return nullptr;
}

MetricsRegistry::Family& MetricsRegistry::family_of(const std::string& name,
                                                    MetricKind kind) {
  auto [it, inserted] = families_.try_emplace(name);
  if (inserted) {
    it->second.kind = kind;
  } else if (it->second.kind != kind) {
    throw std::logic_error("MetricsRegistry: '" + name + "' registered as " +
                           kind_name(it->second.kind) + ", requested as " +
                           kind_name(kind));
  }
  return it->second;
}

template <typename T, typename Make>
T& MetricsRegistry::series(std::map<std::string, Series<T>>& family,
                           Labels labels, const Make& make) {
  labels = sorted(std::move(labels));
  std::string key = labels_key(labels);
  auto it = family.lower_bound(key);
  if (it == family.end() || it->first != key) {
    it = family.emplace_hint(it, std::move(key),
                             Series<T>{std::move(labels), make()});
  }
  return it->second.instrument;
}

Counter& MetricsRegistry::counter(const std::string& name, Labels labels) {
  return series(family_of(name, MetricKind::kCounter).counters,
                std::move(labels), [] { return Counter{}; });
}

Gauge& MetricsRegistry::gauge(const std::string& name, Labels labels) {
  return series(family_of(name, MetricKind::kGauge).gauges, std::move(labels),
                [] { return Gauge{}; });
}

Histogram& MetricsRegistry::histogram(const std::string& name, Labels labels,
                                      std::vector<double> bounds) {
  Family& fam = family_of(name, MetricKind::kHistogram);
  if (fam.bounds.empty()) fam.bounds = std::move(bounds);
  return series(fam.histograms, std::move(labels),
                [&fam] { return Histogram(fam.bounds); });
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.samples.reserve(series_count());
  for (const auto& [name, fam] : families_) {
    const auto emit = [&](const Labels& labels, MetricSample sample) {
      sample.name = name;
      sample.kind = fam.kind;
      sample.labels = labels;
      snap.samples.push_back(std::move(sample));
    };
    for (const auto& [key, c] : fam.counters) {
      MetricSample s;
      s.value = c.instrument.value();
      emit(c.labels, std::move(s));
    }
    for (const auto& [key, g] : fam.gauges) {
      MetricSample s;
      s.value = g.instrument.value();
      s.gauge_stamp = g.instrument.stamp();
      emit(g.labels, std::move(s));
    }
    for (const auto& [key, hs] : fam.histograms) {
      const Histogram& h = hs.instrument;
      MetricSample s;
      s.value = h.sum();
      s.observations = h.count();
      s.bucket_bounds = h.bounds();
      s.bucket_counts = h.bucket_counts();
      s.min_observed = h.min_observed();
      s.max_observed = h.max_observed();
      emit(hs.labels, std::move(s));
    }
  }
  return snap;
}

void MetricsRegistry::merge(const MetricsSnapshot& snapshot,
                            std::uint64_t gauge_stamp) {
  for (const auto& s : snapshot.samples) {
    switch (s.kind) {
      case MetricKind::kCounter:
        counter(s.name, s.labels).inc(s.value);
        break;
      case MetricKind::kGauge:
        gauge(s.name, s.labels).merge_stamped(s.value, gauge_stamp);
        break;
      case MetricKind::kHistogram:
        histogram(s.name, s.labels, s.bucket_bounds)
            .merge_raw(s.bucket_bounds, s.bucket_counts, s.observations,
                       s.value, s.min_observed, s.max_observed);
        break;
    }
  }
}

std::size_t MetricsRegistry::series_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [name, fam] : families_) {
    (void)name;
    n += fam.counters.size() + fam.gauges.size() + fam.histograms.size();
  }
  return n;
}

std::string MetricsRegistry::render_prometheus() const {
  return obs::render_prometheus(snapshot());
}

std::string format_double(double v) {
  char shorter[32];
  std::snprintf(shorter, sizeof shorter, "%.6g", v);
  if (std::atof(shorter) == v) return shorter;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string render_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string last_family;
  for (const auto& s : snapshot.samples) {
    const std::string pname = prometheus_name(s.name);
    if (pname != last_family) {
      out += "# TYPE " + pname + " " + kind_name(s.kind) + "\n";
      last_family = pname;
    }
    switch (s.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        out += pname + prometheus_labels(s.labels) + " " +
               format_double(s.value) + "\n";
        break;
      case MetricKind::kHistogram: {
        std::size_t cumulative = 0;
        for (std::size_t i = 0; i < s.bucket_bounds.size(); ++i) {
          cumulative += s.bucket_counts[i];
          out += pname + "_bucket" +
                 prometheus_labels(s.labels, "le",
                                   format_double(s.bucket_bounds[i])) +
                 " " + std::to_string(cumulative) + "\n";
        }
        out += pname + "_bucket" + prometheus_labels(s.labels, "le", "+Inf") +
               " " + std::to_string(s.observations) + "\n";
        out += pname + "_sum" + prometheus_labels(s.labels) + " " +
               format_double(s.value) + "\n";
        out += pname + "_count" + prometheus_labels(s.labels) + " " +
               std::to_string(s.observations) + "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace sesame::obs
