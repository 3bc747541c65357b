// What a workload hands back to main(), and the traced run's tooling: an
// in-memory span log written out at exit, a trace sink that totals the
// program's own spans, and the per-layer self-time table.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sesame/obs/trace.hpp"

namespace e2ebench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One workload invocation's outcome. `metrics` go into the JSON result
/// line; `notes` are printed above it for a human reader only.
struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failures, for stderr
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void fail(std::string what, std::uint64_t count = 1);
};

/// One finished span: name, start and end (µs since the log's epoch), the
/// span that caused it, and the run or job it belongs to.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  std::string owner;  ///< "campaign 3 run 5", "job 17"
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Spans kept in memory for the whole run and written as JSON lines at
/// exit. Not thread-safe: only the benchmark's driving thread records.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  SpanLog() : epoch_(Clock::now()) {}

  double now_us() const { return us(Clock::now()); }
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  /// Records a finished span and returns its id.
  std::uint64_t add(std::string name, std::uint64_t parent, std::string owner,
                    double start_us, double end_us);
  /// Reserves an id for a span whose children finish before it does; pass
  /// it to add_with_id once the span ends.
  std::uint64_t reserve() { return next_id_++; }
  void add_with_id(std::uint64_t id, std::string name, std::uint64_t parent,
                   std::string owner, double start_us, double end_us);

  /// Sum of durations (ms) and count of the spans called `name`.
  double total_ms(const std::string& name) const;
  std::size_t count(const std::string& name) const;
  /// Durations (µs) of the spans called `name`, in record order.
  std::vector<double> durations_us(const std::string& name) const;

  /// Writes one JSON object per span; throws std::runtime_error when the
  /// file cannot be written.
  void write_jsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

/// Trace sink that keeps only the total duration and count per span name
/// (a run emits thousands of ConSert-evaluation spans; their sum is the
/// layer time the table needs).
class SpanTotals : public sesame::obs::TraceSink {
 public:
  void consume(const sesame::obs::TraceEvent& event) override;
  double total_ms(const std::string& name) const;
  std::size_t count(const std::string& name) const;

 private:
  std::map<std::string, std::pair<double, std::size_t>> totals_;
};

/// One row of the per-layer table. `self_ms` is the row's time minus the
/// time of the rows nested under it.
struct LayerRow {
  int depth = 0;
  std::string name;
  double total_ms = 0.0;
  double count = 0.0;  ///< spans, evaluations or deliveries behind the row
  double self_ms = 0.0;
};

/// The per-layer metrics in their fixed order and units. A layer the
/// workload does not exercise reads 0; an unknown name throws.
std::vector<Metric> layer_metrics(const std::map<std::string, double>& values);

/// Calls fn(0) .. fn(n - 1) on 4 threads (index order is not preserved);
/// rethrows the first exception after all threads have joined.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Prints the table with each row's share of `reference_ms`.
void print_layer_table(const std::string& title,
                       const std::vector<LayerRow>& rows, double reference_ms);

}  // namespace e2ebench
