#include "layers.hpp"

#include <atomic>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "sesame/obs/sinks.hpp"

namespace e2ebench {

void WorkloadResult::fail(std::string what, std::uint64_t count) {
  failed += count;
  if (errors.size() < 8) errors.push_back(std::move(what));
}

std::uint64_t SpanLog::add(std::string name, std::uint64_t parent,
                           std::string owner, double start_us,
                           double end_us) {
  const std::uint64_t id = reserve();
  add_with_id(id, std::move(name), parent, std::move(owner), start_us, end_us);
  return id;
}

void SpanLog::add_with_id(std::uint64_t id, std::string name,
                          std::uint64_t parent, std::string owner,
                          double start_us, double end_us) {
  spans_.push_back(SpanRecord{id, parent, std::move(name), std::move(owner),
                              start_us, end_us});
}

double SpanLog::total_ms(const std::string& name) const {
  double sum = 0.0;
  for (const auto& s : spans_) {
    if (s.name == name) sum += s.end_us - s.start_us;
  }
  return sum / 1000.0;
}

std::size_t SpanLog::count(const std::string& name) const {
  std::size_t n = 0;
  for (const auto& s : spans_) n += s.name == name ? 1 : 0;
  return n;
}

std::vector<double> SpanLog::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(s.end_us - s.start_us);
  }
  return out;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  char buf[160];
  for (const auto& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%llu,\"parent\":%llu,\"start_us\":%.3f,"
                  "\"end_us\":%.3f,",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.start_us,
                  s.end_us);
    out << buf << "\"name\":\"" << sesame::obs::json_escape(s.name)
        << "\",\"owner\":\"" << sesame::obs::json_escape(s.owner) << "\"}\n";
  }
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

void SpanTotals::consume(const sesame::obs::TraceEvent& event) {
  if (event.kind != sesame::obs::TraceEvent::Kind::kSpan) return;
  auto& [ms, n] = totals_[event.name];
  ms += event.duration_us / 1000.0;
  ++n;
}

double SpanTotals::total_ms(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.first;
}

std::size_t SpanTotals::count(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0 : it->second.second;
}

std::vector<Metric> layer_metrics(const std::map<std::string, double>& values) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"platform.setup_ms", "ms"},       {"platform.run_ms", "ms"},
      {"platform.ticks", "count"},       {"platform.self_ms", "ms"},
      {"sim.step_ms", "ms"},             {"sim.steps", "count"},
      {"mw.deliver_ms", "ms"},           {"mw.publishes", "count"},
      {"mw.deliveries", "count"},        {"conserts.eval_ms", "ms"},
      {"conserts.evals", "count"},       {"campaign.summarize_ms", "ms"},
      {"campaign.report_json_ms", "ms"}, {"campaign.report_bytes", "bytes"},
      {"service.http_us_p50", "us"},     {"service.http_us_p95", "us"},
      {"service.wire_us_p50", "us"},     {"service.wire_us_p95", "us"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.cache_lookups", "count"},
      {"service.rejections", "count"},   {"service.first_result_ms", "ms"},
      {"load.late_ms_p95", "ms"},        {"load.late_ms_max", "ms"},
      {"obs.trace_overhead_pct", "%"},   {"obs.reconcile_gap_pct", "%"},
  };
  std::vector<Metric> out;
  std::size_t used = 0;
  for (const auto& [name, unit] : kLayers) {
    const auto it = values.find(name);
    used += it != values.end() ? 1 : 0;
    out.push_back({name, it != values.end() ? it->second : 0.0, unit});
  }
  if (used != values.size()) throw std::logic_error("unknown layer metric");
  return out;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

void print_layer_table(const std::string& title,
                       const std::vector<LayerRow>& rows,
                       double reference_ms) {
  std::printf("%s\n", title.c_str());
  std::printf("  %-30s %12s %12s %12s %8s\n", "layer", "total_ms", "count",
              "self_ms", "self_%");
  for (const auto& r : rows) {
    const std::string name = std::string(2 * r.depth, ' ') + r.name;
    std::printf("  %-30s %12.3f %12.0f %12.3f %7.1f%%\n", name.c_str(),
                r.total_ms, r.count, r.self_ms,
                reference_ms > 0.0 ? 100.0 * r.self_ms / reference_ms : 0.0);
  }
}

}  // namespace e2ebench
