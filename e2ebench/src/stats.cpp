#include "stats.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "sesame/service/submission.hpp"

namespace e2ebench {

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double hi = samples[mid];
  if (samples.size() % 2 == 1) return hi;
  const double lo = *std::max_element(samples.begin(), samples.begin() + mid);
  return 0.5 * (lo + hi);
}

std::optional<double> tail_percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || !(q > 0.0 && q < 1.0)) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));  // 1-based
  if (n - rank < kTailMin) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::string describe_percentile(const std::vector<double>& samples, double q,
                                const char* unit) {
  char buf[128];
  const int pct = static_cast<int>(std::lround(q * 100.0));
  if (const auto v = tail_percentile(samples, q)) {
    std::snprintf(buf, sizeof buf, "p%d %.4f %s (n=%zu)", pct, *v, unit,
                  samples.size());
  } else {
    const auto needed = static_cast<std::size_t>(
        std::ceil(static_cast<double>(kTailMin) / (1.0 - q) - 1e-9));
    std::snprintf(buf, sizeof buf, "p%d n/a (n=%zu, needs %zu)", pct,
                  samples.size(), needed);
  }
  return buf;
}

double median_setup_s(const std::function<void()>& teardown,
                      const std::function<void()>& setup, int batch) {
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kReps = 101;
  const auto warm_until = Clock::now() + std::chrono::milliseconds(50);
  std::vector<double> samples;
  while (samples.size() < kReps) {
    teardown();
    const auto t0 = Clock::now();
    for (int i = 0; i < batch; ++i) setup();
    const auto t1 = Clock::now();
    if (t1 >= warm_until) {
      samples.push_back(std::chrono::duration<double>(t1 - t0).count() /
                        batch);
    }
  }
  return median(std::move(samples));
}

bool digest_matches(std::string_view bytes, std::uint64_t pinned) {
  return sesame::service::fnv1a64(bytes) == pinned;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the process image before exec, i.e. of the launcher.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace e2ebench
