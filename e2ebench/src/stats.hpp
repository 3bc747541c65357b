// Small measurement helpers shared by every workload of the end-to-end
// benchmark: order statistics that refuse to report an unsupported tail,
// set-up timing, the report-digest check, and the process's peak resident
// set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace e2ebench {

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; below that, one outlier decides the value.
inline constexpr std::size_t kTailMin = 10;

/// Median of `samples` (mean of the two middle values for an even count).
/// Requires at least one sample.
double median(std::vector<double> samples);

/// Nearest-rank `q`-quantile (0 < q < 1) of `samples`, or nullopt when
/// fewer than kTailMin samples lie beyond its rank.
std::optional<double> tail_percentile(std::vector<double> samples, double q);

/// "p95 12.3 ms (n=240)" or "p95 n/a (n=40, needs 200)" — the sample
/// count is always printed next to a percentile.
std::string describe_percentile(const std::vector<double>& samples, double q,
                                const char* unit);

/// The median time (s) of one `setup` over 101 timed samples. A sample
/// times `batch` back-to-back calls (enough to take well over the clock's
/// own cost when one call takes well under a microsecond) after an untimed
/// `teardown`. Untimed samples run first for 50 ms, so that the core's
/// clock and caches have settled.
double median_setup_s(const std::function<void()>& teardown,
                      const std::function<void()>& setup, int batch);

/// True when the FNV-1a 64 digest of `bytes` equals `pinned`.
bool digest_matches(std::string_view bytes, std::uint64_t pinned);

/// Peak resident set size of this process so far, in MB (VmHWM).
double peak_rss_mb();

}  // namespace e2ebench
