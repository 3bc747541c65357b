// Open-loop load for the service_mix workload.
//
// Everything a submission carries — when it is due, which tenant sends it,
// whether it is a fresh campaign or a repeat, which repeat key — is drawn
// from the benchmark seed with the benchmark's own SplitMix64 stream, so the
// schedule does not change when the program's RNG does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n);

 private:
  std::uint64_t state_;
};

/// Offered load: a light phase followed by an overload phase, each a
/// Poisson process at a fixed rate.
struct LoadShape {
  double light_rate_per_s = 0.0;
  double light_s = 0.0;
  double overload_rate_per_s = 0.0;
  double overload_s = 0.0;
  std::size_t tenants = 4;
  /// Distinct repeatable submissions; larger than the service's 32-entry
  /// report cache so repeats both hit and miss.
  std::size_t repeat_keys = 48;
};

struct Arrival {
  double due_s = 0.0;       ///< offset from the start of the measured window
  bool overload = false;    ///< belongs to the overload phase
  std::size_t tenant = 0;
  bool repeat = false;      ///< drawn from the repeat key set
  std::string preset;       ///< "nominal" or "baseline"
  std::uint64_t campaign_seed = 0;
};

/// The arrival schedule for `seed`. Kinds are stratified per block of ten
/// arrivals (1 fresh nominal, 6 fresh baseline, 3 repeats, shuffled) so
/// that the work mix is the same for every seed; repeat keys follow a Zipf
/// law (s = 1) over a seed-drawn key set, a quarter of it nominal.
std::vector<Arrival> arrival_schedule(std::uint64_t seed,
                                      const LoadShape& shape);

}  // namespace e2ebench
