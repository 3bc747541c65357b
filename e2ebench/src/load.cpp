#include "load.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace e2ebench {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SplitMix64::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t SplitMix64::below(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

namespace {

enum class Kind { kFreshNominal, kFreshBaseline, kRepeat };

constexpr std::array<Kind, 10> kBlock = {
    Kind::kFreshNominal,  Kind::kFreshBaseline, Kind::kFreshBaseline,
    Kind::kFreshBaseline, Kind::kFreshBaseline, Kind::kFreshBaseline,
    Kind::kFreshBaseline, Kind::kRepeat,        Kind::kRepeat,
    Kind::kRepeat};

}  // namespace

std::vector<Arrival> arrival_schedule(std::uint64_t seed,
                                      const LoadShape& shape) {
  SplitMix64 rng(seed ^ 0x5E5A3E5E2B3E5EEDULL);

  struct Key {
    std::string preset;
    std::uint64_t seed;
  };
  std::vector<Key> keys;
  std::vector<double> cumulative;
  double total = 0.0;
  for (std::size_t k = 0; k < shape.repeat_keys; ++k) {
    keys.push_back({k % 4 == 0 ? "nominal" : "baseline", rng.next()});
    total += 1.0 / static_cast<double>(k + 1);
    cumulative.push_back(total);
  }

  std::vector<Arrival> out;
  std::array<Kind, kBlock.size()> block = kBlock;
  std::size_t in_block = block.size();
  const auto phase = [&](double rate, double start_s, double length_s,
                         bool overload) {
    double t = start_s;
    for (;;) {
      t += -std::log(1.0 - rng.uniform()) / rate;
      if (t >= start_s + length_s) return;
      if (in_block == block.size()) {
        for (std::size_t i = block.size(); i > 1; --i) {
          std::swap(block[i - 1], block[rng.below(i)]);
        }
        in_block = 0;
      }
      Arrival a;
      a.due_s = t;
      a.overload = overload;
      a.tenant = rng.below(shape.tenants);
      switch (block[in_block++]) {
        case Kind::kFreshNominal:
          a.preset = "nominal";
          a.campaign_seed = rng.next();
          break;
        case Kind::kFreshBaseline:
          a.preset = "baseline";
          a.campaign_seed = rng.next();
          break;
        case Kind::kRepeat: {
          const double u = rng.uniform() * total;
          const auto k = static_cast<std::size_t>(
              std::upper_bound(cumulative.begin(), cumulative.end(), u) -
              cumulative.begin());
          const Key& key = keys[std::min(k, keys.size() - 1)];
          a.repeat = true;
          a.preset = key.preset;
          a.campaign_seed = key.seed;
          break;
        }
      }
      out.push_back(std::move(a));
    }
  };
  phase(shape.light_rate_per_s, 0.0, shape.light_s, false);
  phase(shape.overload_rate_per_s, shape.light_s, shape.overload_s, true);
  return out;
}

}  // namespace e2ebench
