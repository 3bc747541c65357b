// Campaign submissions: the JSON unit of work the campaign service accepts
// over HTTP and the framed wire transport (docs/SERVICE.md).
//
// A submission names WHAT to run — (preset, scenario config, runs, seed,
// chaos) — never HOW to run it: worker counts, executor placement and
// queueing are the service's concern, and none of them may influence the
// produced report (the byte-identity contract). The same separation drives
// the result-cache key: two submissions that resolve to the same scenario
// bits, run count and seed produce the same report bytes by construction,
// so the cache digest covers the *resolved* canonical scenario form — not
// the submission text — plus the preset name, run count and seed.
// Formatting differences and config key order cannot split the cache.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sesame/campaign/campaign.hpp"
#include "sesame/campaign/scenario_factory.hpp"
#include "sesame/eddi/ode.hpp"

namespace sesame::service {

/// One campaign submission. Parsed from the client's JSON document; also
/// re-serialized verbatim into the drain spool, so every field must
/// round-trip through submission_to_json/submission_from_json.
struct Submission {
  std::string tenant = "default";  ///< fair-scheduling + quota identity
  /// Scenario preset name (campaign::ScenarioFactory::preset); empty uses
  /// the default scenario.
  std::string preset;
  /// Optional scenario configuration document (platform::config_io
  /// format). Like campaign_cli's --config, it REPLACES the preset's base
  /// scenario; the preset still contributes its chaos mode. Empty = none.
  std::string config_json;
  std::size_t runs = 16;
  std::uint64_t seed = 1;
  bool chaos = false;  ///< force chaos mode on top of preset/config
  bool collect_metrics = true;
};

/// Reads a submission document. Throws std::runtime_error on malformed
/// JSON or unknown keys (a typo must not silently become a default) and
/// std::invalid_argument, naming the field, on wrongly typed or
/// structurally bad values (runs == 0, negative or fractional counts,
/// unknown preset — resolution is attempted so rejection happens at submit
/// time, not minutes later on an executor).
Submission submission_from_value(const eddi::ode::Value& doc);
/// parse_json + submission_from_value.
Submission submission_from_json(const std::string& text);

/// Canonical form (sorted keys, defaults included) used by the drain
/// spool, the adapters and the tests; submission_to_json is its text.
eddi::ode::Value submission_to_value(const Submission& s);
std::string submission_to_json(const Submission& s);

/// A submission resolved against presets/config into runnable form.
struct ResolvedCampaign {
  campaign::ScenarioFactory factory{platform::RunnerConfig{}};
  campaign::CampaignConfig config;  ///< jobs left 1; the service sets it
  /// Cache key: FNV-1a 64 over (preset, canonical resolved scenario JSON,
  /// chaos profile, runs, seed, collect_metrics).
  std::uint64_t digest = 0;
  /// Price of one run: vehicle-ticks (n_uavs × ⌈max_time_s / dt_s⌉) plus
  /// coverage cells (area / (5 m)²) plus persons. Not finite when the
  /// scenario's numbers overflow a double.
  double run_cost = 0.0;
};

/// The most one run may cost to be admitted: about 4× fleet_1024's
/// 947k (307k vehicle-ticks, 640k cells, 256 persons), so a run — and a
/// drain that waits for it — stays bounded in time and memory.
inline constexpr double kMaxRunCost = 4'000'000.0;

/// Resolves preset + config overrides and computes the cache digest.
/// Throws like submission_from_json on bad presets/configs.
ResolvedCampaign resolve(const Submission& s);

/// FNV-1a 64-bit (exposed for tests and the bench's digest checks).
std::uint64_t fnv1a64(std::string_view bytes) noexcept;

}  // namespace sesame::service
