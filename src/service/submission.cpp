#include "sesame/service/submission.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "sesame/eddi/ode.hpp"
#include "sesame/platform/config_io.hpp"

namespace sesame::service {

namespace {

using eddi::ode::Value;

/// A seed string: decimal digits only, within 64 bits.
std::uint64_t decimal_u64(const std::string& text) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || stop != end) {
    throw std::invalid_argument("expected decimal digits within 64 bits");
  }
  return v;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

Submission submission_from_value(const Value& doc) {
  if (!doc.is_object()) {
    throw std::runtime_error("submission: top level must be an object");
  }
  Submission s;
  for (const auto& [key, value] : doc.as_object()) {
    try {
      if (key == "tenant") {
        s.tenant = value.as_string();
      } else if (key == "preset") {
        s.preset = value.as_string();
      } else if (key == "config") {
        if (!value.is_object()) {
          throw std::invalid_argument("expected object");
        }
        s.config_json = value.to_json();
      } else if (key == "runs") {
        s.runs = value.as_integer<std::size_t>();
      } else if (key == "seed") {
        // Seeds travel as decimal strings (64-bit range; JSON numbers are
        // doubles), but plain numbers are accepted for hand-written docs.
        s.seed = value.is_string() ? decimal_u64(value.as_string())
                                   : value.as_integer<std::uint64_t>();
      } else if (key == "chaos") {
        s.chaos = value.as_bool();
      } else if (key == "collect_metrics") {
        s.collect_metrics = value.as_bool();
      } else {
        throw std::runtime_error("submission: unknown key '" + key + "'");
      }
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("submission: " + key + ": " + e.what());
    }
  }
  if (s.tenant.empty()) {
    throw std::invalid_argument("submission: tenant must be non-empty");
  }
  if (s.runs == 0) {
    throw std::invalid_argument("submission: runs must be positive");
  }
  resolve(s);  // validate preset/config now, not on an executor later
  return s;
}

Submission submission_from_json(const std::string& text) {
  return submission_from_value(eddi::ode::parse_json(text));
}

Value submission_to_value(const Submission& s) {
  Value doc;
  doc["tenant"] = s.tenant;
  doc["preset"] = s.preset;
  if (!s.config_json.empty()) {
    doc["config"] = eddi::ode::parse_json(s.config_json);
  }
  doc["runs"] = s.runs;
  doc["seed"] = std::to_string(s.seed);
  doc["chaos"] = s.chaos;
  doc["collect_metrics"] = s.collect_metrics;
  return doc;
}

std::string submission_to_json(const Submission& s) {
  return submission_to_value(s).to_json();
}

ResolvedCampaign resolve(const Submission& s) {
  campaign::ScenarioFactory factory =
      s.preset.empty()
          ? campaign::ScenarioFactory(
                campaign::ScenarioFactory::default_scenario())
          : campaign::ScenarioFactory::preset(s.preset);
  const bool preset_chaos = factory.chaos_enabled();
  if (!s.config_json.empty()) {
    // Same composition as campaign_cli: --config replaces the scenario
    // while the preset keeps contributing its chaos mode.
    platform::RunnerConfig scenario =
        platform::config_from_json(eddi::ode::parse_json(s.config_json));
    campaign::ScenarioFactory replaced(std::move(scenario));
    if (preset_chaos) replaced.enable_chaos();
    factory = std::move(replaced);
  }
  if (s.chaos && !factory.chaos_enabled()) factory.enable_chaos();

  ResolvedCampaign r{std::move(factory), {}, 0, 0.0};
  r.config.runs = s.runs;
  r.config.seed = s.seed;
  r.config.jobs = 1;  // the service decides; never part of the identity
  r.config.collect_metrics = s.collect_metrics;

  // Digest the RESOLVED scenario, not the submission text: canonical
  // config JSON has sorted keys and every field, so formatting and
  // preset-vs-explicit-config spelling differences cannot split the cache.
  std::string canon = "preset=" + s.preset + '\n';
  canon += platform::config_to_json(r.factory.base()).to_json();
  canon += "\nchaos=";
  canon += r.factory.chaos_enabled() ? '1' : '0';
  canon += "\nruns=" + std::to_string(s.runs);
  canon += "\nseed=" + std::to_string(s.seed);
  canon += "\nmetrics=";
  canon += s.collect_metrics ? '1' : '0';
  r.digest = fnv1a64(canon);

  // Magnitudes, so an inverted area or a negative time cannot buy a
  // discount.
  const platform::RunnerConfig& base = r.factory.base();
  constexpr double kCellM = 5.0;
  r.run_cost =
      static_cast<double>(base.n_uavs) *
          std::ceil(std::fabs(base.max_time_s / base.dt_s)) +
      std::fabs(base.area.width() * base.area.height()) / (kCellM * kCellM) +
      static_cast<double>(base.n_persons);
  return r;
}

}  // namespace sesame::service
