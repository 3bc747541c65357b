#include "sesame/platform/config_io.hpp"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace sesame::platform {

namespace ode = eddi::ode;

namespace {

// Each config struct's JSON shape lives in one `fields(io, s)` overload:
// `io(key, member)` per field; a true third argument leaves the field out
// of the written document. to_value (through Writer) and read (through
// Reader) walk the same lists, so every key is spelled once and every
// field gets the same type check and unknown-key rule.

template <class S, class T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

template <class IO, Is<RecoveryConfig> S>
void fields(IO& io, S& c) {
  io("staleness_window_s", c.staleness_window_s);
  io("ping_timeout_s", c.ping_timeout_s);
  io("max_pings", c.max_pings);
  io("ping_backoff", c.ping_backoff);
  io("demote_grace_s", c.demote_grace_s);
  io("rth_timeout_s", c.rth_timeout_s);
  io("min_soc_rtb", c.min_soc_rtb);
}

template <class IO, Is<InvariantConfig> S>
void fields(IO& io, S& c) {
  io("min_soc_floor", c.min_soc_floor);
  io("max_evidence_age_s", c.max_evidence_age_s);
}

template <class IO, Is<sim::CommLinkConfig> S>
void fields(IO& io, S& c) {
  io("nominal_range_m", c.nominal_range_m);
  io("max_range_m", c.max_range_m);
  io("fading_sigma", c.fading_sigma);
  io("usable_threshold", c.usable_threshold);
}

template <class IO, Is<sar::Area> S>
void fields(IO& io, S& a) {
  io("east_min", a.east_min);
  io("east_max", a.east_max);
  io("north_min", a.north_min);
  io("north_max", a.north_max);
}

template <class IO, Is<sar::CoverageConfig> S>
void fields(IO& io, S& c) {
  io("altitude_m", c.altitude_m);
  io("lane_spacing_m", c.lane_spacing_m);
  io("along_track_spacing_m", c.along_track_spacing_m);
}

template <class IO, Is<BatteryFaultEvent> S>
void fields(IO& io, S& e) {
  io("uav", e.uav);
  io("time_s", e.time_s);
  io("soc_after", e.soc_after);
  io("temp_c", e.temp_c);
}

template <class IO, Is<SpoofingEvent> S>
void fields(IO& io, S& e) {
  io("uav", e.uav);
  io("time_s", e.time_s);
  io("walk_mps", e.walk_mps);
}

template <class IO, Is<sim::FailureEvent> S>
void fields(IO& io, S& e) {
  io("uav", e.uav);
  io("mode", e.mode);  // by name
  io("time_s", e.time_s);
  io("duration_s", e.duration_s);
  io("soc_after", e.soc_after);
  io("temp_c", e.temp_c);
}

template <class IO, Is<sim::FailureSchedule> S>
void fields(IO& io, S& s) {
  io("events", s.events);
}

template <class IO, Is<mw::FaultRule> S>
void fields(IO& io, S& r) {
  io("topic_prefix", r.topic_prefix, r.topic_prefix.empty());
  io("topic_suffix", r.topic_suffix, r.topic_suffix.empty());
  io("source", r.source, r.source.empty());
  io("start_time_s", r.start_time_s);
  // Infinity is not representable in JSON; absent = never stops.
  io("stop_time_s", r.stop_time_s, !std::isfinite(r.stop_time_s));
  io("drop_probability", r.drop_probability);
  io("delay_probability", r.delay_probability);
  io("delay_steps", r.delay_steps);
  io("duplicate_probability", r.duplicate_probability);
  io("reorder", r.reorder);
}

template <class IO, Is<mw::FaultPlan> S>
void fields(IO& io, S& p) {
  io("seed", p.seed);
  io("rules", p.rules);
}

template <class IO, Is<RunnerConfig> S>
void fields(IO& io, S& c) {
  io("sesame_enabled", c.sesame_enabled);
  io("dt_s", c.dt_s);
  io("max_time_s", c.max_time_s);
  io("consert_period_s", c.consert_period_s);
  io("consert_eval_cache", c.consert_eval_cache);
  io("battery_swap_time_s", c.battery_swap_time_s);
  io("baseline_rtb_soc", c.baseline_rtb_soc);
  io("n_uavs", c.n_uavs);
  io("n_persons", c.n_persons);
  io("descend_altitude_m", c.descend_altitude_m);
  io("descend_patience", c.descend_patience);
  io("lossy_links", c.lossy_links);
  io("telemetry_staleness_window_s", c.telemetry_staleness_window_s);
  io("recovery_enabled", c.recovery_enabled);
  io("health_heartbeat_period_s", c.health_heartbeat_period_s);
  io("seed", c.seed);
  io("recovery", c.recovery);
  io("invariants", c.invariants);
  io("failure_schedule", c.failure_schedule);
  io("comm_link", c.comm_link);
  io("fault_plan", c.fault_plan);
  io("area", c.area);
  io("coverage", c.coverage);
  io("battery_fault", c.battery_fault);
  io("spoofing", c.spoofing);
}

template <class T> constexpr bool kIsOptional = false;
template <class T> constexpr bool kIsOptional<std::optional<T>> = true;
template <class T> constexpr bool kIsVector = false;
template <class T> constexpr bool kIsVector<std::vector<T>> = true;
/// A struct with its own `fields` list, i.e. a JSON object.
template <class T>
constexpr bool kIsSection =
    std::is_class_v<T> && !std::same_as<T, std::string>;

template <class T>
ode::Value to_value(const T& v);

struct Writer {
  ode::Value& doc;

  template <class T>
  void operator()(const char* key, const T& member, bool omit = false) {
    if (!omit) doc[key] = to_value(member);
  }
  template <class T>
  void operator()(const char* key, const std::optional<T>& member) {
    if (member) doc[key] = to_value(*member);
  }
};

template <class T>
ode::Value to_value(const T& v) {
  if constexpr (std::same_as<T, sim::FailureMode>) {
    return sim::failure_mode_name(v);
  } else if constexpr (std::integral<T> && !std::same_as<T, bool>) {
    return static_cast<double>(v);
  } else if constexpr (kIsVector<T>) {
    ode::Value list{ode::Value::Array{}};
    for (const auto& item : v) list.push_back(to_value(item));
    return list;
  } else if constexpr (kIsSection<T>) {
    ode::Value doc{ode::Value::Object{}};
    Writer writer{doc};
    fields(writer, v);
    return doc;
  } else {
    return v;  // double, bool, string
  }
}

/// A value error that names the field it happened in.
struct FieldError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Reads `v` into `out`; a wrongly typed or ranged value throws
/// std::invalid_argument naming `path`, an unknown key std::runtime_error.
/// Keys absent from an object keep the values `out` already has.
template <class T>
void read(const ode::Value& v, T& out, const std::string& path);

/// Matches one object key against a field list.
struct Reader {
  const std::string& key;
  const ode::Value& value;
  const std::string& path;
  bool matched = false;

  template <class T>
  void operator()(const char* name, T& member, bool /*omit*/ = false) {
    if (matched || key != name) return;
    matched = true;
    read(value, member, path.empty() ? key : path + '.' + key);
  }
};

template <class T>
void read(const ode::Value& v, T& out, const std::string& path) {
  try {
    if constexpr (kIsOptional<T>) {
      read(v, out.emplace(), path);
    } else if constexpr (kIsVector<T>) {
      const auto& items = v.as_array();
      out.clear();
      for (std::size_t i = 0; i < items.size(); ++i) {
        read(items[i], out.emplace_back(),
             path + '[' + std::to_string(i) + ']');
      }
    } else if constexpr (kIsSection<T>) {
      for (const auto& [key, value] : v.as_object()) {
        Reader reader{key, value, path};
        fields(reader, out);
        if (!reader.matched) {
          throw std::runtime_error("config_from_json: unknown key '" + key +
                                   "' in " + (path.empty() ? "config" : path));
        }
      }
      if constexpr (std::same_as<T, mw::FaultRule>) out.validate();
    } else if constexpr (std::same_as<T, sim::FailureMode>) {
      out = sim::failure_mode_from_name(v.as_string());
    } else if constexpr (std::same_as<T, bool>) {
      out = v.as_bool();
    } else if constexpr (std::integral<T>) {
      out = v.as_integer<T>();
    } else if constexpr (std::same_as<T, double>) {
      out = v.as_number();
    } else {
      out = v.as_string();
    }
  } catch (const FieldError&) {
    throw;  // an inner field already named itself
  } catch (const std::invalid_argument& e) {
    throw FieldError("config_from_json: " +
                     (path.empty() ? "top level" : path) + ": " + e.what());
  }
}

}  // namespace

eddi::ode::Value config_to_json(const RunnerConfig& config) {
  return to_value(config);
}

RunnerConfig config_from_json(const eddi::ode::Value& doc) {
  RunnerConfig config;
  read(doc, config, "");
  return config;
}

void save_config(const RunnerConfig& config, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_config: cannot open " + path);
  out << config_to_json(config).to_json() << '\n';
}

RunnerConfig load_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_config: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return config_from_json(eddi::ode::parse_json(buffer.str()));
}

}  // namespace sesame::platform
