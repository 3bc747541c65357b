// Trace sinks: an in-memory sink for tests/inspection and a JSON-lines
// file sink for offline analysis (one self-contained JSON object per
// line — loadable with `jq`, pandas, or any trace viewer after a trivial
// conversion; see docs/OBSERVABILITY.md for the schema and a real capture).
#pragma once

#include <fstream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sesame/obs/trace.hpp"

namespace sesame::obs {

/// Buffers every event in memory; what unit tests assert against.
class MemorySink : public TraceSink {
 public:
  void consume(const TraceEvent& event) override { events_.push_back(event); }

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  void clear() { events_.clear(); }

  /// Events with the given name, in arrival (i.e. span *end*) order.
  std::vector<TraceEvent> named(const std::string& name) const;

 private:
  std::vector<TraceEvent> events_;
};

/// Writes one JSON object per line:
///   {"kind":"span","name":"sesame.mission.run","span_id":1,"parent_id":0,
///    "start_us":12.0,"duration_us":3456.7,"attrs":{"uavs":"3"}}
/// Events omit "duration_us". Strings are JSON-escaped.
class JsonLinesSink : public TraceSink {
 public:
  /// Streams to `out` (caller keeps ownership; must outlive the sink).
  explicit JsonLinesSink(std::ostream& out) : out_(&out) {}
  /// Opens `path` for writing; throws std::runtime_error when that fails.
  explicit JsonLinesSink(const std::string& path);

  void consume(const TraceEvent& event) override;

  std::size_t events_written() const noexcept { return events_written_; }

 private:
  std::ofstream file_;
  std::ostream* out_ = nullptr;
  std::size_t events_written_ = 0;
};

/// Serializes one event to the JSON-lines form (without trailing newline).
std::string to_json_line(const TraceEvent& event);

/// Appends `s` JSON-escaped (without the surrounding quotes) to `out`: the
/// one string escape every JSON writer in the tree uses.
void append_json_escaped(std::string& out, std::string_view s);

/// append_json_escaped into a fresh string.
std::string json_escape(const std::string& s);

}  // namespace sesame::obs
