#include "sesame/obs/sinks.hpp"

#include <cstdio>
#include <stdexcept>

namespace sesame::obs {

std::vector<TraceEvent> MemorySink::named(const std::string& name) const {
  std::vector<TraceEvent> out;
  for (const auto& e : events_) {
    if (e.name == name) out.push_back(e);
  }
  return out;
}

JsonLinesSink::JsonLinesSink(const std::string& path) : file_(path) {
  if (!file_) {
    throw std::runtime_error("JsonLinesSink: cannot open " + path);
  }
  out_ = &file_;
}

void JsonLinesSink::consume(const TraceEvent& event) {
  *out_ << to_json_line(event) << '\n';
  ++events_written_;
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

std::string to_json_line(const TraceEvent& event) {
  char num[64];
  std::string out = "{\"kind\":\"";
  out += event.kind == TraceEvent::Kind::kSpan ? "span" : "event";
  out += "\",\"name\":\"" + json_escape(event.name) + "\"";
  out += ",\"span_id\":" + std::to_string(event.span_id);
  out += ",\"parent_id\":" + std::to_string(event.parent_id);
  std::snprintf(num, sizeof num, "%.1f", event.start_us);
  out += ",\"start_us\":";
  out += num;
  if (event.kind == TraceEvent::Kind::kSpan) {
    std::snprintf(num, sizeof num, "%.1f", event.duration_us);
    out += ",\"duration_us\":";
    out += num;
  }
  if (!event.attributes.empty()) {
    out += ",\"attrs\":{";
    bool first = true;
    for (const auto& [k, v] : event.attributes) {
      if (!first) out += ',';
      first = false;
      out += "\"" + json_escape(k) + "\":\"" + json_escape(v) + "\"";
    }
    out += '}';
  }
  out += '}';
  return out;
}

}  // namespace sesame::obs
