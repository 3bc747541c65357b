#include "sesame/service/http.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <utility>

#include "sesame/eddi/ode.hpp"

namespace sesame::service {

namespace {

using eddi::ode::Value;

/// Per-connection buffering bounds: a head that never ends, or a declared
/// body past this size, fails the connection instead of growing it.
constexpr std::size_t kMaxHeadBytes = 64 * 1024;
constexpr std::size_t kMaxBodyBytes = 1024 * 1024;

const char* status_text(int code) {
  switch (code) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 429: return "Too Many Requests";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

HttpResponse error_response(int status, const std::string& message) {
  return HttpResponse{status, "application/json",
                      Value(Value::Object{{"error", message}}).to_json()};
}

/// Parses "cursor=N" out of a query string; 0 when absent/garbled.
std::size_t parse_cursor(const std::string& query) {
  const std::string key = "cursor=";
  std::size_t pos = 0;
  while (pos < query.size()) {
    const std::size_t amp = query.find('&', pos);
    const std::string part =
        query.substr(pos, amp == std::string::npos ? amp : amp - pos);
    if (part.rfind(key, 0) == 0) {
      return static_cast<std::size_t>(std::atoll(part.c_str() + key.size()));
    }
    if (amp == std::string::npos) break;
    pos = amp + 1;
  }
  return 0;
}

/// Splits "/api/v1/jobs/<id>[/suffix]"; returns false on a non-job path.
bool parse_job_path(const std::string& path, std::uint64_t& id,
                    std::string& suffix) {
  const std::string prefix = "/api/v1/jobs/";
  if (path.rfind(prefix, 0) != 0) return false;
  const std::string rest = path.substr(prefix.size());
  const std::size_t slash = rest.find('/');
  const std::string id_part =
      slash == std::string::npos ? rest : rest.substr(0, slash);
  if (id_part.empty() ||
      !std::all_of(id_part.begin(), id_part.end(), [](unsigned char c) {
        return std::isdigit(c) != 0;
      })) {
    return false;
  }
  id = std::strtoull(id_part.c_str(), nullptr, 10);
  suffix = slash == std::string::npos ? "" : rest.substr(slash + 1);
  return true;
}

}  // namespace

std::string serialize_response(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    status_text(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

std::optional<HttpRequest> HttpConnection::feed(const char* data,
                                                std::size_t n) {
  if (failed_) return std::nullopt;
  buffer_.append(data, n);
  const std::size_t head_end = buffer_.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    if (buffer_.size() > kMaxHeadBytes) failed_ = true;  // runaway head
    return std::nullopt;
  }

  HttpRequest req;
  std::size_t line_start = 0;
  std::size_t line_end = buffer_.find("\r\n");
  {
    const std::string line = buffer_.substr(0, line_end);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
    if (sp2 == std::string::npos) {
      failed_ = true;
      return std::nullopt;
    }
    req.method = line.substr(0, sp1);
    std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::size_t q = target.find('?');
    if (q != std::string::npos) {
      req.query = target.substr(q + 1);
      target.resize(q);
    }
    req.path = std::move(target);
  }
  line_start = line_end + 2;
  while (line_start < head_end) {
    line_end = buffer_.find("\r\n", line_start);
    const std::string line = buffer_.substr(line_start, line_end - line_start);
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string key = line.substr(0, colon);
      std::transform(key.begin(), key.end(), key.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
      });
      std::size_t vstart = colon + 1;
      while (vstart < line.size() && line[vstart] == ' ') ++vstart;
      req.headers[key] = line.substr(vstart);
    }
    line_start = line_end + 2;
  }

  std::size_t content_length = 0;
  if (const auto it = req.headers.find("content-length");
      it != req.headers.end()) {
    // ASCII digits only: from_chars into an unsigned type takes no sign,
    // no whitespace and no empty value; overflow is an error too.
    const std::string& v = it->second;
    const auto [end, ec] =
        std::from_chars(v.data(), v.data() + v.size(), content_length);
    if (ec != std::errc{} || end != v.data() + v.size() ||
        content_length > kMaxBodyBytes) {
      failed_ = true;
      return std::nullopt;
    }
  }
  const std::size_t body_start = head_end + 4;
  if (buffer_.size() - body_start < content_length) return std::nullopt;
  req.body = buffer_.substr(body_start, content_length);
  return req;
}

HttpResponse handle_request(CampaignService& service, const HttpRequest& req) {
  try {
    if (req.path == "/healthz") {
      return HttpResponse{200, "text/plain", "ok\n"};
    }
    if (req.path == "/metrics") {
      return HttpResponse{200, "text/plain; version=0.0.4",
                          service.metrics_prometheus()};
    }
    if (req.path == "/api/v1/campaigns") {
      if (req.method != "POST") {
        return error_response(405, "POST required");
      }
      Submission submission;
      try {
        submission = submission_from_json(req.body);
      } catch (const std::exception& e) {
        return error_response(400, e.what());
      }
      const SubmitOutcome out = service.submit(submission);
      if (!out.accepted) {
        const int status = out.reject_reason == "draining" ? 503 : 429;
        return error_response(status, out.reject_reason);
      }
      const JobStatus status = service.status(out.job_id);
      const Value doc =
          Value::Object{{"job", out.job_id},
                        {"state", job_state_name(status.state)},
                        {"digest", std::to_string(status.digest)}};
      return HttpResponse{202, "application/json", doc.to_json()};
    }

    std::uint64_t id = 0;
    std::string suffix;
    if (parse_job_path(req.path, id, suffix)) {
      if (req.method != "GET") return error_response(405, "GET required");
      JobStatus status;
      try {
        status = service.status(id);
      } catch (const std::out_of_range&) {
        return error_response(404, "no such job");
      }
      if (suffix.empty()) {
        return HttpResponse{200, "application/json",
                            status_to_json(status).to_json()};
      }
      if (suffix == "events") {
        const Value doc = events_to_json(service, id, parse_cursor(req.query));
        return HttpResponse{200, "application/json", doc.to_json()};
      }
      if (suffix == "report") {
        if (status.state != JobState::kCompleted) {
          return error_response(404, "report not ready (state " +
                                         std::string(job_state_name(
                                             status.state)) +
                                         ")");
        }
        // The byte-identity surface: report bytes verbatim, untouched.
        return HttpResponse{200, "application/json", service.report(id)};
      }
      return error_response(404, "unknown job resource");
    }
    return error_response(404, "unknown path");
  } catch (const std::exception& e) {
    return error_response(500, e.what());
  }
}

}  // namespace sesame::service
