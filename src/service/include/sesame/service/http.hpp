// Minimal HTTP/1.1 adapter for the campaign service (docs/SERVICE.md).
//
// Just enough protocol for `curl` and the campaign_submit client — no
// chunked encoding, no keep-alive pipelining games, no TLS. Parsing is
// incremental and transport-agnostic: the daemon feeds whatever bytes the
// socket produced into an HttpConnection and writes back the serialized
// response; tests feed strings. Routes:
//
//   POST /api/v1/campaigns        submission JSON -> 202 {job,...} or
//                                 400 (malformed) / 429 (capacity) /
//                                 503 (draining)
//   GET  /api/v1/jobs/<id>        status JSON
//   GET  /api/v1/jobs/<id>/events?cursor=N
//                                 {"events": [...], "next": M}
//   GET  /api/v1/jobs/<id>/report RAW report bytes (exactly the bytes
//                                 campaign_cli --json writes — the
//                                 byte-identity surface; never reformatted)
//   GET  /metrics                 service registry, Prometheus text
//   GET  /healthz                 200 "ok"
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>

#include "sesame/service/service.hpp"

namespace sesame::service {

struct HttpRequest {
  std::string method;
  std::string path;    ///< without the query string
  std::string query;   ///< bytes after '?' (may be empty)
  std::map<std::string, std::string> headers;  ///< keys lower-cased
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// Serializes a response (HTTP/1.1, explicit Content-Length, close).
std::string serialize_response(const HttpResponse& response);

/// One connection's incremental request parser. feed() returns a complete
/// request once the head + Content-Length body have arrived, nullopt while
/// more bytes are needed. A malformed head, a head over 64 KiB, or a
/// Content-Length that is not plain digits or exceeds 1 MiB sets failed()
/// — close the connection. One request per connection (Connection: close
/// semantics).
class HttpConnection {
 public:
  std::optional<HttpRequest> feed(const char* data, std::size_t n);
  bool failed() const noexcept { return failed_; }

 private:
  std::string buffer_;
  bool failed_ = false;
};

/// Routes one request onto the service. Never throws: errors become 4xx /
/// 5xx JSON bodies ({"error": ...}).
HttpResponse handle_request(CampaignService& service, const HttpRequest& req);

}  // namespace sesame::service
