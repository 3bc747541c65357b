// campaign_submit: thin client for the campaign_service daemon
// (docs/SERVICE.md).
//
// Builds a submission from flags, submits it over HTTP or the framed wire
// transport, polls progress events to stderr, and writes the report bytes
// verbatim to --out (or stdout). Because the service's report surface is
// byte-identical to campaign_cli --json, `campaign_submit --preset X
// --runs N --seed S --out a.json` and `campaign_cli --preset X --runs N
// --seed S --json b.json` produce identical files.
//
// Usage:
//   campaign_submit [--port P] [--transport http|wire]
//                   [--tenant T] [--preset NAME] [--config FILE.json]
//                   [--runs N] [--seed S] [--chaos] [--no-metrics]
//                   [--out FILE]
//
// Exit codes: 0 report written; 1 transport/daemon failure; 2 bad flags;
// 3 submission rejected; 4 campaign failed on the service.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sesame/eddi/ode.hpp"
#include "sesame/mw/socket_pump.hpp"
#include "sesame/service/submission.hpp"
#include "sesame/service/wire.hpp"

namespace {

using namespace sesame;

int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One HTTP exchange (the daemon closes after each response). Returns the
/// full response text, empty on transport failure.
std::string http_exchange(std::uint16_t port, const std::string& request) {
  const int fd = dial(port);
  if (fd < 0) return {};
  mw::SocketPump pump(fd);
  pump.queue(request);
  std::string response;
  while (!pump.eof()) {
    pump.flush();
    pump.wait(-1);
    pump.read([&](std::span<const std::uint8_t> bytes) {
      response.append(reinterpret_cast<const char*>(bytes.data()),
                      bytes.size());
    });
  }
  return response;
}

/// Splits status code and body out of an HTTP/1.1 response.
bool split_response(const std::string& response, int& status,
                    std::string& body) {
  if (response.rfind("HTTP/1.1 ", 0) != 0) return false;
  status = std::atoi(response.c_str() + 9);
  const std::size_t head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  body = response.substr(head_end + 4);
  return true;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  return http_exchange(port, "GET " + path + " HTTP/1.1\r\n"
                             "Host: localhost\r\nConnection: close\r\n\r\n");
}

int write_report(const std::string& out_path, const std::string& report) {
  if (out_path.empty()) {
    std::fwrite(report.data(), 1, report.size(), stdout);
    return 0;
  }
  std::ofstream out(out_path, std::ios::binary);
  out.write(report.data(),
            static_cast<std::streamsize>(report.size()));
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s (%zu bytes)\n", out_path.c_str(),
               report.size());
  return 0;
}

void print_events(const eddi::ode::Value& events) {
  for (const auto& event : events.as_array()) {
    std::fprintf(stderr, "event: %s\n", event.to_json().c_str());
  }
}

int run_http(std::uint16_t port, const service::Submission& submission,
             const std::string& out_path) {
  const std::string body = service::submission_to_json(submission);
  const std::string response = http_exchange(
      port, "POST /api/v1/campaigns HTTP/1.1\r\nHost: localhost\r\n"
            "Content-Type: application/json\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
            body);
  int status = 0;
  std::string resp_body;
  if (!split_response(response, status, resp_body)) {
    std::fprintf(stderr, "no response from daemon on port %u\n", port);
    return 1;
  }
  if (status != 202) {
    std::fprintf(stderr, "submission rejected (%d): %s\n", status,
                 resp_body.c_str());
    return 3;
  }
  const auto accepted = eddi::ode::parse_json(resp_body);
  const auto job = accepted.at("job").as_integer<std::uint64_t>();
  const std::string base = "/api/v1/jobs/" + std::to_string(job);
  std::fprintf(stderr, "job %llu accepted\n",
               static_cast<unsigned long long>(job));

  std::size_t cursor = 0;
  for (;;) {
    std::string events_body;
    if (split_response(
            http_get(port, base + "/events?cursor=" + std::to_string(cursor)),
            status, events_body) &&
        status == 200) {
      const auto doc = eddi::ode::parse_json(events_body);
      print_events(doc.at("events"));
      cursor = doc.at("next").as_integer<std::size_t>();
    }
    std::string status_body;
    if (!split_response(http_get(port, base), status, status_body) ||
        status != 200) {
      std::fprintf(stderr, "daemon went away\n");
      return 1;
    }
    const auto doc = eddi::ode::parse_json(status_body);
    const std::string& state = doc.at("state").as_string();
    if (state == "completed") break;
    if (state == "failed" || state == "drained") {
      std::fprintf(stderr, "job %s: %s\n", state.c_str(),
                   status_body.c_str());
      return 4;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::string report;
  if (!split_response(http_get(port, base + "/report"), status, report) ||
      status != 200) {
    std::fprintf(stderr, "report fetch failed (%d)\n", status);
    return 1;
  }
  return write_report(out_path, report);
}

int run_wire(std::uint16_t port, const service::Submission& submission,
             const std::string& out_path) {
  const int fd = dial(port);
  if (fd < 0) {
    std::fprintf(stderr, "cannot connect to wire port %u\n", port);
    return 1;
  }
  mw::SocketPump pump(fd);
  service::WireClient client;
  client.start();
  client.submit(submission);

  std::uint64_t job = 0;
  bool accepted = false;
  auto last_poll = std::chrono::steady_clock::now() -
                   std::chrono::hours(1);
  std::size_t cursor = 0;

  for (;;) {
    if (client.has_outbound()) pump.queue(client.take_outbound());
    pump.flush();
    if (pump.write_failed()) {
      std::fprintf(stderr, "wire write failed\n");
      return 1;
    }
    // Wake at least every 100 ms so the loop keeps polling while the
    // campaign runs.
    pump.wait(100);
    pump.read([&](std::span<const std::uint8_t> bytes) { client.feed(bytes); });

    while (client.has_response()) {
      const auto doc = eddi::ode::parse_json(client.pop_response());
      const std::string& type = doc.at("type").as_string();
      if (type == "accepted") {
        job = doc.at("job").as_integer<std::uint64_t>();
        accepted = true;
        std::fprintf(stderr, "job %llu accepted\n",
                     static_cast<unsigned long long>(job));
      } else if (type == "rejected" || type == "error") {
        std::fprintf(stderr, "submission rejected: %s\n",
                     doc.to_json().c_str());
        return 3;
      } else if (type == "events") {
        print_events(doc.at("events"));
        cursor = doc.at("next").as_integer<std::size_t>();
      } else if (type == "status") {
        const std::string& state = doc.at("state").as_string();
        if (state == "failed" || state == "drained") {
          std::fprintf(stderr, "job %s: %s\n", state.c_str(),
                       doc.to_json().c_str());
          return 4;
        }
      }
    }

    if (client.report_received()) break;
    if (pump.eof()) {
      std::fprintf(stderr, "daemon closed the wire connection\n");
      return 1;
    }

    const auto now = std::chrono::steady_clock::now();
    if (accepted && client.established() &&
        now - last_poll > std::chrono::milliseconds(100)) {
      client.poll_events(job, cursor);
      last_poll = now;
    }
  }
  return write_report(out_path, client.report());
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 0;
  std::string transport = "http";
  std::string out_path;
  std::string config_path;
  service::Submission submission;

  for (int i = 1; i < argc; ++i) {
    const auto need_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      port = static_cast<std::uint16_t>(std::atoi(need_value(argv[i])));
    } else if (std::strcmp(argv[i], "--transport") == 0) {
      transport = need_value(argv[i]);
    } else if (std::strcmp(argv[i], "--tenant") == 0) {
      submission.tenant = need_value(argv[i]);
    } else if (std::strcmp(argv[i], "--preset") == 0) {
      submission.preset = need_value(argv[i]);
    } else if (std::strcmp(argv[i], "--config") == 0) {
      config_path = need_value(argv[i]);
    } else if (std::strcmp(argv[i], "--runs") == 0) {
      submission.runs =
          static_cast<std::size_t>(std::atoll(need_value(argv[i])));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      submission.seed =
          static_cast<std::uint64_t>(std::atoll(need_value(argv[i])));
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      submission.chaos = true;
    } else if (std::strcmp(argv[i], "--no-metrics") == 0) {
      submission.collect_metrics = false;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = need_value(argv[i]);
    } else {
      std::fprintf(stderr, "unknown flag '%s' (see the file header)\n",
                   argv[i]);
      return 2;
    }
  }
  if (port == 0) {
    std::fprintf(stderr, "--port is required (the daemon prints its ports)\n");
    return 2;
  }
  if (transport != "http" && transport != "wire") {
    std::fprintf(stderr, "--transport must be http or wire\n");
    return 2;
  }
  if (!config_path.empty()) {
    std::ifstream in(config_path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", config_path.c_str());
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    submission.config_json = buf.str();
  }

  try {
    return transport == "http" ? run_http(port, submission, out_path)
                               : run_wire(port, submission, out_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_submit: %s\n", e.what());
    return 1;
  }
}
