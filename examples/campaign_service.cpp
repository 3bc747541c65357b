// campaign_service: the campaign-as-a-service mission daemon
// (docs/SERVICE.md).
//
// Runs a CampaignService behind two loopback listeners:
//   - an HTTP/1.1 endpoint (curl-friendly; routes in service/http.hpp);
//   - a framed wire endpoint speaking the mw::Framing protocol
//     (campaign_submit --transport wire), with a security::WireMonitor
//     per session feeding a Security EDDI — tampered or replayed frames
//     on the submission link raise IDS alerts like any other intrusion.
//
// Usage:
//   campaign_service [--http-port P] [--wire-port P] [--executors N]
//                    [--jobs J] [--spool DIR] [--max-queued N]
//
// --http-port / --wire-port 0 picks an ephemeral port; the daemon prints
//   `listening http=P wire=P` once bound (smoke scripts parse this line).
// --executors: campaigns running concurrently; --jobs: worker threads per
//   campaign (report bytes are identical for any value of either).
// --spool DIR: graceful-drain spool. On SIGINT/SIGTERM the daemon stops
//   claiming work, lets in-flight runs finish, and writes every
//   unfinished submission to DIR as canonical JSON; on startup it
//   re-submits and deletes any spooled files it finds there. With no
//   spool dir, drained submissions are counted and dropped.
//
// Everything is single-threaded except the service's executor pool; the
// poll() loop owns all sockets, wire sessions and the wire-security
// observability bundle.
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sesame/mw/bus.hpp"
#include "sesame/security/attack_tree.hpp"
#include "sesame/security/security_eddi.hpp"
#include "sesame/service/drain.hpp"
#include "sesame/service/http.hpp"
#include "sesame/service/service.hpp"
#include "sesame/service/wire.hpp"

namespace {

using namespace sesame;

struct Connection {
  int fd = -1;
  bool is_wire = false;
  service::HttpConnection http;
  std::unique_ptr<service::WireSession> wire;
  std::string out;       ///< bytes waiting for the socket
  bool closing = false;  ///< close once `out` drains (HTTP: after response)
};

/// Binds a non-blocking loopback listener; fills in the bound port.
int make_listener(std::uint16_t port, std::uint16_t& bound) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  bound = ntohs(addr.sin_port);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Replays spooled submissions left by a previous drain.
std::size_t replay_spool(service::CampaignService& svc,
                         const std::filesystem::path& dir) {
  std::size_t replayed = 0;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());  // deterministic replay order
  for (const auto& file : files) {
    std::ifstream in(file);
    std::stringstream buf;
    buf << in.rdbuf();
    try {
      const auto outcome =
          svc.submit(service::submission_from_json(buf.str()));
      if (!outcome.accepted) {
        std::fprintf(stderr, "spool %s rejected: %s (left in place)\n",
                     file.c_str(), outcome.reject_reason.c_str());
        continue;
      }
      ++replayed;
      std::filesystem::remove(file);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "spool %s unreadable: %s (left in place)\n",
                   file.c_str(), e.what());
    }
  }
  return replayed;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t http_port = 8765;
  std::uint16_t wire_port = 8766;
  std::string spool_dir;
  service::ServiceLimits limits;

  for (int i = 1; i < argc; ++i) {
    const auto need_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--http-port") == 0) {
      http_port = static_cast<std::uint16_t>(std::atoi(need_value(argv[i])));
    } else if (std::strcmp(argv[i], "--wire-port") == 0) {
      wire_port = static_cast<std::uint16_t>(std::atoi(need_value(argv[i])));
    } else if (std::strcmp(argv[i], "--executors") == 0) {
      limits.executors =
          static_cast<std::size_t>(std::atoi(need_value(argv[i])));
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      limits.jobs_per_campaign =
          static_cast<std::size_t>(std::atoi(need_value(argv[i])));
    } else if (std::strcmp(argv[i], "--max-queued") == 0) {
      limits.max_queued =
          static_cast<std::size_t>(std::atoi(need_value(argv[i])));
    } else if (std::strcmp(argv[i], "--spool") == 0) {
      spool_dir = need_value(argv[i]);
    } else {
      std::fprintf(stderr, "unknown flag '%s' (see the file header)\n",
                   argv[i]);
      return 2;
    }
  }

  service::CampaignService svc(limits);

  // Wire-link security: per-session monitors publish IDS alerts here; one
  // Security EDDI watches the spoofing tree over all submission links.
  mw::Bus alert_bus;
  security::SecurityEddi eddi(alert_bus,
                              security::make_spoofing_attack_tree());
  obs::Observability wire_obs;

  if (!spool_dir.empty()) {
    std::filesystem::create_directories(spool_dir);
    const std::size_t replayed = replay_spool(svc, spool_dir);
    if (replayed > 0) {
      std::printf("replayed %zu spooled submission(s)\n", replayed);
    }
  }

  service::DrainSignal drain;

  std::uint16_t http_bound = 0;
  std::uint16_t wire_bound = 0;
  const int http_fd = make_listener(http_port, http_bound);
  const int wire_fd = make_listener(wire_port, wire_bound);
  if (http_fd < 0 || wire_fd < 0) {
    std::fprintf(stderr, "failed to bind listeners (%s)\n",
                 std::strerror(errno));
    return 1;
  }
  std::printf("listening http=%u wire=%u\n", http_bound, wire_bound);
  std::fflush(stdout);

  const auto started = std::chrono::steady_clock::now();
  const auto now_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         started)
        .count();
  };

  std::map<int, Connection> conns;
  std::uint64_t next_wire_link = 1;

  while (!drain.requested()) {
    std::vector<pollfd> fds;
    fds.push_back({http_fd, POLLIN, 0});
    fds.push_back({wire_fd, POLLIN, 0});
    for (auto& [fd, conn] : conns) {
      short events = POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
    }
    const int ready = ::poll(fds.data(), fds.size(), 200);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks the latch
      std::fprintf(stderr, "poll: %s\n", std::strerror(errno));
      break;
    }

    // New connections.
    for (const int listener : {http_fd, wire_fd}) {
      for (;;) {
        const int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0) break;
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
        Connection conn;
        conn.fd = fd;
        conn.is_wire = listener == wire_fd;
        if (conn.is_wire) {
          conn.wire = std::make_unique<service::WireSession>(
              svc, alert_bus,
              "service_wire_" + std::to_string(next_wire_link++));
          conn.wire->set_observability(&wire_obs);
          conn.wire->start();
          const auto bytes = conn.wire->take_outbound();
          conn.out.append(reinterpret_cast<const char*>(bytes.data()),
                          bytes.size());
        }
        conns.emplace(fd, std::move(conn));
      }
    }

    std::vector<int> closed;
    for (auto& pfd : fds) {
      const auto it = conns.find(pfd.fd);
      if (it == conns.end()) continue;
      Connection& conn = it->second;

      if ((pfd.revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        char buf[4096];
        const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
        if (n <= 0 && !(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))) {
          if (conn.out.empty()) {
            closed.push_back(conn.fd);
            continue;
          }
          conn.closing = true;  // flush what we owe, then close
        } else if (n > 0) {
          if (conn.is_wire) {
            conn.wire->feed(std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(buf),
                static_cast<std::size_t>(n)));
            conn.wire->poll_security(now_s());
            const auto bytes = conn.wire->take_outbound();
            conn.out.append(reinterpret_cast<const char*>(bytes.data()),
                            bytes.size());
          } else {
            if (auto req = conn.http.feed(buf, static_cast<std::size_t>(n))) {
              service::HttpResponse resp =
                  service::handle_request(svc, *req);
              // The daemon augments /metrics with the wire-security
              // families (sesame.security.wire_*) its monitors maintain.
              if (req->path == "/metrics" && resp.status == 200) {
                resp.body += wire_obs.metrics.render_prometheus();
              }
              conn.out = service::serialize_response(resp);
              conn.closing = true;
            } else if (conn.http.failed()) {
              closed.push_back(conn.fd);
              continue;
            }
          }
        }
      }

      if (!conn.out.empty()) {
        // MSG_NOSIGNAL: a client that reset its connection must cost us
        // that connection only, not a SIGPIPE that kills the daemon.
        const ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(),
                                 MSG_NOSIGNAL);
        if (n > 0) {
          conn.out.erase(0, static_cast<std::size_t>(n));
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          // EPIPE / ECONNRESET: the unsent bytes can never be delivered.
          closed.push_back(conn.fd);
          continue;
        }
      }
      if (conn.out.empty() && conn.closing) closed.push_back(conn.fd);
    }
    for (const int fd : closed) {
      ::close(fd);
      conns.erase(fd);
    }
  }

  // Graceful drain: finish in-flight runs, spool everything unfinished.
  std::fprintf(stderr, "drain: waiting for in-flight runs...\n");
  const auto spooled = svc.drain();
  if (!spooled.empty() && !spool_dir.empty()) {
    std::size_t index = 0;
    for (const auto& submission : spooled) {
      const auto path = std::filesystem::path(spool_dir) /
                        ("spool-" + std::to_string(index++) + ".json");
      std::ofstream out(path);
      out << service::submission_to_json(submission) << '\n';
    }
    std::fprintf(stderr, "drain: spooled %zu submission(s) to %s\n",
                 spooled.size(), spool_dir.c_str());
  } else if (!spooled.empty()) {
    std::fprintf(stderr, "drain: dropped %zu submission(s) (no --spool)\n",
                 spooled.size());
  }
  for (auto& [fd, conn] : conns) ::close(fd);
  ::close(http_fd);
  ::close(wire_fd);
  if (eddi.attack_detected()) {
    std::fprintf(stderr, "security: wire attack tree goal was reached\n");
  }
  return 0;
}
