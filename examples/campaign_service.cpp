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
// observability bundle. Each connection is a service::ServiceConnection;
// its limits (high water, connection cap, idle timeout) are constants
// (docs/SERVICE.md, "Connections").
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
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "sesame/mw/bus.hpp"
#include "sesame/security/attack_tree.hpp"
#include "sesame/security/security_eddi.hpp"
#include "sesame/service/connection.hpp"
#include "sesame/service/drain.hpp"
#include "sesame/service/service.hpp"

namespace {

using namespace sesame;

/// Binds a non-blocking loopback listener; fills in the bound port.
int make_listener(std::uint16_t port, std::uint16_t& bound) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
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

  service::ConnectionContext context{svc, alert_bus, wire_obs};
  std::map<int, service::ServiceConnection> conns;
  std::uint64_t next_wire_link = 1;

  while (!drain.requested()) {
    // At the connection cap the listeners leave the poll set; new
    // connects wait in the listen backlog.
    const bool accepting = conns.size() < service::kMaxConnections;
    std::vector<pollfd> fds;
    if (accepting) {
      fds.push_back({http_fd, POLLIN, 0});
      fds.push_back({wire_fd, POLLIN, 0});
    }
    for (const auto& [fd, conn] : conns) {
      fds.push_back({fd, conn.poll_events(), 0});
    }
    const int ready = ::poll(fds.data(), fds.size(), 200);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks the latch
      std::fprintf(stderr, "poll: %s\n", std::strerror(errno));
      break;
    }
    const double now = now_s();

    for (const int listener : {http_fd, wire_fd}) {
      while (conns.size() < service::kMaxConnections) {
        const int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0) break;
        conns.try_emplace(
            fd, fd, context, now,
            listener == http_fd
                ? std::string()
                : "service_wire_" + std::to_string(next_wire_link++));
      }
    }

    for (const auto& pfd : fds) {
      if (pfd.revents == 0) continue;
      if (const auto it = conns.find(pfd.fd); it != conns.end()) {
        it->second.service(pfd.revents, now);
      }
    }
    std::erase_if(conns, [&](const auto& entry) {
      const char* end = entry.second.finished(now);
      if (end != nullptr && std::string_view(end) != "closed") {
        wire_obs.metrics
            .counter("sesame.service.client_disconnects_total",
                     {{"reason", end}})
            .inc();
      }
      return end != nullptr;
    });
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
  conns.clear();
  ::close(http_fd);
  ::close(wire_fd);
  if (eddi.attack_detected()) {
    std::fprintf(stderr, "security: wire attack tree goal was reached\n");
  }
  return 0;
}
