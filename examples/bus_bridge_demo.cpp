// Two-process bus federation over a socketpair (docs/PROTOCOL.md).
//
// The child process is the vehicle: its bus carries telemetry from a
// simulated UAV, and a BusBridge ships every publication through the
// framed wire protocol. The parent is the ground station: it watches
// the federated telemetry arrive on its *own* bus, and once enough has
// streamed in it publishes a return-to-home command — which crosses the
// same wire in the other direction and is acknowledged by the vehicle.
//
//   vehicle process                      GCS process
//   Bus ── BusBridge ── socketpair ── BusBridge ── Bus
//
// Everything the processes exchange is the byte protocol pinned in
// docs/PROTOCOL.md; run under `strace -e trace=read,write` to watch the
// COBS-delimited frames go by.
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sesame/mw/bus.hpp"
#include "sesame/mw/bus_bridge.hpp"
#include "sesame/mw/codec.hpp"
#include "sesame/sim/wire_types.hpp"
#include "sesame/sim/world.hpp"

using namespace sesame;

namespace {

/// Moves bytes between the bridge and the socket (both directions).
/// Returns false when the peer hung up. A peer that hangs up may still
/// have sent frames we have not read (the vehicle closes right after its
/// ack), so a failed write stops writing but still drains the socket.
bool pump_socket(mw::BusBridge& bridge, int fd,
                 std::vector<std::uint8_t>& unsent) {
  if (unsent.empty() && bridge.has_outbound()) unsent = bridge.take_outbound();
  bool peer_gone = false;
  while (!unsent.empty()) {
    // MSG_NOSIGNAL: a closed peer is an EPIPE error here, not a SIGPIPE
    // that kills the process.
    const ssize_t n = ::send(fd, unsent.data(), unsent.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      unsent.clear();  // EPIPE / ECONNRESET: nobody will read these
      peer_gone = true;
      break;
    }
    unsent.erase(unsent.begin(), unsent.begin() + n);
    if (unsent.empty() && bridge.has_outbound())
      unsent = bridge.take_outbound();
  }
  std::uint8_t buf[4096];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n == 0) return false;  // peer closed
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return !peer_gone;
      return false;
    }
    bridge.feed_inbound({buf, static_cast<std::size_t>(n)});
  }
}

/// One poll round with a short timeout; keeps the loop bounded.
void wait_readable(int fd) {
  pollfd p{fd, POLLIN, 0};
  ::poll(&p, 1, 20);
}

int run_vehicle(int fd) {
  mw::Codec codec;
  sim::register_wire_types(codec);
  mw::Bus bus;
  mw::BridgeConfig cfg;
  cfg.name = "vehicle_uplink";
  mw::BusBridge bridge(bus, codec, cfg);
  bridge.start();

  bool commanded = false;
  auto cmd_sub = bus.subscribe<std::string>(
      "gcs/commands",
      [&](const mw::MessageHeader& h, const std::string& cmd) {
        std::printf("[vehicle] t=%.1fs received command '%s' from %.*s\n",
                    h.time_s, cmd.c_str(), static_cast<int>(h.source.size()),
                    h.source.data());
        bus.publish("uav/uav1/ack", std::string("executing " + cmd), "uav1",
                    h.time_s);
        commanded = true;
      });

  std::vector<std::uint8_t> unsent;
  sim::Telemetry t;
  t.uav = "uav1";
  t.reported_position = {35.1875, 33.375, 0.0};
  t.mode = sim::FlightMode::kMission;
  for (int step = 0; step < 200 && !commanded; ++step) {
    t.time_s = 0.5 * step;
    t.altitude_m = 30.0 + step;
    t.reported_position.alt_m = t.altitude_m;
    t.battery_soc = 1.0 - 0.002 * step;
    bus.publish("uav/uav1/telemetry", t, "uav1", t.time_s);
    if (!pump_socket(bridge, fd, unsent)) break;
    if (!commanded) wait_readable(fd);
  }
  // Flush the ack before leaving.
  for (int i = 0; i < 50 && (bridge.has_outbound() || !unsent.empty()); ++i)
    if (!pump_socket(bridge, fd, unsent)) break;
  ::close(fd);
  return commanded ? 0 : 1;
}

int run_gcs(int fd, pid_t child) {
  mw::Codec codec;
  sim::register_wire_types(codec);
  mw::Bus bus;
  mw::BridgeConfig cfg;
  cfg.name = "gcs_downlink";
  mw::BusBridge bridge(bus, codec, cfg);
  bridge.start();

  int telemetry_seen = 0;
  double last_soc = 0.0;
  auto tel_sub = bus.subscribe<sim::Telemetry>(
      "uav/uav1/telemetry",
      [&](const mw::MessageHeader&, const sim::Telemetry& t) {
        ++telemetry_seen;
        last_soc = t.battery_soc;
      });
  bool acked = false;
  auto ack_sub = bus.subscribe<std::string>(
      "uav/uav1/ack",
      [&](const mw::MessageHeader& h, const std::string& msg) {
        std::printf("[gcs]     t=%.1fs vehicle acknowledged: %s\n", h.time_s,
                    msg.c_str());
        acked = true;
      });

  std::vector<std::uint8_t> unsent;
  bool sent_command = false;
  for (int round = 0; round < 500 && !acked; ++round) {
    if (!pump_socket(bridge, fd, unsent)) break;
    if (telemetry_seen >= 5 && !sent_command) {
      std::printf(
          "[gcs]     %d telemetry frames federated (battery %.1f%%), "
          "commanding return to home\n",
          telemetry_seen, 100.0 * last_soc);
      bus.publish("gcs/commands", std::string("return_to_home"), "gcs", 99.0);
      sent_command = true;
    }
    if (!acked) wait_readable(fd);
  }
  ::close(fd);

  int status = 0;
  ::waitpid(child, &status, 0);
  const auto& wire = bridge.link_counters();
  std::printf(
      "[gcs]     link stats: %llu frames rx, %llu bytes rx, %llu msgs "
      "delivered, %llu crc errors\n",
      static_cast<unsigned long long>(wire.frames_rx),
      static_cast<unsigned long long>(wire.bytes_rx),
      static_cast<unsigned long long>(wire.messages_rx),
      static_cast<unsigned long long>(wire.crc_errors));
  const bool child_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (telemetry_seen >= 5 && acked && child_ok) {
    std::printf("[gcs]     demo complete: two buses, one federation\n");
    return 0;
  }
  std::fprintf(stderr, "demo failed: telemetry=%d acked=%d child_ok=%d\n",
               telemetry_seen, acked ? 1 : 0, child_ok ? 1 : 0);
  return 1;
}

}  // namespace

int main() {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv) != 0) {
    std::perror("socketpair");
    return 1;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) {
    ::close(sv[0]);
    std::exit(run_vehicle(sv[1]));
  }
  ::close(sv[1]);
  return run_gcs(sv[0], pid);
}
