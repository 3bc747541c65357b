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
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>

#include "sesame/mw/bus.hpp"
#include "sesame/mw/bus_bridge.hpp"
#include "sesame/mw/codec.hpp"
#include "sesame/mw/socket_pump.hpp"
#include "sesame/sim/wire_types.hpp"
#include "sesame/sim/world.hpp"

using namespace sesame;

namespace {

/// Moves bytes between the bridge and the socket (both directions), after
/// waiting up to 20 ms for the peer. Returns false once the peer hung up
/// and everything it sent has been read.
bool pump_bridge(mw::BusBridge& bridge, mw::SocketPump& pump) {
  if (bridge.has_outbound()) pump.queue(bridge.take_outbound());
  pump.flush();
  pump.wait(20);
  pump.read([&](std::span<const std::uint8_t> bytes) {
    bridge.feed_inbound(bytes);
  });
  return !pump.eof();
}

int run_vehicle(int fd) {
  mw::SocketPump pump(fd);
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
    if (!pump_bridge(bridge, pump)) break;
  }
  // Flush the ack before leaving.
  for (int i = 0; i < 50 && (bridge.has_outbound() || pump.owed() > 0); ++i)
    if (!pump_bridge(bridge, pump)) break;
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

  mw::SocketPump pump(fd);
  bool sent_command = false;
  for (int round = 0; round < 500 && !acked; ++round) {
    if (!pump_bridge(bridge, pump)) break;
    if (telemetry_seen >= 5 && !sent_command) {
      std::printf(
          "[gcs]     %d telemetry frames federated (battery %.1f%%), "
          "commanding return to home\n",
          telemetry_seen, 100.0 * last_soc);
      bus.publish("gcs/commands", std::string("return_to_home"), "gcs", 99.0);
      sent_command = true;
    }
  }

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
