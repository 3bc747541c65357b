// One daemon connection: a socket pump and the adapter it feeds. A peer
// that stops reading or granting credit stalls itself instead of growing
// the daemon (docs/SERVICE.md, "Connections").
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "sesame/mw/bus.hpp"
#include "sesame/mw/socket_pump.hpp"
#include "sesame/obs/observability.hpp"
#include "sesame/service/http.hpp"
#include "sesame/service/service.hpp"
#include "sesame/service/wire.hpp"

namespace sesame::service {

/// Most bytes one wake-up reads from a connection.
inline constexpr std::size_t kReadChunkBytes = 1024;
/// Connections a daemon holds at once; above it, new connects wait in the
/// listen backlog.
inline constexpr std::size_t kMaxConnections = 64;
/// A connection that moves no byte for this long is closed.
inline constexpr double kIdleTimeoutS = 30.0;

/// What all connections of one daemon share (borrowed; must outlive them).
struct ConnectionContext {
  CampaignService& service;
  mw::Bus& alert_bus;            ///< wire sessions' security alerts
  obs::Observability& wire_obs;  ///< wire monitors; appended to /metrics
};

class ServiceConnection {
 public:
  /// Owns the accepted socket `fd`. An empty `wire_link` makes an HTTP
  /// connection; otherwise a wire session by that name, handshake queued.
  ServiceConnection(int fd, ConnectionContext& context, double now_s,
                    std::string wire_link = {});

  /// poll() events to wait for: POLLIN while reads are open, POLLOUT while
  /// bytes are unsent.
  short poll_events() const noexcept;
  /// Handles one poll() wake-up: reads (if open) and dispatches, then
  /// flushes.
  void service(short revents, double now_s);
  /// Null while the connection should stay; else why it should be
  /// destroyed (which closes it): "closed", "idle", "window_violation",
  /// "malformed" or "peer_reset" (docs/SERVICE.md, "Connections").
  const char* finished(double now_s) const noexcept;

  /// Bytes held for the peer: unsent, and replies waiting for credit.
  std::size_t held_bytes() const noexcept;

 private:
  bool reads_open() const noexcept;
  void on_bytes(std::span<const std::uint8_t> bytes);

  ConnectionContext& context_;
  mw::SocketPump pump_;
  HttpConnection http_;
  std::unique_ptr<WireSession> wire_;  ///< null for HTTP
  bool responded_ = false;  ///< HTTP: the one response is queued
  double last_activity_s_;
};

}  // namespace sesame::service
