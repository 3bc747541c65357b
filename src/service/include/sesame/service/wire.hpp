// Framed wire transport for the campaign service (docs/SERVICE.md §wire).
//
// Reuses the mw::Framing stack (COBS + CRC32 + replay windows + flow
// control — PR 6's transport) so a submitter without HTTP tooling, or one
// already on the SESAME serial/socket fabric, can drive the service over
// the same link discipline the bus federation uses. One WireSession per
// connection, byte-oriented and transport-agnostic like Framing itself.
//
// Message protocol (one JSON document per Message frame):
//   client -> server
//     {"type":"submit", ...submission fields (submission.hpp)...}
//     {"type":"status", "job": id}
//     {"type":"poll",   "job": id, "cursor": n}
//   server -> client
//     {"type":"accepted", "job": id, "digest": "..."}
//     {"type":"rejected", "reason": "..."} | {"type":"error", "error":...}
//     {"type":"status", ...JobStatus fields...}
//     {"type":"events", "job": id, "next": m, "events": [...]}
//     {"type":"report_follows", "job": id, "bytes": n}
//       ...followed by RAW frames carrying exactly n report bytes: one
//       frame when n fits a frame's payload, else consecutive frames of
//       one payload each (the last one shorter).
//     {"type":"reply_follows", "bytes": n}
//       ...followed by frames carrying one n-byte JSON reply that does not
//       fit a frame (a large event poll); the client hands the reassembled
//       reply out as a response and hides the announcement.
//
// The raw report frames are the byte-identity surface: the report is never
// re-encoded into a JSON string (escaping would still round-trip, but raw
// framing makes "the bytes on the wire ARE campaign_cli's bytes" directly
// auditable) — the client writes the reassembled payload verbatim. A reply
// that fits one frame travels exactly as it did before splitting existed.
//
// Security (ROADMAP item 1 leftover): every session owns a
// security::WireMonitor over its framing counters. The owner polls
// poll_security(now_s) after feeding inbound bytes; tampered or replayed
// frames become IDS alerts on the daemon's bus, where a SecurityEddi
// consumes them (wire.cpp never drops evidence silently).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <span>
#include <string>
#include <vector>

#include "sesame/mw/bus.hpp"
#include "sesame/mw/framing.hpp"
#include "sesame/security/wire_monitor.hpp"
#include "sesame/service/service.hpp"

namespace sesame::service {

/// Backpressure bound, in bytes. A wire session handles no request while
/// this many reply bytes wait for the peer's window credit or for
/// take_outbound() (later requests are held uncredited, so the receive
/// window bounds them); a daemon connection reads nothing while this many
/// bytes are unsent.
inline constexpr std::size_t kHighWaterBytes = std::size_t{1} << 20;

/// Server side of one wire connection.
class WireSession {
 public:
  /// `service` executes submissions; `alert_bus` receives the session's
  /// wire-security alerts (both borrowed, must outlive the session).
  WireSession(CampaignService& service, mw::Bus& alert_bus,
              std::string link_name, mw::FramingConfig framing = {});

  void start() { framing_.start(); }
  bool established() const noexcept { return framing_.established(); }

  /// Wires the session's monitor into a metrics/trace bundle (owned by
  /// the daemon's listener thread; see WireMonitor::set_observability).
  void set_observability(obs::Observability* o) noexcept {
    monitor_.set_observability(o);
  }

  /// Consumes inbound wire bytes; responses queue on take_outbound().
  /// Requests are handled, then credited, in arrival order; while
  /// kHighWaterBytes of replies wait for credit or for take_outbound(),
  /// new ones are held. Feeding no bytes resumes held requests.
  void feed(std::span<const std::uint8_t> bytes);
  std::vector<std::uint8_t> take_outbound() {
    return framing_.take_outbound();
  }
  bool has_outbound() const noexcept { return framing_.has_outbound(); }

  /// Reply payload bytes waiting for the peer's window credit.
  std::size_t queued_bytes() const noexcept { return framing_.queued_bytes(); }
  /// Requests received and not yet handled (see feed).
  bool holds_requests() const noexcept { return !held_.empty(); }

  /// Polls the link's counters into the wire monitor (call after feed).
  void poll_security(double now_s) {
    monitor_.observe(framing_.counters(), now_s);
  }
  const mw::LinkCounters& counters() const noexcept {
    return framing_.counters();
  }

 private:
  void handle(const std::string& text);

  CampaignService& service_;
  mw::Framing framing_;
  security::WireMonitor monitor_;
  std::list<std::string> held_;  ///< unhandled requests: at most the window
};

/// Client side: a thin request/response pump for campaign_submit and the
/// loopback tests. Single-threaded; the owner moves bytes.
class WireClient {
 public:
  explicit WireClient(mw::FramingConfig framing = {});

  void start() { framing_.start(); }
  bool established() const noexcept { return framing_.established(); }

  void submit(const Submission& submission);
  void poll_events(std::uint64_t job_id, std::size_t cursor);

  void feed(std::span<const std::uint8_t> bytes);
  std::vector<std::uint8_t> take_outbound() {
    return framing_.take_outbound();
  }
  bool has_outbound() const noexcept { return framing_.has_outbound(); }

  /// JSON documents received, oldest first (consume with pop_response).
  bool has_response() const noexcept { return !responses_.empty(); }
  std::string pop_response();

  /// Raw report bytes (set once every byte "report_follows" announced has
  /// landed).
  const std::string& report() const noexcept { return report_; }
  bool report_received() const noexcept { return report_received_; }

 private:
  /// What the frames after an announcement reassemble into.
  enum class Assembling { kNone, kReply, kReport };

  /// Files one frame: a response, an announcement or a piece announced.
  void on_frame(std::string text);

  mw::Framing framing_;
  std::deque<std::string> responses_;
  std::string report_;
  std::string partial_;  ///< announced bytes received so far
  std::size_t expect_bytes_ = 0;
  Assembling assembling_ = Assembling::kNone;
  bool report_received_ = false;
};

}  // namespace sesame::service
