#include "sesame/service/connection.hpp"

#include <poll.h>

#include <utility>

namespace sesame::service {

ServiceConnection::ServiceConnection(int fd, ConnectionContext& context,
                                     double now_s, std::string wire_link)
    : context_(context), pump_(fd), last_activity_s_(now_s) {
  if (wire_link.empty()) return;
  wire_ = std::make_unique<WireSession>(context.service, context.alert_bus,
                                        std::move(wire_link));
  wire_->set_observability(&context.wire_obs);
  wire_->start();
  pump_.queue(wire_->take_outbound());
}

std::size_t ServiceConnection::held_bytes() const noexcept {
  return pump_.owed() + (wire_ ? wire_->queued_bytes() : 0);
}

bool ServiceConnection::reads_open() const noexcept {
  return !pump_.eof() && pump_.owed() < kHighWaterBytes;
}

short ServiceConnection::poll_events() const noexcept {
  return static_cast<short>((reads_open() ? POLLIN : 0) |
                            (pump_.owed() > 0 ? POLLOUT : 0));
}

void ServiceConnection::on_bytes(std::span<const std::uint8_t> bytes) {
  if (wire_) return wire_->feed(bytes);
  if (responded_) return;  // one request per connection; drain the rest
  const auto request =
      http_.feed(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  if (!request) return;
  HttpResponse response = handle_request(context_.service, *request);
  // The daemon's /metrics also carries the wire-security families its
  // session monitors maintain (sesame.security.wire_*).
  if (request->path == "/metrics" && response.status == 200) {
    response.body += context_.wire_obs.metrics.render_prometheus();
  }
  pump_.queue(serialize_response(response));
  responded_ = true;
}

void ServiceConnection::service(short revents, double now_s) {
  std::size_t moved = 0;
  // A hang-up is read past the high-water mark too: reading to its EOF is
  // what lets the connection finish instead of waking poll() forever.
  if ((revents & (POLLERR | POLLHUP)) != 0 ||
      ((revents & POLLIN) != 0 && reads_open())) {
    moved += pump_.read(
        [this](std::span<const std::uint8_t> bytes) { on_bytes(bytes); },
        kReadChunkBytes);
    if (wire_) {
      wire_->poll_security(now_s);
      pump_.queue(wire_->take_outbound());
    }
  }
  moved += pump_.flush();
  // Requests the session held at the mark resume once unsent bytes are
  // back under it; a peer waiting for their replies sends nothing more.
  // A session held for credit instead produces nothing, which ends this.
  while (wire_ && wire_->holds_requests() && pump_.owed() < kHighWaterBytes) {
    wire_->feed({});
    if (!wire_->has_outbound()) break;
    pump_.queue(wire_->take_outbound());
    moved += pump_.flush();
  }
  if (moved > 0) last_activity_s_ = now_s;
}

const char* ServiceConnection::finished(double now_s) const noexcept {
  if (http_.failed()) return "malformed";
  if (wire_ && wire_->counters().window_violations > 0) {
    return "window_violation";
  }
  if (pump_.done() || (responded_ && pump_.owed() == 0)) {
    return pump_.write_failed() ? "peer_reset" : "closed";
  }
  if (now_s - last_activity_s_ > kIdleTimeoutS) return "idle";
  return nullptr;
}

}  // namespace sesame::service
