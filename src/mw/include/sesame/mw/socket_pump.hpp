// One non-blocking stream socket and the bytes owed to it. Every program
// that moves socket bytes does it here, so the socket rules live in one
// place (docs/ARCHITECTURE.md, "Socket I/O"): MSG_NOSIGNAL writes with
// EINTR retried; partial writes advance an offset; a peer FIN ends
// reading and the owner flushes what is owed, then closes; a failed write
// drops what is owed; reading continues until EOF after a failed write,
// because a peer that hung up may still have sent unread bytes.
// Single-threaded, like the framing layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

namespace sesame::mw {

class SocketPump {
 public:
  using Sink = std::function<void(std::span<const std::uint8_t>)>;

  /// Takes ownership of the connected stream socket `fd` (made
  /// non-blocking; closed on destruction).
  explicit SocketPump(int fd);
  ~SocketPump();
  SocketPump(const SocketPump&) = delete;
  SocketPump& operator=(const SocketPump&) = delete;

  int fd() const noexcept { return fd_; }

  /// Appends bytes to send; no system call. Discarded after a failed write.
  void queue(std::span<const std::uint8_t> bytes);
  void queue(std::string_view bytes);
  /// Bytes queued and not yet accepted by the socket.
  std::size_t owed() const noexcept { return out_.size() - sent_; }

  /// Writes owed bytes until the socket would block. Returns bytes written.
  std::size_t flush();
  /// Reads until the socket would block, EOF, or `max_bytes`, handing each
  /// chunk to `sink` (borrowed for the call). Returns bytes read.
  std::size_t read(const Sink& sink,
                   std::size_t max_bytes =
                       std::numeric_limits<std::size_t>::max());

  /// No more bytes will arrive: the peer's FIN, or a read error.
  bool eof() const noexcept { return eof_; }
  /// A write failed (EPIPE, ECONNRESET...); what was owed was dropped.
  bool write_failed() const noexcept { return write_failed_; }
  /// Nothing more will move: EOF seen and nothing owed.
  bool done() const noexcept { return eof_ && owed() == 0; }

  /// Blocks up to `timeout_ms` (-1: no limit) until the socket is
  /// readable, or writable while bytes are owed.
  void wait(int timeout_ms) const;

 private:
  void drop_owed() noexcept;

  int fd_;
  std::vector<std::uint8_t> out_;  ///< owed bytes start at out_[sent_]
  std::size_t sent_ = 0;
  bool eof_ = false;
  bool write_failed_ = false;
};

}  // namespace sesame::mw
