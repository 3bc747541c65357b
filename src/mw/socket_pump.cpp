#include "sesame/mw/socket_pump.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

namespace sesame::mw {

SocketPump::SocketPump(int fd) : fd_(fd) {
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
}

SocketPump::~SocketPump() { ::close(fd_); }

void SocketPump::queue(std::span<const std::uint8_t> bytes) {
  if (write_failed_) return;
  // Compact once the sent prefix is most of the buffer: each byte moves at
  // most once more, instead of once per partial write.
  if (sent_ > 0 && sent_ >= out_.size() / 2) {
    out_.erase(out_.begin(), out_.begin() + static_cast<std::ptrdiff_t>(sent_));
    sent_ = 0;
  }
  out_.insert(out_.end(), bytes.begin(), bytes.end());
}

void SocketPump::queue(std::string_view bytes) {
  queue({reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
}

void SocketPump::drop_owed() noexcept {
  write_failed_ = true;
  out_.clear();
  sent_ = 0;
}

std::size_t SocketPump::flush() {
  std::size_t written = 0;
  while (owed() > 0) {
    const ssize_t n = ::send(fd_, out_.data() + sent_, owed(), MSG_NOSIGNAL);
    if (n >= 0) {
      sent_ += static_cast<std::size_t>(n);
      written += static_cast<std::size_t>(n);
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return written;
    } else if (errno != EINTR) {
      drop_owed();  // EPIPE / ECONNRESET: nobody will read these
    }
  }
  out_.clear();
  sent_ = 0;
  return written;
}

std::size_t SocketPump::read(const Sink& sink, std::size_t max_bytes) {
  std::size_t total = 0;
  std::uint8_t buf[4096];
  while (!eof_ && total < max_bytes) {
    const ssize_t n =
        ::recv(fd_, buf, std::min(sizeof buf, max_bytes - total), 0);
    if (n > 0) {
      total += static_cast<std::size_t>(n);
      sink({buf, static_cast<std::size_t>(n)});
    } else if (n == 0) {
      eof_ = true;  // FIN: what is owed may still be flushed
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno != EINTR) {
      eof_ = true;  // a dead connection takes nothing more either way
      drop_owed();
    }
  }
  return total;
}

void SocketPump::wait(int timeout_ms) const {
  pollfd p{fd_, 0, 0};
  if (!eof_) p.events |= POLLIN;
  if (owed() > 0) p.events |= POLLOUT;
  if (p.events != 0) ::poll(&p, 1, timeout_ms);
}

}  // namespace sesame::mw
