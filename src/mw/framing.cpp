#include "sesame/mw/framing.hpp"

#include <array>
#include <cstring>
#include <stdexcept>

namespace sesame::mw {

void cobs_encode(std::span<const std::uint8_t> in,
                 std::vector<std::uint8_t>& out) {
  std::size_t code_pos = out.size();
  out.push_back(0);  // placeholder for the first code byte
  std::uint8_t code = 1;
  for (const std::uint8_t b : in) {
    if (b == 0) {
      out[code_pos] = code;
      code_pos = out.size();
      out.push_back(0);
      code = 1;
    } else {
      out.push_back(b);
      if (++code == 0xFF) {  // maximal group: restart without a zero
        out[code_pos] = code;
        code_pos = out.size();
        out.push_back(0);
        code = 1;
      }
    }
  }
  out[code_pos] = code;
  out.push_back(0);  // packet delimiter
}

bool cobs_decode(std::span<const std::uint8_t> in,
                 std::vector<std::uint8_t>& out) {
  if (in.empty()) return false;
  std::size_t i = 0;
  while (i < in.size()) {
    const std::uint8_t code = in[i];
    if (code == 0) return false;  // delimiters never appear inside a packet
    if (i + code > in.size()) return false;  // group runs past the end
    for (std::size_t j = 1; j < code; ++j) out.push_back(in[i + j]);
    i += code;
    if (code != 0xFF && i < in.size()) out.push_back(0);
  }
  return true;
}

std::uint32_t crc32_ieee(std::span<const std::uint8_t> bytes) noexcept {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[n] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes)
    crc = table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

namespace {

constexpr std::size_t kFrameHeaderBytes = 9;  // type u8 + link seq u64
constexpr std::size_t kCrcBytes = 4;

std::uint64_t read_u64_le(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::uint16_t read_u16_le(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

void append_u16_le(std::vector<std::uint8_t>& v, std::uint16_t x) {
  v.push_back(static_cast<std::uint8_t>(x));
  v.push_back(static_cast<std::uint8_t>(x >> 8));
}

void append_u64_le(std::vector<std::uint8_t>& v, std::uint64_t x) {
  for (int i = 0; i < 8; ++i)
    v.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
}

}  // namespace

Framing::Framing(FramingConfig config) : config_(config) {
  if (config_.window == 0)
    throw std::invalid_argument("mw::Framing: window must be >= 1");
  if (config_.max_frame_bytes < 64)
    throw std::invalid_argument("mw::Framing: max_frame_bytes too small");
}

void Framing::start() {
  if (started_) return;
  started_ = true;
  std::vector<std::uint8_t> body;
  append_u16_le(body, config_.window);
  append_u16_le(body, kProtocolVersion);  // our *maximum* version
  emit_frame(FrameType::kInit, body);
}

std::size_t Framing::max_payload_bytes() const noexcept {
  // Header, payload and CRC within max_frame_bytes: the peer's packet-size
  // check (handle_packet) then accepts the COBS encoding of the frame.
  return config_.max_frame_bytes - kFrameHeaderBytes - kCrcBytes;
}

void Framing::send_message(std::span<const std::uint8_t> payload) {
  if (payload.size() > max_payload_bytes())
    throw std::length_error("mw::Framing: message exceeds max_frame_bytes");
  if (!established_ || send_credit_ == 0) {
    if (established_) ++counters_.window_stalls;
    pending_.emplace_back(payload.begin(), payload.end());
    pending_bytes_ += payload.size();
    return;
  }
  --send_credit_;
  ++counters_.messages_tx;
  emit_frame(FrameType::kMessage, payload);
}

void Framing::flush_pending() {
  while (!pending_.empty() && established_ && send_credit_ > 0) {
    --send_credit_;
    ++counters_.messages_tx;
    emit_frame(FrameType::kMessage, pending_.front());
    pending_bytes_ -= pending_.front().size();
    pending_.pop_front();
  }
}

void Framing::release(std::uint32_t n) {
  if (n == 0 || n > unreleased_)
    throw std::logic_error("mw::Framing: release of 0 or undelivered");
  unreleased_ -= n;
  std::vector<std::uint8_t> credit;
  append_u16_le(credit, static_cast<std::uint16_t>(n));  // n <= window
  emit_frame(FrameType::kReleaseWindow, credit);
}

std::vector<std::uint8_t> Framing::take_outbound() {
  return std::move(outbound_);
}

void Framing::emit_frame(FrameType type, std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + body.size() + kCrcBytes);
  frame.push_back(static_cast<std::uint8_t>(type));
  append_u64_le(frame, ++tx_seq_);
  frame.insert(frame.end(), body.begin(), body.end());
  if (config_.transform != nullptr) config_.transform->protect(frame);
  const std::uint32_t crc = crc32_ieee(frame);
  for (int i = 0; i < 4; ++i)
    frame.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  const std::size_t before = outbound_.size();
  cobs_encode(frame, outbound_);
  ++counters_.frames_tx;
  counters_.bytes_tx += outbound_.size() - before;
}

void Framing::feed(std::span<const std::uint8_t> bytes,
                   const MessageSink& sink) {
  counters_.bytes_rx += bytes.size();
  rx_buf_.insert(rx_buf_.end(), bytes.begin(), bytes.end());
  // Split on 0x00 delimiters; keep the trailing partial packet buffered.
  std::size_t begin = 0;
  for (std::size_t i = 0; i < rx_buf_.size(); ++i) {
    if (rx_buf_[i] != 0) continue;
    if (i > begin) {
      handle_packet(
          std::span<const std::uint8_t>(rx_buf_.data() + begin, i - begin),
          sink);
    }
    begin = i + 1;  // empty segments (back-to-back zeros) are benign
  }
  rx_buf_.erase(rx_buf_.begin(),
                rx_buf_.begin() + static_cast<std::ptrdiff_t>(begin));
  // A delimiter-free flood cannot grow the buffer without bound: drop it
  // once it exceeds any legal packet and wait for the next delimiter.
  const std::size_t cap = config_.max_frame_bytes + config_.max_frame_bytes / 128 + 64;
  if (rx_buf_.size() > cap) {
    rx_buf_.clear();
    ++counters_.malformed_frames;
    ++counters_.resyncs;
  }
}

void Framing::handle_packet(std::span<const std::uint8_t> packet,
                            const MessageSink& sink) {
  const auto reject = [this](std::uint64_t& counter) {
    ++counter;
    ++counters_.resyncs;
  };
  if (packet.size() > config_.max_frame_bytes + config_.max_frame_bytes / 254 + 2) {
    return reject(counters_.malformed_frames);
  }
  std::vector<std::uint8_t> frame;
  frame.reserve(packet.size());
  if (!cobs_decode(packet, frame)) return reject(counters_.cobs_errors);
  if (frame.size() < kFrameHeaderBytes + kCrcBytes)
    return reject(counters_.malformed_frames);
  // CRC sits outside the security transform: corruption is caught before
  // any crypto runs.
  const std::size_t body_end = frame.size() - kCrcBytes;
  std::uint32_t wire_crc = 0;
  for (int i = 0; i < 4; ++i)
    wire_crc |= static_cast<std::uint32_t>(frame[body_end + i]) << (8 * i);
  if (crc32_ieee({frame.data(), body_end}) != wire_crc)
    return reject(counters_.crc_errors);
  frame.resize(body_end);
  if (config_.transform != nullptr && !config_.transform->unprotect(frame))
    return reject(counters_.auth_failures);
  if (frame.size() < kFrameHeaderBytes)
    return reject(counters_.malformed_frames);

  const std::uint8_t type_byte = frame[0];
  const std::uint64_t seq = read_u64_le(frame.data() + 1);
  const std::uint8_t* body = frame.data() + kFrameHeaderBytes;
  const std::size_t body_len = frame.size() - kFrameHeaderBytes;

  // Replay protection: the link sequence must move forward. Init resets
  // the expectation (peer restarted its session).
  if (type_byte == static_cast<std::uint8_t>(FrameType::kInit)) {
    if (body_len != 4) return reject(counters_.malformed_frames);
    rx_last_seq_ = seq;
    const std::uint16_t peer_window = read_u16_le(body);
    const std::uint16_t peer_max_version = read_u16_le(body + 2);
    if (peer_window == 0) return reject(counters_.malformed_frames);
    negotiated_ = std::min(kProtocolVersion, peer_max_version);
    send_credit_ = peer_window;
    established_ = true;
    ++counters_.frames_rx;
    std::vector<std::uint8_t> resp;
    append_u16_le(resp, config_.window);
    append_u16_le(resp, negotiated_);
    emit_frame(FrameType::kInitResponse, resp);
    flush_pending();
    return;
  }
  if (seq <= rx_last_seq_) return reject(counters_.replays_rejected);
  if (seq != rx_last_seq_ + 1) ++counters_.seq_gaps;
  rx_last_seq_ = seq;

  switch (type_byte) {
    case static_cast<std::uint8_t>(FrameType::kInitResponse): {
      if (body_len != 4) return reject(counters_.malformed_frames);
      const std::uint16_t peer_window = read_u16_le(body);
      const std::uint16_t version = read_u16_le(body + 2);
      if (peer_window == 0) return reject(counters_.malformed_frames);
      // When both sides start() simultaneously, the peer's Init already
      // established the link; its InitResponse then only confirms the
      // version — re-granting the full window would double credit spent
      // since the Init.
      if (!established_) send_credit_ = peer_window;
      negotiated_ = std::min(kProtocolVersion, version);
      established_ = true;
      ++counters_.frames_rx;
      flush_pending();
      return;
    }
    case static_cast<std::uint8_t>(FrameType::kReleaseWindow): {
      if (body_len != 2) return reject(counters_.malformed_frames);
      const std::uint16_t count = read_u16_le(body);
      if (count == 0) return reject(counters_.malformed_frames);
      send_credit_ += count;
      ++counters_.frames_rx;
      flush_pending();
      return;
    }
    case static_cast<std::uint8_t>(FrameType::kMessage): {
      // One more than the window: never delivered; the owner closes.
      if (unreleased_ >= config_.window) {
        ++counters_.window_violations;
        return;
      }
      ++unreleased_;
      ++counters_.frames_rx;
      ++counters_.messages_rx;
      if (sink) sink({body, body_len}, seq);
      return;
    }
    default:
      return reject(counters_.malformed_frames);
  }
}

}  // namespace sesame::mw
