// Framed byte-stream transport for codec messages (docs/PROTOCOL.md).
//
// A serial link / socket delivers an undifferentiated byte stream; this
// layer turns it into a sequence of integrity-checked frames with flow
// control, in the style of the SESAME serial stack the paper's platform
// uses between flight controller and companion computer:
//
//   message bytes (mw::Codec)
//        │ Message frame (type + link seq)
//   [ windowed ]   Init / InitResponse / ReleaseWindow control frames
//        │ protect() — pluggable authenticated-encryption hook
//   [ security ]   identity transform by default
//        │ + CRC32 (over the protected bytes, so corruption is caught
//        │          before any crypto runs)
//   [  COBS    ]   zero-delimited packets; a 0x00 byte never appears
//        │          inside a packet, so resync after corruption is
//        ▼          "skip to the next zero"
//   byte stream (socketpair, pipe, UART...)
//
// Receive discipline (the fuzz contract, tests/test_wire.cpp):
//  - `feed()` never throws on wire input and never reads outside the
//    bytes handed to it. Malformed input — bad COBS, bad CRC, failed
//    authentication, truncated or unknown frames, oversized packets —
//    increments the matching counter, bumps `resyncs`, and skips to the
//    next delimiter. A frame whose CRC does not match is *never*
//    delivered.
//  - Replay protection: every frame carries a per-direction monotonically
//    increasing link sequence number. A frame whose sequence is ≤ the
//    last accepted one is rejected (`replays_rejected`); a forward jump
//    is accepted and counted (`seq_gaps` — expected after a resync). An
//    `Init` frame resets the expectation (session restart).
//
// Flow control (SESAME windowed layer): `Init` advertises how many
// Message frames the peer may have outstanding toward us; the peer
// answers `InitResponse`. The owner credits a delivered Message back
// (`release()` → `ReleaseWindow`) once it has handled it. One Message
// beyond the window is a violation: not delivered, counted, and the
// owner closes the link; a re-`Init` forgives nothing outstanding.
// Messages sent on a closed window queue locally (`window_stalls`) and
// flush as credit arrives — nothing is dropped by flow control.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

namespace sesame::mw {

/// Appends the COBS encoding of `in` plus the trailing 0x00 delimiter to
/// `out`. Worst-case overhead is ⌈n/254⌉ + 1 bytes plus the delimiter.
void cobs_encode(std::span<const std::uint8_t> in,
                 std::vector<std::uint8_t>& out);

/// Decodes one delimiter-free COBS block into `out` (appending). Returns
/// false — leaving partial output in place — on malformed input (embedded
/// zero byte, group running past the end, empty input).
bool cobs_decode(std::span<const std::uint8_t> in,
                 std::vector<std::uint8_t>& out);

/// CRC-32 (IEEE 802.3: reflected, polynomial 0xEDB88320, init/final
/// 0xFFFFFFFF). crc32_ieee("123456789") == 0xCBF43926.
std::uint32_t crc32_ieee(std::span<const std::uint8_t> bytes) noexcept;

/// Authenticated-encryption hook applied to every frame between the
/// windowed layer and the CRC/COBS envelope. The default (no transform
/// installed) is the identity. Implementations transform the frame bytes
/// in place/by growth — e.g. append a MAC in `protect` and strip+verify it
/// in `unprotect`. `unprotect` returning false means authentication
/// failed: the frame is discarded and counted, never parsed.
class SecurityTransform {
 public:
  virtual ~SecurityTransform() = default;
  virtual void protect(std::vector<std::uint8_t>& frame) = 0;
  virtual bool unprotect(std::vector<std::uint8_t>& frame) = 0;
};

struct FramingConfig {
  /// Message frames we are willing to have outstanding *toward us*
  /// (advertised in our Init/InitResponse). Must be ≥ 1.
  std::uint16_t window = 64;
  /// Upper bound on one frame's plaintext bytes; larger inbound packets
  /// are discarded as malformed, larger outbound messages throw.
  std::size_t max_frame_bytes = 1 << 16;
  /// Optional security hook (non-owning; must outlive the Framing).
  SecurityTransform* transform = nullptr;
};

/// Transport counters. Everything here is cumulative since construction;
/// `mw::BusBridge` mirrors them into the metrics registry as
/// `sesame.wire.*` series.
struct LinkCounters {
  std::uint64_t frames_tx = 0;   ///< frames emitted (incl. control)
  std::uint64_t frames_rx = 0;   ///< frames accepted (incl. control)
  std::uint64_t bytes_tx = 0;    ///< wire bytes emitted
  std::uint64_t bytes_rx = 0;    ///< wire bytes consumed
  std::uint64_t messages_tx = 0; ///< Message frames sent
  std::uint64_t messages_rx = 0; ///< Message frames delivered to the sink
  std::uint64_t cobs_errors = 0;      ///< packets failing COBS decode
  std::uint64_t crc_errors = 0;       ///< packets failing the CRC32 check
  std::uint64_t auth_failures = 0;    ///< SecurityTransform::unprotect == false
  std::uint64_t malformed_frames = 0; ///< short/unknown/oversized frames
  std::uint64_t replays_rejected = 0; ///< link seq ≤ last accepted
  std::uint64_t seq_gaps = 0;         ///< forward sequence jumps accepted
  std::uint64_t resyncs = 0;          ///< packets discarded for any reason
  std::uint64_t window_stalls = 0;    ///< sends queued on a closed window
  std::uint64_t window_violations = 0;  ///< Messages beyond our window
};

/// One full-duplex framed endpoint. Byte-oriented and transport-agnostic:
/// the owner moves `take_outbound()` bytes to the wire and `feed()`s
/// whatever arrives. Single-threaded, like the bus.
class Framing {
 public:
  /// Wire protocol version this build speaks (negotiated down via Init).
  static constexpr std::uint16_t kProtocolVersion = 1;

  enum class FrameType : std::uint8_t {
    kInit = 0x01,
    kInitResponse = 0x02,
    kReleaseWindow = 0x03,
    kMessage = 0x04,
  };

  /// Invoked once per accepted Message frame with the frame's payload
  /// (borrowed — valid only during the call) and its link sequence.
  using MessageSink =
      std::function<void(std::span<const std::uint8_t>, std::uint64_t)>;

  /// Throws std::invalid_argument on a zero window.
  explicit Framing(FramingConfig config = {});

  /// Queues our Init frame (idempotent). Either side may start; a
  /// handshake completes when both an Init (theirs) and an InitResponse
  /// (to ours) have been seen — in practice one feed() exchange.
  void start();
  bool established() const noexcept { return established_; }
  /// Protocol version agreed with the peer (0 before the handshake).
  std::uint16_t negotiated_version() const noexcept { return negotiated_; }

  /// Submits one message payload. Sent immediately when the peer window
  /// allows, queued otherwise. Throws std::length_error when the payload
  /// exceeds max_payload_bytes().
  void send_message(std::span<const std::uint8_t> payload);

  /// Credits `n` ≥ 1 handled Messages back to the peer in one ReleaseWindow
  /// frame. Throws std::logic_error beyond those delivered, unreleased.
  void release(std::uint32_t n);

  /// Message-frame credit currently available toward the peer.
  std::uint32_t send_credit() const noexcept { return send_credit_; }
  /// Payload bytes of the messages queued waiting for credit (or for the
  /// handshake).
  std::size_t queued_bytes() const noexcept { return pending_bytes_; }
  /// Largest payload one send_message() call accepts: its frame, header
  /// and CRC included, fits max_frame_bytes.
  std::size_t max_payload_bytes() const noexcept;

  /// Drains the bytes to put on the wire.
  std::vector<std::uint8_t> take_outbound();
  bool has_outbound() const noexcept { return !outbound_.empty(); }
  /// Wire bytes waiting for take_outbound().
  std::size_t outbound_bytes() const noexcept { return outbound_.size(); }

  /// Consumes received wire bytes, delivering every accepted Message
  /// frame's payload to `sink`. Partial packets are buffered for the next
  /// feed. Never throws on wire input.
  void feed(std::span<const std::uint8_t> bytes, const MessageSink& sink);

  const LinkCounters& counters() const noexcept { return counters_; }

 private:
  void emit_frame(FrameType type, std::span<const std::uint8_t> body);
  void handle_packet(std::span<const std::uint8_t> packet,
                     const MessageSink& sink);
  void flush_pending();

  FramingConfig config_;
  std::vector<std::uint8_t> outbound_;   ///< wire bytes not yet taken
  std::vector<std::uint8_t> rx_buf_;     ///< partial packet accumulator
  std::deque<std::vector<std::uint8_t>> pending_;  ///< awaiting credit
  std::size_t pending_bytes_ = 0;   ///< payload bytes in pending_
  LinkCounters counters_;
  std::uint64_t tx_seq_ = 0;        ///< last sequence sent
  std::uint64_t rx_last_seq_ = 0;   ///< last sequence accepted
  std::uint32_t send_credit_ = 0;   ///< Message frames we may still send
  std::uint32_t unreleased_ = 0;    ///< delivered, not yet release()d
  std::uint16_t negotiated_ = 0;
  bool started_ = false;
  bool established_ = false;
};

}  // namespace sesame::mw
