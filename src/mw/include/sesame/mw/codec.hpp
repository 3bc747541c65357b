// Wire-format codec for bus messages (docs/PROTOCOL.md).
//
// The bus is typed and in-process: payloads cross it as C++ objects and
// topic/source names are interned per bus. To take a publication across a
// process boundary the codec flattens it into a versioned, little-endian
// byte string — interned ids are resolved back to their spellings (intern
// tables are process-local and never ride the wire), the payload is encoded
// through a registered per-type schema, and the whole message is prefixed
// with a schema-version header so readers can reject what they do not
// speak.
//
// Layering: the codec produces and consumes *message* byte strings; it
// knows nothing about packet boundaries, integrity or flow control — that
// is `mw::Framing` (COBS + CRC32 + windowed transport), and the two are
// glued to live buses by `mw::BusBridge`.
//
// Decode discipline (the fuzz contract, tested in tests/test_wire.cpp):
//  - `Codec::decode` never throws, never reads outside the input span, and
//    returns std::nullopt on any structural problem (truncation, lengths
//    pointing past the end, unsupported version is *not* structural — it
//    decodes fine and is rejected by the delivery layer, so counters can
//    tell "garbage" from "future peer").
//  - The returned DecodedMessage borrows from the input buffer: topic,
//    source and payload are `string_view`s into the caller's bytes — the
//    structural pass copies nothing. Typed payload decode (into a real
//    `sim::Telemetry` etc.) copies exactly once, into the value delivered
//    to subscribers.
//  - `WireReader` is a poisoning reader: the first over-read clears `ok()`
//    and every subsequent read returns zeros/empties, so payload decoders
//    are straight-line code with one validity check at the end.
//
// Type registry: payload types are registered with a wire tag (stable
// protocol constants — see docs/PROTOCOL.md §5), an encoder and a decoder.
// `mw` registers the primitives (f64, string, bool, i64) in the Codec
// constructor; domain modules add their own (`sim::register_wire_types`).
// Both federation endpoints must agree on tags — that is what the
// PROTOCOL.md tables pin down.
#pragma once

#include <any>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <typeindex>
#include <vector>

#include "sesame/mw/bus.hpp"

namespace sesame::mw {

/// Little-endian byte-string builder. All multi-byte integers are LE;
/// doubles travel as the LE bytes of their IEEE-754 bit pattern.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Raw bytes, no length prefix.
  void bytes(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  /// u16 length + bytes. Throws std::length_error above 65535 bytes.
  void str16(std::string_view s) {
    if (s.size() > 0xFFFF) throw std::length_error("wire string > 64 KiB");
    u16(static_cast<std::uint16_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  /// u32 length + bytes.
  void str32(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  std::size_t size() const noexcept { return buf_.size(); }
  const std::vector<std::uint8_t>& buffer() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  /// Patches a previously written u32 in place (length back-fill).
  void patch_u32(std::size_t offset, std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      buf_.at(offset + static_cast<std::size_t>(i)) =
          static_cast<std::uint8_t>(v >> (8 * i));
  }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian reader over a borrowed buffer. Never
/// throws: the first out-of-bounds read poisons the reader (`ok()` goes
/// false) and all further reads yield zeros/empty views, so decoders can
/// run straight through and test validity once.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}
  explicit WireReader(std::string_view data) noexcept
      : data_(reinterpret_cast<const std::uint8_t*>(data.data()),
              data.size()) {}

  bool ok() const noexcept { return ok_; }
  std::size_t remaining() const noexcept { return data_.size() - off_; }
  /// Poisons the reader (a decoder rejecting a semantically invalid
  /// field — e.g. an out-of-range enum — reports it the same way as a
  /// structural over-read).
  void fail() noexcept { ok_ = false; }

  std::uint8_t u8() noexcept {
    if (!take(1)) return 0;
    return data_[off_ - 1];
  }
  std::uint16_t u16() noexcept {
    if (!take(2)) return 0;
    return static_cast<std::uint16_t>(data_[off_ - 2] |
                                      (data_[off_ - 1] << 8));
  }
  std::uint32_t u32() noexcept {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(data_[off_ - 4 + i]) << (8 * i);
    return v;
  }
  std::uint64_t u64() noexcept {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(data_[off_ - 8 + i]) << (8 * i);
    return v;
  }
  std::int64_t i64() noexcept { return static_cast<std::int64_t>(u64()); }
  double f64() noexcept {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  bool boolean() noexcept {
    const std::uint8_t b = u8();
    if (b > 1) fail();  // strict: anything but 0/1 is malformed
    return b == 1;
  }
  /// u16 length + bytes; the view borrows from the input buffer.
  std::string_view str16() noexcept { return view(u16()); }
  /// u32 length + bytes; the view borrows from the input buffer.
  std::string_view str32() noexcept { return view(u32()); }

 private:
  bool take(std::size_t n) noexcept {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    off_ += n;
    return true;
  }
  std::string_view view(std::size_t n) noexcept {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return {};
    }
    const char* p = reinterpret_cast<const char*>(data_.data() + off_);
    off_ += n;
    return {p, n};
  }

  std::span<const std::uint8_t> data_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

/// Pre-encode view of one publication (what rides in front of the payload).
/// `seq` is the *origin* bus's sequence number — diagnostic on the far
/// side, where the receiving bus assigns its own.
struct OutboundMessage {
  std::string_view topic;
  std::string_view source;
  std::uint64_t seq = 0;
  double time_s = 0.0;
};

/// Structural decode of one message: fixed header fields plus borrowed
/// views into the input buffer (zero-copy — valid only while the caller's
/// bytes are).
struct DecodedMessage {
  std::uint16_t version = 0;
  std::uint32_t payload_tag = 0;
  std::uint64_t seq = 0;
  double time_s = 0.0;
  std::string_view topic;
  std::string_view source;
  std::string_view payload;  ///< still-encoded payload bytes
};

/// Outcome of delivering a decoded message into a live bus.
enum class DeliverResult {
  kDelivered,         ///< payload decoded and published
  kUnsupportedVersion,///< message schema version this codec does not speak
  kUnknownTag,        ///< payload type not registered here
  kMalformedPayload,  ///< registered decoder rejected the payload bytes
};

/// The message codec: fixed header layout + a registry of payload-type
/// schemas. One Codec is shared by both directions of a bridge; register
/// every type the federation carries before traffic flows.
class Codec {
 public:
  /// Message schema version this build writes and accepts.
  static constexpr std::uint16_t kVersion = 1;
  /// Bytes of fixed header before the variable-length fields.
  static constexpr std::size_t kFixedHeaderBytes = 22;

  /// Registers the primitive payload types (kF64Tag..kI64Tag below).
  Codec();

  // Wire tags of the built-in primitive payloads (docs/PROTOCOL.md §5).
  static constexpr std::uint32_t kF64Tag = 0x01;
  static constexpr std::uint32_t kStringTag = 0x02;
  static constexpr std::uint32_t kBoolTag = 0x03;
  static constexpr std::uint32_t kI64Tag = 0x04;

  /// Registers payload type T under `tag`. `name` is diagnostic (metrics,
  /// PROTOCOL.md tables). Throws std::invalid_argument when the tag or the
  /// type is already registered — tags are protocol constants, not
  /// first-come-first-served.
  template <typename T>
  void register_type(std::uint32_t tag, std::string name,
                     std::function<void(WireWriter&, const T&)> encode,
                     std::function<T(WireReader&)> decode) {
    check_unregistered(tag, std::type_index(typeid(T)));
    Entry e;
    e.tag = tag;
    e.name = std::move(name);
    e.type = std::type_index(typeid(T));
    e.encode = [encode = std::move(encode)](WireWriter& w,
                                            const std::any& ref) {
      encode(w, std::any_cast<std::reference_wrapper<const T>>(ref).get());
    };
    e.raw_decode = decode;  // typed copy, consumed by decode_payload<T>
    e.deliver = [decode = std::move(decode)](Bus& bus,
                                             const DecodedMessage& m) {
      WireReader r(m.payload);
      T value = decode(r);
      // Strict: trailing bytes after the payload are malformed, not
      // ignorable padding — they would hide encoder/decoder skew.
      if (!r.ok() || r.remaining() != 0) return false;
      try {
        bus.publish(m.topic, value, m.source, m.time_s);
      } catch (const std::runtime_error&) {
        // The local bus speaks a different type on this topic. For local
        // publishers that is a programming error worth a throw; from the
        // wire it is untrusted input and must not take the bridge down.
        return false;
      }
      return true;
    };
    add_entry(std::move(e));
  }

  /// Encodes one typed message. Throws std::invalid_argument when T is not
  /// registered, std::length_error when topic/source exceed 64 KiB.
  template <typename T>
  std::vector<std::uint8_t> encode(const OutboundMessage& m,
                                   const T& payload) const {
    std::vector<std::uint8_t> out;
    if (!encode_any(m, std::any(std::cref(payload)),
                    std::type_index(typeid(T)), out)) {
      throw std::invalid_argument("mw::Codec: type not registered: " +
                                  std::string(typeid(T).name()));
    }
    return out;
  }

  /// Type-erased encode from a bus tap (`payload_ref` carries a
  /// std::reference_wrapper<const T>, exactly what Bus hands taps).
  /// Returns false — leaving `out` untouched — when `type` has no
  /// registered schema.
  bool encode_any(const OutboundMessage& m, const std::any& payload_ref,
                  std::type_index type, std::vector<std::uint8_t>& out) const;

  /// Structural decode: validates the fixed header and every length field
  /// against the buffer, copies nothing. std::nullopt on truncation or
  /// lengths pointing past the end. An unsupported version still decodes
  /// (see the file header).
  static std::optional<DecodedMessage> decode(
      std::span<const std::uint8_t> bytes) noexcept;
  static std::optional<DecodedMessage> decode(
      std::string_view bytes) noexcept {
    return decode(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
  }

  /// Decodes the payload through its registered schema and publishes it on
  /// `bus` (string-keyed publish: the receiving bus interns the names into
  /// *its* tables). Never throws on wire input.
  DeliverResult deliver(Bus& bus, const DecodedMessage& m) const;

  /// Decodes a payload without a bus (tests, offline tooling). nullopt
  /// when the tag is unknown or the bytes are rejected.
  template <typename T>
  std::optional<T> decode_payload(std::uint32_t tag,
                                  std::string_view payload) const {
    const Entry* e = find_tag(tag);
    if (e == nullptr || e->type != std::type_index(typeid(T)))
      return std::nullopt;
    WireReader r(payload);
    const auto& decode =
        *std::any_cast<std::function<T(WireReader&)>>(&e->raw_decode);
    T value = decode(r);
    if (!r.ok() || r.remaining() != 0) return std::nullopt;
    return value;
  }

  bool knows(std::type_index type) const {
    return by_type_.count(type) != 0;
  }
  bool knows_tag(std::uint32_t tag) const { return find_tag(tag) != nullptr; }
  /// Diagnostic name for a tag ("" when unknown).
  std::string_view tag_name(std::uint32_t tag) const {
    const Entry* e = find_tag(tag);
    return e == nullptr ? std::string_view{} : std::string_view(e->name);
  }

 private:
  struct Entry {
    std::uint32_t tag = 0;
    std::string name;
    std::type_index type = std::type_index(typeid(void));
    std::function<void(WireWriter&, const std::any&)> encode;
    std::function<bool(Bus&, const DecodedMessage&)> deliver;
    std::any raw_decode;  ///< std::function<T(WireReader&)> for decode_payload
  };

  void check_unregistered(std::uint32_t tag, std::type_index type) const;
  void add_entry(Entry e);
  const Entry* find_tag(std::uint32_t tag) const;

  std::map<std::uint32_t, Entry> by_tag_;
  std::map<std::type_index, std::uint32_t> by_type_;
};

}  // namespace sesame::mw
