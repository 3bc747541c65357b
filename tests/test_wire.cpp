// Wire transport: codec round-trips, COBS/CRC framing, corruption and
// replay rejection, the fuzz contract (decoder never crashes, never
// over-reads, never accepts a bad CRC), and cross-bus federation through
// mw::BusBridge. docs/PROTOCOL.md documents the exact bytes; the golden
// tests below pin them.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <span>
#include <string>
#include <vector>

#include "sesame/mathx/rng.hpp"
#include "sesame/mw/bus.hpp"
#include "sesame/mw/bus_bridge.hpp"
#include "sesame/mw/codec.hpp"
#include "sesame/mw/framing.hpp"
#include "sesame/mw/socket_pump.hpp"
#include "sesame/obs/metrics.hpp"
#include "sesame/sim/wire_types.hpp"
#include "sesame/sim/world.hpp"

namespace {

using namespace sesame;

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int b : v) out.push_back(static_cast<std::uint8_t>(b));
  return out;
}

std::string hex(std::span<const std::uint8_t> b) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  for (std::uint8_t x : b) {
    s.push_back(digits[x >> 4]);
    s.push_back(digits[x & 0xF]);
  }
  return s;
}

// --- COBS ------------------------------------------------------------------

TEST(Cobs, KnownVectors) {
  // The classic examples: {00} -> 01 01 00, {11 22 00 33} -> 03 11 22 02 33 00
  std::vector<std::uint8_t> out;
  mw::cobs_encode(bytes_of({0x00}), out);
  EXPECT_EQ(hex(out), "010100");
  out.clear();
  mw::cobs_encode(bytes_of({0x11, 0x22, 0x00, 0x33}), out);
  EXPECT_EQ(hex(out), "031122023300");
}

TEST(Cobs, RoundTripsArbitraryContent) {
  mathx::Rng rng(2026);
  for (int len : {0, 1, 2, 253, 254, 255, 256, 509, 1024}) {
    std::vector<std::uint8_t> in(static_cast<std::size_t>(len));
    for (auto& b : in)
      b = static_cast<std::uint8_t>(rng.uniform_index(256));
    std::vector<std::uint8_t> wire;
    mw::cobs_encode(in, wire);
    ASSERT_FALSE(wire.empty());
    EXPECT_EQ(wire.back(), 0u);  // delimiter
    // No zero byte before the delimiter.
    for (std::size_t i = 0; i + 1 < wire.size(); ++i)
      EXPECT_NE(wire[i], 0u) << "embedded zero at " << i << " len " << len;
    std::vector<std::uint8_t> back;
    ASSERT_TRUE(mw::cobs_decode({wire.data(), wire.size() - 1}, back));
    EXPECT_EQ(back, in);
  }
}

TEST(Cobs, RejectsMalformed) {
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(mw::cobs_decode({}, out));
  // Code byte pointing past the end.
  EXPECT_FALSE(mw::cobs_decode(bytes_of({0x05, 0x11}), out));
  // Embedded zero (delimiters never appear inside a packet).
  EXPECT_FALSE(mw::cobs_decode(bytes_of({0x02, 0x11, 0x00, 0x01}), out));
}

// --- CRC32 -----------------------------------------------------------------

TEST(Crc32, CheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(mw::crc32_ieee(
                {reinterpret_cast<const std::uint8_t*>(check.data()),
                 check.size()}),
            0xCBF43926u);
  EXPECT_EQ(mw::crc32_ieee({}), 0u);
}

// --- WireReader ------------------------------------------------------------

TEST(WireReader, PoisonsOnOverReadAndStaysPoisoned) {
  const auto buf = bytes_of({0x01, 0x02});
  mw::WireReader r{std::span<const std::uint8_t>(buf)};
  EXPECT_EQ(r.u16(), 0x0201u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.u32(), 0u);  // over-read: poisoned, returns zero
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // still poisoned even though a byte "fits"
  EXPECT_EQ(r.str16(), std::string_view{});
}

TEST(WireReader, StringViewsBorrowFromInput) {
  mw::WireWriter w;
  w.str16("telemetry");
  const std::vector<std::uint8_t> buf = w.take();
  mw::WireReader r{std::span<const std::uint8_t>(buf)};
  const std::string_view v = r.str16();
  EXPECT_EQ(v, "telemetry");
  EXPECT_GE(reinterpret_cast<const std::uint8_t*>(v.data()), buf.data());
  EXPECT_LE(reinterpret_cast<const std::uint8_t*>(v.data()) + v.size(),
            buf.data() + buf.size());
}

TEST(WireReader, RejectsNonCanonicalBool) {
  const auto buf = bytes_of({0x02});
  mw::WireReader r{std::span<const std::uint8_t>(buf)};
  r.boolean();
  EXPECT_FALSE(r.ok());
}

// --- Codec -----------------------------------------------------------------

mw::OutboundMessage fix_msg() {
  mw::OutboundMessage m;
  m.topic = "uav/uav1/position_fix";
  m.source = "gcs";
  m.seq = 7;
  m.time_s = 12.5;
  return m;
}

TEST(Codec, RoundTripsPrimitives) {
  mw::Codec codec;
  const std::vector<std::uint8_t> wire = codec.encode(fix_msg(), 42.25);
  const auto m = mw::Codec::decode(wire);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->version, mw::Codec::kVersion);
  EXPECT_EQ(m->payload_tag, mw::Codec::kF64Tag);
  EXPECT_EQ(m->seq, 7u);
  EXPECT_DOUBLE_EQ(m->time_s, 12.5);
  EXPECT_EQ(m->topic, "uav/uav1/position_fix");
  EXPECT_EQ(m->source, "gcs");
  const auto v = codec.decode_payload<double>(m->payload_tag, m->payload);
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(*v, 42.25);
}

TEST(Codec, DecodeIsZeroCopy) {
  mw::Codec codec;
  const std::vector<std::uint8_t> wire =
      codec.encode(fix_msg(), std::string("hello"));
  const auto m = mw::Codec::decode(wire);
  ASSERT_TRUE(m.has_value());
  const auto inside = [&](std::string_view v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    return p >= wire.data() && p + v.size() <= wire.data() + wire.size();
  };
  EXPECT_TRUE(inside(m->topic));
  EXPECT_TRUE(inside(m->source));
  EXPECT_TRUE(inside(m->payload));
}

TEST(Codec, RoundTripsTelemetry) {
  mw::Codec codec;
  sim::register_wire_types(codec);
  sim::Telemetry t;
  t.uav = "uav2";
  t.reported_position = {35.18, 33.38, 42.0};
  t.altitude_m = 42.0;
  t.battery_soc = 0.73;
  t.battery_temp_c = 31.5;
  t.mode = sim::FlightMode::kMission;
  t.time_s = 99.5;
  t.gps_fix = false;
  mw::OutboundMessage m = fix_msg();
  m.topic = "uav/uav2/telemetry";
  m.source = "uav2";
  const auto wire = codec.encode(m, t);
  const auto d = mw::Codec::decode(wire);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->payload_tag, sim::kTelemetryTag);
  const auto back =
      codec.decode_payload<sim::Telemetry>(d->payload_tag, d->payload);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->uav, "uav2");
  EXPECT_DOUBLE_EQ(back->reported_position.lat_deg, 35.18);
  EXPECT_DOUBLE_EQ(back->reported_position.lon_deg, 33.38);
  EXPECT_DOUBLE_EQ(back->battery_soc, 0.73);
  EXPECT_EQ(back->mode, sim::FlightMode::kMission);
  EXPECT_DOUBLE_EQ(back->time_s, 99.5);
  EXPECT_FALSE(back->gps_fix);
}

TEST(Codec, UnregisteredTypeThrowsOnEncodeAndFailsEncodeAny) {
  mw::Codec codec;  // no sim types registered
  sim::Telemetry t;
  EXPECT_THROW(codec.encode(fix_msg(), t), std::invalid_argument);
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(codec.encode_any(fix_msg(), std::any(std::cref(t)),
                                std::type_index(typeid(sim::Telemetry)),
                                out));
  EXPECT_TRUE(out.empty());
}

TEST(Codec, DuplicateTagRegistrationThrows) {
  mw::Codec codec;
  EXPECT_THROW(codec.register_type<float>(
                   mw::Codec::kF64Tag, "clash",
                   [](mw::WireWriter&, const float&) {},
                   [](mw::WireReader&) { return 0.0f; }),
               std::invalid_argument);
  EXPECT_THROW(codec.register_type<double>(
                   0x77, "clash",
                   [](mw::WireWriter&, const double&) {},
                   [](mw::WireReader&) { return 0.0; }),
               std::invalid_argument);
}

TEST(Codec, EveryTruncationFailsStructuralDecode) {
  mw::Codec codec;
  sim::register_wire_types(codec);
  geo::GeoPoint p{35.0, 33.0, 20.0};
  const auto wire = codec.encode(fix_msg(), p);
  for (std::size_t n = 0; n < wire.size(); ++n) {
    EXPECT_FALSE(mw::Codec::decode({wire.data(), n}).has_value())
        << "truncation to " << n << " bytes decoded";
  }
  // ... and trailing garbage is rejected too (strict framing).
  auto longer = wire;
  longer.push_back(0xAA);
  EXPECT_FALSE(mw::Codec::decode(longer).has_value());
}

TEST(Codec, UnsupportedVersionDecodesStructurallyButIsNotDelivered) {
  mw::Codec codec;
  auto wire = codec.encode(fix_msg(), 1.0);
  wire[0] = 0x02;  // version 2
  wire[1] = 0x00;
  const auto m = mw::Codec::decode(wire);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->version, 2u);
  mw::Bus bus;
  EXPECT_EQ(codec.deliver(bus, *m), mw::DeliverResult::kUnsupportedVersion);
  EXPECT_EQ(bus.messages_published(), 0u);
}

TEST(Codec, DeliverPublishesOnBus) {
  mw::Codec codec;
  sim::register_wire_types(codec);
  const auto wire = codec.encode(fix_msg(), geo::GeoPoint{1.0, 2.0, 3.0});
  mw::Bus bus;
  geo::GeoPoint got{};
  double got_time = 0.0;
  std::string got_source;
  auto sub = bus.subscribe<geo::GeoPoint>(
      "uav/uav1/position_fix",
      [&](const mw::MessageHeader& h, const geo::GeoPoint& p) {
        got = p;
        got_time = h.time_s;
        got_source = std::string(h.source);
      });
  const auto m = mw::Codec::decode(wire);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(codec.deliver(bus, *m), mw::DeliverResult::kDelivered);
  EXPECT_DOUBLE_EQ(got.lat_deg, 1.0);
  EXPECT_DOUBLE_EQ(got.lon_deg, 2.0);
  EXPECT_DOUBLE_EQ(got.alt_m, 3.0);
  EXPECT_DOUBLE_EQ(got_time, 12.5);
  EXPECT_EQ(got_source, "gcs");
}

TEST(Codec, UnknownTagAndMalformedPayloadAreDistinguished) {
  mw::Codec codec;
  mw::Bus bus;
  auto wire = codec.encode(fix_msg(), 1.0);
  // Patch the tag (offset 2, u32 LE) to something unregistered.
  wire[2] = 0x99;
  auto m = mw::Codec::decode(wire);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(codec.deliver(bus, *m), mw::DeliverResult::kUnknownTag);
  // A short f64 payload: registered tag, bad bytes.
  mw::WireWriter w;
  w.u16(mw::Codec::kVersion);
  w.u32(mw::Codec::kF64Tag);
  w.u64(0);
  w.f64(0.0);
  w.str16("t");
  w.str16("s");
  w.str32("abc");  // 3 bytes where f64 needs 8
  const auto bad = w.take();
  m = mw::Codec::decode(bad);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(codec.deliver(bus, *m), mw::DeliverResult::kMalformedPayload);
  EXPECT_EQ(bus.messages_published(), 0u);
}

// --- Golden bytes (docs/PROTOCOL.md §7 worked example) ---------------------

// The exact encoding of the PROTOCOL.md worked example: a geo.GeoPoint
// position fix on uav/uav1/position_fix from "gcs", seq 7, t=12.5 s.
// Changing these bytes is a wire-protocol break — bump Codec::kVersion.
constexpr const char* kGoldenMessageHex =
    "0100"               // version = 1 (u16 LE)
    "10000000"           // payload tag = 0x10 geo.GeoPoint (u32 LE)
    "0700000000000000"   // origin seq = 7 (u64 LE)
    "0000000000002940"   // time_s = 12.5 (f64 LE)
    "1500"               // topic length = 21
    "7561762f756176312f706f736974696f6e5f666978"  // "uav/uav1/position_fix"
    "0300"               // source length = 3
    "676373"             // "gcs"
    "18000000"           // payload length = 24 (u32 LE)
    "0000000000984140"   // lat_deg  = 35.1875 (f64 LE)
    "0000000000b04040"   // lon_deg  = 33.375  (f64 LE)
    "0000000000003e40";  // alt_m    = 30.0    (f64 LE)

TEST(Codec, GoldenMessageBytesMatchProtocolDoc) {
  mw::Codec codec;
  sim::register_wire_types(codec);
  mw::OutboundMessage m;
  m.topic = "uav/uav1/position_fix";
  m.source = "gcs";
  m.seq = 7;
  m.time_s = 12.5;
  const geo::GeoPoint p{35.1875, 33.375, 30.0};
  const auto wire = codec.encode(m, p);
  EXPECT_EQ(hex(wire), std::string(kGoldenMessageHex));
}

// --- Framing ---------------------------------------------------------------

/// Collects the payloads `link` delivers, crediting each back once kept.
struct Sink {
  explicit Sink(mw::Framing& framing) : link(framing) {}
  mw::Framing& link;
  std::vector<std::vector<std::uint8_t>> messages;
  mw::Framing::MessageSink fn() {
    return [this](std::span<const std::uint8_t> payload, std::uint64_t) {
      messages.emplace_back(payload.begin(), payload.end());
      link.release(1);
    };
  }
};

/// One frame as a peer that ignores flow control puts it on the wire.
std::vector<std::uint8_t> raw_frame(mw::Framing::FrameType type,
                                    std::uint64_t seq,
                                    std::vector<std::uint8_t> body) {
  std::vector<std::uint8_t> frame{static_cast<std::uint8_t>(type)};
  for (int i = 0; i < 8; ++i)
    frame.push_back(static_cast<std::uint8_t>(seq >> (8 * i)));
  frame.insert(frame.end(), body.begin(), body.end());
  const std::uint32_t crc = mw::crc32_ieee(frame);
  for (int i = 0; i < 4; ++i)
    frame.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  std::vector<std::uint8_t> wire;
  mw::cobs_encode(frame, wire);
  return wire;
}

constexpr auto kInit = mw::Framing::FrameType::kInit;
constexpr auto kMessage = mw::Framing::FrameType::kMessage;

/// Pumps both directions until quiet.
void pump(mw::Framing& a, mw::Framing& b, Sink& sa, Sink& sb) {
  for (int i = 0; i < 64; ++i) {
    const auto fa = a.take_outbound();
    const auto fb = b.take_outbound();
    if (fa.empty() && fb.empty()) return;
    if (!fa.empty()) b.feed(fa, sb.fn());
    if (!fb.empty()) a.feed(fb, sa.fn());
  }
  FAIL() << "link did not quiesce";
}

TEST(Framing, HandshakeEstablishesAndNegotiatesVersion) {
  mw::Framing a, b;
  Sink sa{a}, sb{b};
  EXPECT_FALSE(a.established());
  a.start();
  b.start();
  pump(a, b, sa, sb);
  EXPECT_TRUE(a.established());
  EXPECT_TRUE(b.established());
  EXPECT_EQ(a.negotiated_version(), mw::Framing::kProtocolVersion);
  EXPECT_EQ(b.negotiated_version(), mw::Framing::kProtocolVersion);
}

TEST(Framing, MessagesQueueUntilEstablished) {
  mw::Framing a, b;
  Sink sa{a}, sb{b};
  const auto payload = bytes_of({1, 2, 3});
  a.send_message(payload);  // before any handshake
  EXPECT_EQ(a.queued_bytes(), 3u);
  a.start();
  b.start();
  pump(a, b, sa, sb);
  ASSERT_EQ(sb.messages.size(), 1u);
  EXPECT_EQ(sb.messages[0], payload);
}

TEST(Framing, RoundTripsMessagesBothWays) {
  mw::Framing a, b;
  Sink sa{a}, sb{b};
  a.start();
  b.start();
  pump(a, b, sa, sb);
  a.send_message(bytes_of({0xDE, 0xAD, 0x00, 0xBE, 0xEF}));
  b.send_message(bytes_of({0x01}));
  pump(a, b, sa, sb);
  ASSERT_EQ(sb.messages.size(), 1u);
  EXPECT_EQ(sb.messages[0], bytes_of({0xDE, 0xAD, 0x00, 0xBE, 0xEF}));
  ASSERT_EQ(sa.messages.size(), 1u);
  EXPECT_EQ(sa.messages[0], bytes_of({0x01}));
  EXPECT_EQ(a.counters().messages_tx, 1u);
  EXPECT_EQ(a.counters().messages_rx, 1u);
  EXPECT_EQ(a.counters().crc_errors, 0u);

  // The largest payload send_message accepts, with no zero byte (COBS's
  // worst case), still passes the receiver's packet-size check.
  const std::vector<std::uint8_t> largest(a.max_payload_bytes(), 0x5A);
  a.send_message(largest);
  pump(a, b, sa, sb);
  ASSERT_EQ(sb.messages.size(), 2u);
  EXPECT_EQ(sb.messages[1], largest);
  EXPECT_EQ(b.counters().malformed_frames, 0u);
  EXPECT_THROW(a.send_message(std::vector<std::uint8_t>(
                   a.max_payload_bytes() + 1, 0x5A)),
               std::length_error);
}

TEST(Framing, WindowStallsAndReleases) {
  mw::FramingConfig small;
  small.window = 2;  // B grants A two in-flight messages
  mw::Framing a;     // default window toward B
  mw::Framing b(small);
  Sink sa{a}, sb{b};
  a.start();
  b.start();
  pump(a, b, sa, sb);
  EXPECT_EQ(a.send_credit(), 2u);
  for (int i = 0; i < 5; ++i) a.send_message(bytes_of({i}));
  EXPECT_EQ(a.queued_bytes(), 3u);  // 2 in flight, 3 one-byte ones stalled
  EXPECT_EQ(a.counters().window_stalls, 3u);
  pump(a, b, sa, sb);  // credits flow back, queue drains
  EXPECT_EQ(sb.messages.size(), 5u);
  EXPECT_EQ(a.queued_bytes(), 0u);
  EXPECT_EQ(a.send_credit(), 2u);  // all credit returned
}

TEST(Framing, CreditReturnsOnlyOnRelease) {
  mw::FramingConfig small;
  small.window = 2;
  mw::Framing a;
  mw::Framing b(small);
  Sink sa{a}, sb{b};
  a.start();
  b.start();
  pump(a, b, sa, sb);
  std::size_t delivered = 0;
  const mw::Framing::MessageSink unhandled =
      [&delivered](std::span<const std::uint8_t>, std::uint64_t) {
        ++delivered;
      };
  a.send_message(bytes_of({1}));
  a.send_message(bytes_of({2}));
  a.send_message(bytes_of({3}));  // window closed: queued
  b.feed(a.take_outbound(), unhandled);
  EXPECT_EQ(delivered, 2u);
  EXPECT_FALSE(b.has_outbound());  // delivered is not credited
  EXPECT_EQ(a.send_credit(), 0u);
  EXPECT_EQ(a.queued_bytes(), 1u);

  b.release(1);  // one handled
  a.feed(b.take_outbound(), sa.fn());
  EXPECT_EQ(a.queued_bytes(), 0u);  // the credit sent the third
  b.feed(a.take_outbound(), unhandled);
  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(b.counters().window_violations, 0u);
  EXPECT_THROW(b.release(3), std::logic_error);  // only two outstanding
  EXPECT_THROW(b.release(0), std::logic_error);
  b.release(2);
  a.feed(b.take_outbound(), sa.fn());
  EXPECT_EQ(a.send_credit(), 2u);  // all credit returned
}

TEST(Framing, MessageBeyondTheWindowIsCountedAndNotDelivered) {
  mw::FramingConfig small;
  small.window = 2;
  mw::Framing b(small);
  std::vector<std::uint8_t> delivered;
  const mw::Framing::MessageSink unhandled =
      [&delivered](std::span<const std::uint8_t> payload, std::uint64_t) {
        delivered.push_back(payload[0]);
      };
  b.feed(raw_frame(kInit, 1, {2, 0, 1, 0}), unhandled);
  for (std::uint8_t i = 2; i <= 4; ++i) {
    b.feed(raw_frame(kMessage, i, {i}), unhandled);
  }
  EXPECT_EQ(delivered, bytes_of({2, 3}));
  EXPECT_EQ(b.counters().window_violations, 1u);
  EXPECT_EQ(b.counters().messages_rx, 2u);

  b.release(2);
  b.feed(raw_frame(kMessage, 5, {5}), unhandled);  // inside the window
  EXPECT_EQ(delivered, bytes_of({2, 3, 5}));
  EXPECT_EQ(b.counters().window_violations, 1u);
}

TEST(Framing, ReInitKeepsOutstandingMessages) {
  mw::FramingConfig small;
  small.window = 2;
  mw::Framing b(small);
  std::size_t delivered = 0;
  const mw::Framing::MessageSink unhandled =
      [&delivered](std::span<const std::uint8_t>, std::uint64_t) {
        ++delivered;
      };
  b.feed(raw_frame(kInit, 1, {2, 0, 1, 0}), unhandled);
  b.feed(raw_frame(kMessage, 2, {1}), unhandled);
  b.feed(raw_frame(kMessage, 3, {2}), unhandled);
  // The peer restarts its session and sends again: the two Messages
  // still outstanding fill the window.
  b.feed(raw_frame(kInit, 1, {2, 0, 1, 0}), unhandled);
  b.feed(raw_frame(kMessage, 2, {3}), unhandled);
  EXPECT_TRUE(b.established());
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(b.counters().window_violations, 1u);
}

TEST(Framing, CorruptedFrameIsRejectedAndLinkResyncs) {
  mw::Framing a, b;
  Sink sa{a}, sb{b};
  a.start();
  b.start();
  pump(a, b, sa, sb);
  a.send_message(bytes_of({0x11, 0x22, 0x33}));
  auto wire = a.take_outbound();
  ASSERT_GT(wire.size(), 4u);
  wire[2] ^= 0x40;  // corrupt one bit mid-frame
  b.feed(wire, sb.fn());
  EXPECT_TRUE(sb.messages.empty());
  EXPECT_EQ(b.counters().crc_errors + b.counters().cobs_errors +
                b.counters().malformed_frames,
            1u);
  EXPECT_EQ(b.counters().resyncs, 1u);
  // The link keeps working afterwards.
  a.send_message(bytes_of({0x44}));
  pump(a, b, sa, sb);
  ASSERT_EQ(sb.messages.size(), 1u);
  EXPECT_EQ(sb.messages[0], bytes_of({0x44}));
}

TEST(Framing, EverySingleBitFlipIsRejected) {
  mw::Framing a;
  a.start();
  {  // establish a against a scratch peer
    mw::Framing peer;
    Sink sa{a}, sp{peer};
    peer.start();
    pump(a, peer, sa, sp);
  }
  a.send_message(bytes_of({0xAB, 0x00, 0xCD}));
  const auto wire = a.take_outbound();
  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupted = wire;
      corrupted[i] ^= static_cast<std::uint8_t>(1 << bit);
      mw::Framing fresh;
      Sink s{fresh};
      fresh.feed(corrupted, s.fn());
      fresh.feed(bytes_of({0x00}), s.fn());  // flush any partial packet
      EXPECT_TRUE(s.messages.empty())
          << "bit " << bit << " of byte " << i << " delivered";
    }
  }
}

TEST(Framing, ReplayedFrameIsRejected) {
  mw::Framing a, b;
  Sink sa{a}, sb{b};
  a.start();
  b.start();
  pump(a, b, sa, sb);
  a.send_message(bytes_of({0x77}));
  const auto wire = a.take_outbound();
  b.feed(wire, sb.fn());
  ASSERT_EQ(sb.messages.size(), 1u);
  b.feed(wire, sb.fn());  // verbatim replay
  EXPECT_EQ(sb.messages.size(), 1u);
  EXPECT_EQ(b.counters().replays_rejected, 1u);
}

TEST(Framing, SequenceGapIsCountedButAccepted) {
  mw::Framing a, b;
  Sink sa{a}, sb{b};
  a.start();
  b.start();
  pump(a, b, sa, sb);
  a.send_message(bytes_of({0x01}));
  const auto first = a.take_outbound();
  a.send_message(bytes_of({0x02}));
  a.take_outbound();  // frame lost in transit
  a.send_message(bytes_of({0x03}));
  const auto third = a.take_outbound();
  b.feed(first, sb.fn());
  b.feed(third, sb.fn());
  EXPECT_EQ(sb.messages.size(), 2u);
  EXPECT_EQ(b.counters().seq_gaps, 1u);
  EXPECT_EQ(b.counters().replays_rejected, 0u);
}

TEST(Framing, FragmentedDeliveryReassembles) {
  mw::Framing a, b;
  Sink sa{a}, sb{b};
  a.start();
  b.start();
  pump(a, b, sa, sb);
  a.send_message(bytes_of({0x10, 0x20, 0x30, 0x40}));
  const auto wire = a.take_outbound();
  // One byte at a time — partial packets buffer across feeds.
  for (const std::uint8_t byte : wire) {
    b.feed(std::span<const std::uint8_t>(&byte, 1), sb.fn());
  }
  ASSERT_EQ(sb.messages.size(), 1u);
  EXPECT_EQ(sb.messages[0], bytes_of({0x10, 0x20, 0x30, 0x40}));
}

/// Toy authenticated transform: XOR stream "cipher" + additive MAC. Not
/// cryptography — exercises the hook's contract (protect grows the frame,
/// unprotect verifies and strips).
class XorMacTransform : public mw::SecurityTransform {
 public:
  explicit XorMacTransform(std::uint8_t key) : key_(key) {}
  void protect(std::vector<std::uint8_t>& frame) override {
    std::uint16_t mac = static_cast<std::uint16_t>(key_ * 257u);
    for (auto& b : frame) {
      b ^= key_;
      mac = static_cast<std::uint16_t>(mac + b);
    }
    frame.push_back(static_cast<std::uint8_t>(mac));
    frame.push_back(static_cast<std::uint8_t>(mac >> 8));
  }
  bool unprotect(std::vector<std::uint8_t>& frame) override {
    if (frame.size() < 2) return false;
    const std::uint16_t wire_mac = static_cast<std::uint16_t>(
        frame[frame.size() - 2] | (frame[frame.size() - 1] << 8));
    frame.resize(frame.size() - 2);
    std::uint16_t mac = static_cast<std::uint16_t>(key_ * 257u);
    for (auto& b : frame) {
      mac = static_cast<std::uint16_t>(mac + b);
      b ^= key_;
    }
    return mac == wire_mac;
  }

 private:
  std::uint8_t key_;
};

TEST(Framing, SecurityTransformRoundTrips) {
  XorMacTransform ka(0x5A), kb(0x5A);
  mw::FramingConfig ca, cb;
  ca.transform = &ka;
  cb.transform = &kb;
  mw::Framing a(ca), b(cb);
  Sink sa{a}, sb{b};
  a.start();
  b.start();
  pump(a, b, sa, sb);
  ASSERT_TRUE(a.established());
  a.send_message(bytes_of({0x42, 0x00, 0x42}));
  pump(a, b, sa, sb);
  ASSERT_EQ(sb.messages.size(), 1u);
  EXPECT_EQ(sb.messages[0], bytes_of({0x42, 0x00, 0x42}));
}

TEST(Framing, MismatchedKeysFailAuthenticationNotCrc) {
  XorMacTransform ka(0x5A), kb(0xA5);  // different keys
  mw::FramingConfig ca, cb;
  ca.transform = &ka;
  cb.transform = &kb;
  mw::Framing a(ca), b(cb);
  Sink sb{b};
  a.start();
  b.feed(a.take_outbound(), sb.fn());
  EXPECT_FALSE(b.established());
  EXPECT_GE(b.counters().auth_failures, 1u);
  EXPECT_EQ(b.counters().crc_errors, 0u);  // CRC covers protected bytes
}

TEST(Framing, FutureVersionPeerNegotiatesDownToOurs) {
  // Hand-craft an Init advertising window 8 and max version 7 (a future
  // build).
  mw::Framing b;
  Sink sb{b};
  b.feed(raw_frame(kInit, 1, {8, 0, 7, 0}), sb.fn());
  EXPECT_TRUE(b.established());
  EXPECT_EQ(b.negotiated_version(), 1u);
  EXPECT_EQ(b.send_credit(), 8u);
}

// --- Fuzz: the decoder survival contract -----------------------------------

TEST(Fuzz, RandomBytesNeverCrashCodecDecode) {
  mathx::Rng rng(0xC0DEC);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> buf(rng.uniform_index(300));
    for (auto& b : buf)
      b = static_cast<std::uint8_t>(rng.uniform_index(256));
    // Must not crash, over-read (ASan job) or throw.
    (void)mw::Codec::decode(buf);
  }
}

TEST(Fuzz, RandomBytesNeverDeliverThroughFraming) {
  mathx::Rng rng(0xF8A);
  mw::Framing b;
  Sink s{b};
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> buf(rng.uniform_index(300));
    for (auto& x : buf)
      x = static_cast<std::uint8_t>(rng.uniform_index(256));
    b.feed(buf, s.fn());
  }
  // 1 - 2^-32 per packet that random bytes fail the CRC; over 2000 tries
  // a delivery still means the check is broken.
  EXPECT_TRUE(s.messages.empty());
  EXPECT_GT(b.counters().resyncs, 0u);
}

TEST(Fuzz, RandomPayloadBytesNeverCrashRegisteredDecoders) {
  mw::Codec codec;
  sim::register_wire_types(codec);
  mw::Bus bus;
  auto sub = bus.subscribe<sim::Telemetry>(
      "t", [](const mw::MessageHeader&, const sim::Telemetry&) {});
  mathx::Rng rng(0xDECADE);
  const std::uint32_t tags[] = {
      mw::Codec::kF64Tag,     mw::Codec::kStringTag,
      sim::kGeoPointTag,      sim::kTelemetryTag,
      sim::kHealthHeartbeatTag};
  int delivered = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    mw::WireWriter w;
    w.u16(mw::Codec::kVersion);
    w.u32(tags[rng.uniform_index(std::size(tags))]);
    w.u64(iter);
    w.f64(1.0);
    w.str16("t");
    w.str16("s");
    std::string payload(rng.uniform_index(64), '\0');
    for (auto& c : payload)
      c = static_cast<char>(rng.uniform_index(256));
    w.str32(payload);
    const auto wire = w.take();
    const auto m = mw::Codec::decode(wire);
    ASSERT_TRUE(m.has_value());
    // Either result is fine; crashing or throwing is not.
    if (codec.deliver(bus, *m) == mw::DeliverResult::kDelivered) ++delivered;
  }
  // Random bytes occasionally form a valid f64/string payload — but a
  // structured Telemetry almost never; mostly this must reject.
  EXPECT_LT(delivered, 2000);
}

// --- BusBridge: cross-bus federation ---------------------------------------

struct FederationFixture {
  mw::Codec codec;
  mw::Bus bus_a, bus_b;
  mw::BusBridge bridge_a, bridge_b;

  FederationFixture(mw::BridgeConfig ca = {}, mw::BridgeConfig cb = {})
      : bridge_a(bus_a, prepared(), std::move(ca)),
        bridge_b(bus_b, codec, std::move(cb)) {
    bridge_a.start();
    bridge_b.start();
    mw::BusBridge::pump(bridge_a, bridge_b);
  }

 private:
  const mw::Codec& prepared() {
    sim::register_wire_types(codec);
    return codec;
  }
};

TEST(BusBridge, FederatesAPublishToBByteIdentically) {
  FederationFixture f;
  sim::Telemetry got;
  double got_time = 0.0;
  std::string got_topic, got_source;
  std::size_t deliveries = 0;
  auto sub = f.bus_b.subscribe<sim::Telemetry>(
      "uav/uav1/telemetry",
      [&](const mw::MessageHeader& h, const sim::Telemetry& t) {
        got = t;
        got_time = h.time_s;
        got_topic = std::string(h.topic);
        got_source = std::string(h.source);
        ++deliveries;
      });
  sim::Telemetry t;
  t.uav = "uav1";
  t.reported_position = {35.25, 33.5, 28.0};
  t.battery_soc = 0.81;
  t.mode = sim::FlightMode::kMission;
  t.time_s = 17.5;
  f.bus_a.publish("uav/uav1/telemetry", t, "uav1", 17.5);
  mw::BusBridge::pump(f.bridge_a, f.bridge_b);
  ASSERT_EQ(deliveries, 1u);
  EXPECT_EQ(got_topic, "uav/uav1/telemetry");
  EXPECT_EQ(got_source, "uav1");
  EXPECT_DOUBLE_EQ(got_time, 17.5);
  EXPECT_EQ(got.uav, "uav1");
  EXPECT_DOUBLE_EQ(got.reported_position.lat_deg, 35.25);
  EXPECT_DOUBLE_EQ(got.battery_soc, 0.81);
  EXPECT_EQ(got.mode, sim::FlightMode::kMission);
  EXPECT_EQ(f.bridge_a.bridge_counters().forwarded, 1u);
  EXPECT_EQ(f.bridge_b.bridge_counters().delivered, 1u);
}

TEST(BusBridge, NoEchoLoop) {
  FederationFixture f;
  std::size_t deliveries_a = 0, deliveries_b = 0;
  auto sub_a = f.bus_a.subscribe<double>(
      "ping", [&](const mw::MessageHeader&, double) { ++deliveries_a; });
  auto sub_b = f.bus_b.subscribe<double>(
      "ping", [&](const mw::MessageHeader&, double) { ++deliveries_b; });
  f.bus_a.publish("ping", 1.0, "gcs", 0.0);
  mw::BusBridge::pump(f.bridge_a, f.bridge_b);
  EXPECT_EQ(deliveries_a, 1u);  // local delivery only
  EXPECT_EQ(deliveries_b, 1u);  // federated once, not ping-ponged
  EXPECT_EQ(f.bridge_a.bridge_counters().forwarded, 1u);
  EXPECT_EQ(f.bridge_b.bridge_counters().forwarded, 0u);
  EXPECT_EQ(f.bridge_b.bridge_counters().skipped_remote_origin, 1u);
}

TEST(BusBridge, BidirectionalTrafficAndLocalReactionsAreForwarded) {
  FederationFixture f;
  // B reacts to A's telemetry with a locally-sourced alert; the reaction
  // must cross back to A (split horizon keys on source, not topic).
  std::vector<std::string> alerts_on_a;
  auto sub_alert = f.bus_a.subscribe<std::string>(
      "alerts", [&](const mw::MessageHeader&, const std::string& s) {
        alerts_on_a.push_back(s);
      });
  auto sub_tel = f.bus_b.subscribe<double>(
      "metric", [&](const mw::MessageHeader& h, double v) {
        if (v > 0.5) {
          f.bus_b.publish("alerts", std::string("too high"), "analyzer",
                          h.time_s);
        }
      });
  f.bus_a.publish("metric", 0.9, "uav1", 3.0);
  mw::BusBridge::pump(f.bridge_a, f.bridge_b);
  ASSERT_EQ(alerts_on_a.size(), 1u);
  EXPECT_EQ(alerts_on_a[0], "too high");
}

TEST(BusBridge, TopicPrefixFilterLimitsForwarding) {
  mw::BridgeConfig ca;
  ca.forward_prefixes = {"uav/"};
  FederationFixture f(std::move(ca));
  std::size_t got = 0;
  auto sub1 = f.bus_b.subscribe<double>(
      "uav/uav1/ping", [&](const mw::MessageHeader&, double) { ++got; });
  auto sub2 = f.bus_b.subscribe<double>(
      "internal/debug", [&](const mw::MessageHeader&, double) { ++got; });
  f.bus_a.publish("uav/uav1/ping", 1.0, "gcs", 0.0);
  f.bus_a.publish("internal/debug", 2.0, "gcs", 0.0);
  mw::BusBridge::pump(f.bridge_a, f.bridge_b);
  EXPECT_EQ(got, 1u);
  EXPECT_EQ(f.bridge_a.bridge_counters().skipped_filtered, 1u);
}

TEST(BusBridge, UnregisteredPayloadTypesAreSkippedAndCounted) {
  FederationFixture f;
  struct Unregistered {
    int x = 0;
  };
  f.bus_a.publish("weird", Unregistered{1}, "gcs", 0.0);
  mw::BusBridge::pump(f.bridge_a, f.bridge_b);
  EXPECT_EQ(f.bridge_a.bridge_counters().skipped_unknown_type, 1u);
  EXPECT_EQ(f.bridge_a.bridge_counters().forwarded, 0u);
}

TEST(BusBridge, ReceivingBusFaultPoliciesObserveBridgedTraffic) {
  FederationFixture f;
  // A drop-everything policy on the receiving bus: bridged messages enter
  // through the ordinary publish pipeline, so the policy rules there.
  struct DropAll : mw::DeliveryPolicy {
    mw::FaultDecision decide(const mw::MessageHeader&) override {
      mw::FaultDecision d;
      d.drop = true;
      return d;
    }
  } drop_all;
  auto policy = f.bus_b.add_delivery_policy(&drop_all);
  std::size_t got = 0;
  auto sub = f.bus_b.subscribe<double>(
      "ping", [&](const mw::MessageHeader&, double) { ++got; });
  f.bus_a.publish("ping", 1.0, "gcs", 0.0);
  mw::BusBridge::pump(f.bridge_a, f.bridge_b);
  EXPECT_EQ(got, 0u);  // dropped in flight on bus B
  EXPECT_EQ(f.bus_b.faults_dropped(), 1u);
  // The bridge did its job: the message was decoded and republished.
  EXPECT_EQ(f.bridge_b.bridge_counters().delivered, 1u);
}

TEST(BusBridge, CorruptedWireTrafficIsCountedNotDelivered) {
  FederationFixture f;
  std::size_t got = 0;
  auto sub = f.bus_b.subscribe<double>(
      "ping", [&](const mw::MessageHeader&, double) { ++got; });
  f.bus_a.publish("ping", 1.0, "gcs", 0.0);
  auto wire = f.bridge_a.take_outbound();
  ASSERT_FALSE(wire.empty());
  wire[wire.size() / 2] ^= 0x10;
  f.bridge_b.feed_inbound(wire);
  EXPECT_EQ(got, 0u);
  EXPECT_GE(f.bridge_b.link_counters().resyncs, 1u);
}

TEST(BusBridge, MetricsMirrorCounters) {
  obs::MetricsRegistry registry;
  // Distinct link labels keep the two endpoints' series apart.
  mw::BridgeConfig ca, cb;
  ca.name = "gcs_link";
  cb.name = "uav_link";
  FederationFixture f(std::move(ca), std::move(cb));
  f.bridge_a.set_metrics(&registry);
  f.bridge_b.set_metrics(&registry);
  f.bus_a.publish("ping", 1.0, "gcs", 0.0);
  mw::BusBridge::pump(f.bridge_a, f.bridge_b);
  const auto snap = registry.snapshot();
  const auto* fwd = snap.find("sesame.wire.messages_forwarded_total",
                              {{"link", "gcs_link"}});
  ASSERT_NE(fwd, nullptr);
  EXPECT_DOUBLE_EQ(fwd->value, 1.0);
  const auto* del = snap.find("sesame.wire.messages_delivered_total",
                              {{"link", "uav_link"}});
  ASSERT_NE(del, nullptr);
  EXPECT_DOUBLE_EQ(del->value, 1.0);
  const auto* frames = snap.find("sesame.wire.frames_tx_total",
                                 {{"link", "gcs_link"}});
  ASSERT_NE(frames, nullptr);
  EXPECT_GE(frames->value, 2.0);  // Init + message at least
}

TEST(BusBridge, ReplayedWireBytesAreRejectedAtTheLink) {
  FederationFixture f;
  std::size_t got = 0;
  auto sub = f.bus_b.subscribe<double>(
      "cmd", [&](const mw::MessageHeader&, double) { ++got; });
  f.bus_a.publish("cmd", 9.0, "gcs", 1.0);
  const auto wire = f.bridge_a.take_outbound();
  f.bridge_b.feed_inbound(wire);
  EXPECT_EQ(got, 1u);
  f.bridge_b.feed_inbound(wire);  // attacker replays the captured bytes
  EXPECT_EQ(got, 1u);
  EXPECT_GE(f.bridge_b.link_counters().replays_rejected, 1u);
}

// --- SocketPump --------------------------------------------------------------

/// Both ends of a connected AF_UNIX stream pair.
std::pair<int, int> socket_pair() {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  return {sv[0], sv[1]};
}

/// Appends everything `pump` can read now to `out`.
void read_into(mw::SocketPump& pump, std::string& out) {
  pump.read([&](std::span<const std::uint8_t> bytes) {
    out.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  });
}

TEST(SocketPump, PartialWritesDeliverEveryByteInOrder) {
  const auto [a_fd, b_fd] = socket_pair();
  mw::SocketPump a(a_fd);
  mw::SocketPump b(b_fd);
  // Several socket buffers' worth, queued in pieces between flushes.
  std::string sent;
  for (int i = 0; i < 4096; ++i) sent += "chunk " + std::to_string(i) + ';';
  std::string payload = sent;
  while (payload.size() < (std::size_t{4} << 20)) payload += sent;
  std::string received;
  std::size_t queued = 0;
  bool stalled = false;
  for (int round = 0; round < 100000 && received.size() < payload.size();
       ++round) {
    if (queued < payload.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 << 20, payload.size() - queued);
      a.queue(std::string_view(payload).substr(queued, n));
      queued += n;
    }
    a.flush();
    stalled |= a.owed() > 0;  // the socket took only part of what is owed
    read_into(b, received);
  }
  EXPECT_TRUE(stalled);
  EXPECT_EQ(received, payload);
  EXPECT_EQ(a.owed(), 0u);
  EXPECT_FALSE(a.write_failed());
}

TEST(SocketPump, PeerFinEndsReadingButOwedBytesStillFlush) {
  const auto [a_fd, b_fd] = socket_pair();
  mw::SocketPump a(a_fd);
  mw::SocketPump b(b_fd);
  a.queue(std::string(1 << 20, 'x'));  // more than one socket buffer
  a.flush();
  ASSERT_GT(a.owed(), 0u);
  b.queue(std::string_view("last words"));
  b.flush();
  ::shutdown(b.fd(), SHUT_WR);  // b: FIN, but still reading

  std::string at_a;
  read_into(a, at_a);
  EXPECT_EQ(at_a, "last words");
  EXPECT_TRUE(a.eof());
  EXPECT_FALSE(a.done());  // still owes its bytes

  std::string at_b;
  for (int round = 0; round < 10000 && !a.done(); ++round) {
    a.flush();
    read_into(b, at_b);
  }
  EXPECT_TRUE(a.done());
  EXPECT_EQ(at_b.size(), std::size_t{1} << 20);
  EXPECT_FALSE(a.write_failed());
}

TEST(SocketPump, BrokenPeerDropsOwedBytesAndUnreadBytesStillArrive) {
  const auto [a_fd, b_fd] = socket_pair();
  mw::SocketPump a(a_fd);
  {
    mw::SocketPump b(b_fd);
    b.queue(std::string_view("ack"));
    b.flush();
    a.queue(std::string(1 << 20, 'x'));
    a.flush();
    ASSERT_GT(a.owed(), 0u);
  }  // the peer hangs up with a's bytes unread

  a.flush();  // EPIPE: nobody will read what is owed
  EXPECT_TRUE(a.write_failed());
  EXPECT_EQ(a.owed(), 0u);
  a.queue(std::string_view("discarded"));
  EXPECT_EQ(a.owed(), 0u);

  std::string received;
  read_into(a, received);
  EXPECT_EQ(received, "ack");
  EXPECT_TRUE(a.eof());
  EXPECT_TRUE(a.done());
}

}  // namespace
