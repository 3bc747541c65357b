#include "sesame/mw/bus_bridge.hpp"

#include <stdexcept>

namespace sesame::mw {

BusBridge::BusBridge(Bus& bus, const Codec& codec, BridgeConfig config)
    : bus_(bus),
      codec_(codec),
      config_(std::move(config)),
      framing_(config_.framing) {
  tap_ = bus_.add_tap([this](const MessageHeader& h, const std::any& payload,
                             std::type_index type) {
    on_local_publish(h, payload, type);
  });
}

bool BusBridge::topic_forwardable(std::string_view topic) const {
  if (config_.forward_prefixes.empty()) return true;
  for (const std::string& p : config_.forward_prefixes) {
    if (topic.substr(0, p.size()) == p) return true;
  }
  return false;
}

void BusBridge::on_local_publish(const MessageHeader& h,
                                 const std::any& payload,
                                 std::type_index type) {
  // Split horizon: never forward what the peer originated (this also
  // covers the bridge's own in-flight republication, whose source is
  // remembered before publish runs).
  if (remote_sources_.count(h.source_id.index()) != 0) {
    ++counters_.skipped_remote_origin;
    return;
  }
  if (!topic_forwardable(h.topic)) {
    ++counters_.skipped_filtered;
    return;
  }
  OutboundMessage m;
  m.topic = h.topic;
  m.source = h.source;
  m.seq = h.seq;
  m.time_s = h.time_s;
  encode_buf_.clear();
  if (!codec_.encode_any(m, payload, type, encode_buf_)) {
    ++counters_.skipped_unknown_type;
    return;
  }
  framing_.send_message(encode_buf_);
  ++counters_.forwarded;
}

std::vector<std::uint8_t> BusBridge::take_outbound() {
  std::vector<std::uint8_t> out = framing_.take_outbound();
  sync_metrics();
  return out;
}

void BusBridge::feed_inbound(std::span<const std::uint8_t> bytes) {
  framing_.feed(bytes, [this](std::span<const std::uint8_t> payload,
                              std::uint64_t /*link_seq*/) {
    // Credited back once handled, after any reaction it caused was sent.
    const std::optional<DecodedMessage> m = Codec::decode(payload);
    if (!m.has_value()) {
      ++counters_.decode_errors;
      framing_.release(1);
      return;
    }
    // Remember the origin before publishing so the tap sees it as remote
    // while the republication fans out.
    remote_sources_.insert(bus_.intern_source(m->source).index());
    switch (codec_.deliver(bus_, *m)) {
      case DeliverResult::kDelivered:
        ++counters_.delivered;
        break;
      case DeliverResult::kUnsupportedVersion:
        ++counters_.version_rejects;
        break;
      case DeliverResult::kUnknownTag:
        ++counters_.skipped_unknown_type;
        break;
      case DeliverResult::kMalformedPayload:
        ++counters_.malformed_payloads;
        break;
    }
    framing_.release(1);
  });
  sync_metrics();
}

void BusBridge::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  mirrors_.clear();
  if (registry == nullptr) return;
  const obs::Labels labels{{"link", config_.name}};
  const LinkCounters& lc = framing_.counters();
  const auto mirror = [&](const char* name, const std::uint64_t& src) {
    mirrors_.emplace_back(&registry->counter(name, labels), &src);
  };
  mirror("sesame.wire.frames_tx_total", lc.frames_tx);
  mirror("sesame.wire.frames_rx_total", lc.frames_rx);
  mirror("sesame.wire.bytes_tx_total", lc.bytes_tx);
  mirror("sesame.wire.bytes_rx_total", lc.bytes_rx);
  mirror("sesame.wire.crc_errors_total", lc.crc_errors);
  mirror("sesame.wire.cobs_errors_total", lc.cobs_errors);
  mirror("sesame.wire.auth_failures_total", lc.auth_failures);
  mirror("sesame.wire.replays_rejected_total", lc.replays_rejected);
  mirror("sesame.wire.resyncs_total", lc.resyncs);
  mirror("sesame.wire.window_stalls_total", lc.window_stalls);
  mirror("sesame.wire.window_violations_total", lc.window_violations);
  mirror("sesame.wire.messages_forwarded_total", counters_.forwarded);
  mirror("sesame.wire.messages_delivered_total", counters_.delivered);
  mirror("sesame.wire.decode_errors_total", counters_.decode_errors);
  mirror("sesame.wire.malformed_payloads_total", counters_.malformed_payloads);
  mirror("sesame.wire.version_rejects_total", counters_.version_rejects);
  mirror("sesame.wire.unknown_type_total", counters_.skipped_unknown_type);
  sync_metrics();
}

void BusBridge::sync_metrics() {
  if (metrics_ == nullptr) return;
  for (auto& [counter, source] : mirrors_) {
    counter->raise_to(static_cast<double>(*source));
  }
}

void BusBridge::pump(BusBridge& a, BusBridge& b) {
  // A message exchange settles in a handful of rounds (message → release
  // credit → quiet); hundreds means the endpoints are ping-ponging
  // control frames, which is a protocol bug worth failing loudly on.
  for (int round = 0; round < 256; ++round) {
    const bool quiet_a = !a.has_outbound();
    const bool quiet_b = !b.has_outbound();
    if (quiet_a && quiet_b) return;
    if (!quiet_a) b.feed_inbound(a.take_outbound());
    if (!quiet_b) a.feed_inbound(b.take_outbound());
  }
  throw std::logic_error("mw::BusBridge::pump: link did not quiesce");
}

}  // namespace sesame::mw
