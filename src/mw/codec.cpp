#include "sesame/mw/codec.hpp"

namespace sesame::mw {

Codec::Codec() {
  // Primitive payloads every federation speaks (docs/PROTOCOL.md §5).
  register_type<double>(
      kF64Tag, "f64", [](WireWriter& w, const double& v) { w.f64(v); },
      [](WireReader& r) { return r.f64(); });
  register_type<std::string>(
      kStringTag, "string",
      [](WireWriter& w, const std::string& v) { w.str32(v); },
      [](WireReader& r) { return std::string(r.str32()); });
  register_type<bool>(
      kBoolTag, "bool", [](WireWriter& w, const bool& v) { w.boolean(v); },
      [](WireReader& r) { return r.boolean(); });
  register_type<std::int64_t>(
      kI64Tag, "i64", [](WireWriter& w, const std::int64_t& v) { w.i64(v); },
      [](WireReader& r) { return r.i64(); });
}

void Codec::check_unregistered(std::uint32_t tag, std::type_index type) const {
  if (by_tag_.count(tag) != 0) {
    throw std::invalid_argument("mw::Codec: wire tag already registered: " +
                                std::to_string(tag));
  }
  if (by_type_.count(type) != 0) {
    throw std::invalid_argument(
        "mw::Codec: payload type already registered: " +
        std::string(type.name()));
  }
}

void Codec::add_entry(Entry e) {
  by_type_.emplace(e.type, e.tag);
  by_tag_.emplace(e.tag, std::move(e));
}

const Codec::Entry* Codec::find_tag(std::uint32_t tag) const {
  const auto it = by_tag_.find(tag);
  return it == by_tag_.end() ? nullptr : &it->second;
}

bool Codec::encode_any(const OutboundMessage& m, const std::any& payload_ref,
                       std::type_index type,
                       std::vector<std::uint8_t>& out) const {
  const auto it = by_type_.find(type);
  if (it == by_type_.end()) return false;
  const Entry& e = by_tag_.at(it->second);
  WireWriter w;
  w.u16(kVersion);
  w.u32(e.tag);
  w.u64(m.seq);
  w.f64(m.time_s);
  w.str16(m.topic);
  w.str16(m.source);
  const std::size_t len_at = w.size();
  w.u32(0);  // payload length, patched below
  const std::size_t payload_at = w.size();
  e.encode(w, payload_ref);
  w.patch_u32(len_at, static_cast<std::uint32_t>(w.size() - payload_at));
  out = w.take();
  return true;
}

std::optional<DecodedMessage> Codec::decode(
    std::span<const std::uint8_t> bytes) noexcept {
  WireReader r(bytes);
  DecodedMessage m;
  m.version = r.u16();
  m.payload_tag = r.u32();
  m.seq = r.u64();
  m.time_s = r.f64();
  m.topic = r.str16();
  m.source = r.str16();
  m.payload = r.str32();
  // Strict framing: a message is exactly its header + payload. Trailing
  // bytes mean a length-field lie somewhere upstream.
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return m;
}

DeliverResult Codec::deliver(Bus& bus, const DecodedMessage& m) const {
  if (m.version != kVersion) return DeliverResult::kUnsupportedVersion;
  const Entry* e = find_tag(m.payload_tag);
  if (e == nullptr) return DeliverResult::kUnknownTag;
  if (!e->deliver(bus, m)) return DeliverResult::kMalformedPayload;
  return DeliverResult::kDelivered;
}

}  // namespace sesame::mw
