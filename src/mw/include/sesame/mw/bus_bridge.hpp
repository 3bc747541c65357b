// Federates two Bus instances across a byte stream (docs/PROTOCOL.md §6).
//
// A BusBridge is one endpoint: it taps its local bus, encodes every
// forwardable publication through `mw::Codec`, ships it through
// `mw::Framing`, and republishes whatever arrives from the peer onto the
// local bus. Two bridges + a byte link = one federated bus: a publish on
// side A delivers on side B with the same topic, source, payload and
// publish time (sequence numbers are bus-local and reassigned).
//
// The bridge is byte-oriented and transport-agnostic, like Framing: the
// owner moves `take_outbound()` to a socket/pipe and `feed_inbound()`s
// whatever arrives (examples/bus_bridge_demo.cpp runs it over a
// socketpair between two processes; tests pump in memory).
//
// Delivery-policy integration: a remote message enters the local bus
// through the ordinary `Bus::publish` pipeline — taps (the IDS sees
// federated traffic), ACL, type validation, fault-injection policies,
// metrics. A fault plan on the receiving bus drops/delays
// bridged messages exactly like local ones. Outbound capture is
// tap-level, i.e. *pre*-policy on the sending side: the bridge behaves
// like a network interface, not a subscriber — what the local bus's fault
// plan drops for local subscribers still reaches the wire, and the
// receiving side's policies rule there. (It also means ACL-rejected
// publications cross the bridge and are re-judged by the remote ACL —
// the wire is part of the attack surface, which is the point.)
//
// Loop prevention is split-horizon by source: every source name that
// arrives from the peer is remembered, and local publications from a
// remembered source are never forwarded back. This handles nested
// re-publications correctly (an IDS alert raised *in response to* a
// bridged message has a local source and is forwarded) but requires
// source names to be unique across the federation — don't run a "gcs"
// publisher on both sides of one link.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "sesame/mw/bus.hpp"
#include "sesame/mw/codec.hpp"
#include "sesame/mw/framing.hpp"
#include "sesame/obs/metrics.hpp"

namespace sesame::mw {

struct BridgeConfig {
  /// Label for this endpoint's metric series ({"link": name}).
  std::string name = "bridge";
  /// Forward only topics starting with one of these prefixes; empty
  /// forwards everything.
  std::vector<std::string> forward_prefixes;
  FramingConfig framing;
};

/// Bridge-level counters (transport-level ones live in LinkCounters).
struct BridgeCounters {
  std::uint64_t forwarded = 0;          ///< local publications shipped
  std::uint64_t delivered = 0;          ///< remote messages republished
  std::uint64_t skipped_remote_origin = 0;  ///< split-horizon suppressions
  std::uint64_t skipped_filtered = 0;   ///< outside forward_prefixes
  std::uint64_t skipped_unknown_type = 0;  ///< no codec schema (either side)
  std::uint64_t decode_errors = 0;      ///< structurally bad message bytes
  std::uint64_t malformed_payloads = 0; ///< payload rejected by its schema
  std::uint64_t version_rejects = 0;    ///< message schema version mismatch
};

class BusBridge {
 public:
  /// `bus` and `codec` are borrowed and must outlive the bridge. Register
  /// every federated payload type on `codec` before traffic flows —
  /// unregistered types are skipped and counted, never partially sent.
  BusBridge(Bus& bus, const Codec& codec, BridgeConfig config = {});

  /// Begins the link handshake (queues the Init frame). Idempotent.
  void start() { framing_.start(); }
  bool established() const noexcept { return framing_.established(); }

  /// Wire bytes waiting to be written to the transport.
  std::vector<std::uint8_t> take_outbound();
  bool has_outbound() const noexcept { return framing_.has_outbound(); }

  /// Consumes bytes read from the transport, republishing every decoded
  /// message on the local bus. Never throws on wire input.
  void feed_inbound(std::span<const std::uint8_t> bytes);

  const BridgeCounters& bridge_counters() const noexcept { return counters_; }
  const LinkCounters& link_counters() const noexcept {
    return framing_.counters();
  }
  std::uint16_t negotiated_version() const noexcept {
    return framing_.negotiated_version();
  }

  /// Attaches (nullptr: detaches) a metrics registry. The bridge mirrors
  /// its counters into `sesame.wire.*` series labelled {link: config.name}
  /// — frames/bytes tx+rx, messages forwarded/delivered, decode/crc
  /// errors, replays, resyncs (catalogue in docs/OBSERVABILITY.md).
  void set_metrics(obs::MetricsRegistry* registry);

  /// In-memory federation pump for tests and single-process setups:
  /// exchanges outbound bytes between the two endpoints until both are
  /// quiet (bounded — throws std::logic_error if the link chatters
  /// forever, which would be a protocol bug).
  static void pump(BusBridge& a, BusBridge& b);

 private:
  void on_local_publish(const MessageHeader& h, const std::any& payload,
                        std::type_index type);
  bool topic_forwardable(std::string_view topic) const;
  void sync_metrics();

  Bus& bus_;
  const Codec& codec_;
  BridgeConfig config_;
  Framing framing_;
  BridgeCounters counters_;
  /// SourceId indexes (on the local bus) first seen on inbound messages.
  std::unordered_set<std::uint32_t> remote_sources_;
  std::vector<std::uint8_t> encode_buf_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::vector<std::pair<obs::Counter*, const std::uint64_t*>> mirrors_;
  Subscription tap_;  ///< last member: released before the rest tears down
};

}  // namespace sesame::mw
