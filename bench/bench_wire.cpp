// Microbenchmarks for the wire transport: codec encode/decode, the framed
// COBS+CRC path, and full bus-to-bus federation, against the in-process
// publish path as the reference. The interesting numbers are msgs/s
// through a bridge pair and bytes/msg on the wire (items_per_second and
// the bytes_per_msg counter in the JSON output) — the cost of taking the
// paper's broker topology out of process.
//
//   bench_wire --json wire.json          # machine-readable results
//
// CI gates BM_BridgeFederation against the committed BENCH_wire.json
// baseline (>20% regression fails), like the bus-publish benches.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "sesame/mw/bus.hpp"
#include "sesame/mw/bus_bridge.hpp"
#include "sesame/mw/codec.hpp"
#include "sesame/mw/framing.hpp"
#include "sesame/sim/wire_types.hpp"
#include "sesame/sim/world.hpp"

namespace {

using namespace sesame;

sim::Telemetry bench_telemetry() {
  sim::Telemetry t;
  t.uav = "uav1";
  t.reported_position = {35.1875, 33.375, 30.0};
  t.altitude_m = 30.0;
  t.battery_soc = 0.9;
  t.battery_temp_c = 28.5;
  t.mode = sim::FlightMode::kMission;
  t.time_s = 17.5;
  return t;
}

mw::OutboundMessage bench_header() {
  mw::OutboundMessage m;
  m.topic = "uav/uav1/telemetry";
  m.source = "uav1";
  m.seq = 1;
  m.time_s = 17.5;
  return m;
}

/// Message encode alone: struct -> wire bytes.
void BM_CodecEncodeTelemetry(benchmark::State& state) {
  mw::Codec codec;
  sim::register_wire_types(codec);
  const sim::Telemetry t = bench_telemetry();
  const mw::OutboundMessage m = bench_header();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto wire = codec.encode(m, t);
    bytes = wire.size();
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["bytes_per_msg"] = static_cast<double>(bytes);
}
BENCHMARK(BM_CodecEncodeTelemetry);

/// Structural decode + typed payload decode + publish onto a live bus —
/// the receive half of a bridge, without the framing layer.
void BM_CodecDecodeDeliver(benchmark::State& state) {
  mw::Codec codec;
  sim::register_wire_types(codec);
  const auto wire = codec.encode(bench_header(), bench_telemetry());
  mw::Bus bus;
  std::uint64_t sink = 0;
  auto sub = bus.subscribe<sim::Telemetry>(
      "uav/uav1/telemetry",
      [&sink](const mw::MessageHeader& h, const sim::Telemetry&) {
        sink += h.seq;
      });
  for (auto _ : state) {
    const auto m = mw::Codec::decode(wire);
    codec.deliver(bus, *m);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodecDecodeDeliver);

/// Frame + COBS + CRC down and back up again, no bus: the transport tax.
void BM_FramingRoundTrip(benchmark::State& state) {
  mw::Codec codec;
  sim::register_wire_types(codec);
  const auto message = codec.encode(bench_header(), bench_telemetry());
  mw::Framing a, b;
  a.start();
  b.start();
  const mw::Framing::MessageSink drop_credit =
      [](std::span<const std::uint8_t>, std::uint64_t) {};
  b.feed(a.take_outbound(), drop_credit);
  a.feed(b.take_outbound(), drop_credit);
  b.feed(a.take_outbound(), drop_credit);
  std::uint64_t delivered = 0;
  const mw::Framing::MessageSink sink =
      [&delivered, &b](std::span<const std::uint8_t> payload, std::uint64_t) {
        delivered += payload.size();
        b.release(1);
      };
  std::size_t wire_bytes = 0;
  for (auto _ : state) {
    a.send_message(message);
    const auto wire = a.take_outbound();
    wire_bytes = wire.size();
    b.feed(wire, sink);
    // Return the credit so the window never closes.
    a.feed(b.take_outbound(), drop_credit);
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations());
  state.counters["bytes_per_msg"] = static_cast<double>(wire_bytes);
}
BENCHMARK(BM_FramingRoundTrip);

/// The whole stack: publish on bus A, tap -> encode -> frame -> bytes ->
/// deframe -> decode -> republish on bus B, credits flowing back. This is
/// the number to compare with BM_InProcessPublish.
void BM_BridgeFederation(benchmark::State& state) {
  mw::Codec codec;
  sim::register_wire_types(codec);
  mw::Bus bus_a, bus_b;
  mw::BusBridge bridge_a(bus_a, codec), bridge_b(bus_b, codec);
  bridge_a.start();
  bridge_b.start();
  mw::BusBridge::pump(bridge_a, bridge_b);
  std::uint64_t sink = 0;
  auto sub = bus_b.subscribe<sim::Telemetry>(
      "uav/uav1/telemetry",
      [&sink](const mw::MessageHeader& h, const sim::Telemetry&) {
        sink += h.seq;
      });
  const sim::Telemetry t = bench_telemetry();
  double time_s = 0.0;
  for (auto _ : state) {
    bus_a.publish("uav/uav1/telemetry", t, "uav1", time_s);
    time_s += 0.5;
    mw::BusBridge::pump(bridge_a, bridge_b);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
  const auto& wire = bridge_a.link_counters();
  if (wire.messages_tx > 0) {
    state.counters["bytes_per_msg"] =
        static_cast<double>(wire.bytes_tx) /
        static_cast<double>(wire.messages_tx);
  }
}
BENCHMARK(BM_BridgeFederation);

/// Reference: the same telemetry publish staying in-process (one bus, one
/// subscriber). The federation slowdown factor is this / federation.
void BM_InProcessPublish(benchmark::State& state) {
  mw::Bus bus;
  std::uint64_t sink = 0;
  auto sub = bus.subscribe<sim::Telemetry>(
      "uav/uav1/telemetry",
      [&sink](const mw::MessageHeader& h, const sim::Telemetry&) {
        sink += h.seq;
      });
  const sim::Telemetry t = bench_telemetry();
  double time_s = 0.0;
  for (auto _ : state) {
    bus.publish("uav/uav1/telemetry", t, "uav1", time_s);
    time_s += 0.5;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InProcessPublish);

}  // namespace

int main(int argc, char** argv) {
  return sesame::bench::run_main(argc, argv);
}
