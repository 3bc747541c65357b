// Microbenchmarks for the bus publish→deliver hot path.
//
// Every simulated second funnels through Bus::publish (telemetry, position
// fixes, alerts), so per-publish overhead bounds how much faster than real
// time the whole stack can run. These benches isolate the pipeline stages:
// bare fan-out, fan-out width, tap + fault-policy bookkeeping, metrics
// and subscription churn. `BM_BusPublishSteadyState` is the number the CI
// bench-smoke job gates on (>20% regression vs the committed
// BENCH_bus_publish.json baseline fails the build).
//
//   bench_bus_publish --json bus.json     # machine-readable results
//
// See docs/PERFORMANCE.md for the measurement methodology.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "sesame/mw/bus.hpp"
#include "sesame/mw/fault_plan.hpp"
#include "sesame/obs/metrics.hpp"

namespace {

using namespace sesame;

/// Telemetry-sized payload: what the real hot path carries.
struct Telemetry {
  double lat = 35.18;
  double lon = 33.38;
  double alt = 20.0;
  double soc = 0.9;
};

/// Steady state of a mission run: a warm topic, a few subscribers, no
/// instrumentation — the configuration the ≥2× campaign-throughput
/// target lives or dies on.
void BM_BusPublishSteadyState(benchmark::State& state) {
  mw::Bus bus;
  std::uint64_t sink = 0;
  std::vector<mw::Subscription> subs;
  for (int i = 0; i < 3; ++i) {
    subs.push_back(bus.subscribe<Telemetry>(
        "uav/uav1/telemetry",
        [&sink](const mw::MessageHeader& h, const Telemetry&) {
          sink += h.seq;
        }));
  }
  const Telemetry t;
  double time_s = 0.0;
  for (auto _ : state) {
    bus.publish("uav/uav1/telemetry", t, "uav1", time_s);
    time_s += 0.5;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BusPublishSteadyState);

/// Steady state through the interned fast path: ids resolved once up
/// front, publish(TopicId, ..., SourceId, ...) thereafter — what
/// sim::World and MissionRunner actually call per tick. The delta against
/// BM_BusPublishSteadyState is the price of the string-keyed shim.
void BM_BusPublishInterned(benchmark::State& state) {
  mw::Bus bus;
  std::uint64_t sink = 0;
  std::vector<mw::Subscription> subs;
  for (int i = 0; i < 3; ++i) {
    subs.push_back(bus.subscribe<Telemetry>(
        "uav/uav1/telemetry",
        [&sink](const mw::MessageHeader& h, const Telemetry&) {
          sink += h.seq;
        }));
  }
  const mw::TopicId topic = bus.intern_topic("uav/uav1/telemetry");
  const mw::SourceId source = bus.intern_source("uav1");
  const Telemetry t;
  double time_s = 0.0;
  for (auto _ : state) {
    bus.publish(topic, t, source, time_s);
    time_s += 0.5;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BusPublishInterned);

/// Fan-out width: per-publish cost with N subscribers on the topic.
void BM_BusPublishFanout(benchmark::State& state) {
  mw::Bus bus;
  std::uint64_t sink = 0;
  std::vector<mw::Subscription> subs;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    subs.push_back(bus.subscribe<Telemetry>(
        "uav/uav1/telemetry",
        [&sink](const mw::MessageHeader& h, const Telemetry&) {
          sink += h.seq;
        }));
  }
  const Telemetry t;
  for (auto _ : state) {
    bus.publish("uav/uav1/telemetry", t, "uav1", 1.0);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BusPublishFanout)->Arg(1)->Arg(4)->Arg(16);

/// Tap + fault-policy bookkeeping: an IDS-style tap observes every
/// attempt and a FaultInjector (whose rule never matches this topic) is
/// consulted for every accepted publication.
void BM_BusPublishWithTapAndPolicy(benchmark::State& state) {
  mw::Bus bus;
  std::uint64_t sink = 0;
  auto sub = bus.subscribe<Telemetry>(
      "uav/uav1/telemetry",
      [&sink](const mw::MessageHeader& h, const Telemetry&) { sink += h.seq; });
  std::uint64_t taps_seen = 0;
  auto tap = bus.add_tap(
      [&taps_seen](const mw::MessageHeader&, const std::any&,
                   std::type_index) { ++taps_seen; });
  mw::FaultPlan plan;
  plan.seed = 7;
  mw::FaultRule rule;
  rule.topic_prefix = "gcs/";  // never matches the benched topic
  rule.drop_probability = 0.5;
  plan.rules.push_back(rule);
  mw::FaultInjector injector(plan);
  auto policy = bus.add_delivery_policy(&injector);
  const Telemetry t;
  for (auto _ : state) {
    bus.publish("uav/uav1/telemetry", t, "uav1", 1.0);
  }
  benchmark::DoNotOptimize(sink);
  benchmark::DoNotOptimize(taps_seen);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BusPublishWithTapAndPolicy);

/// Instrumented publish: metrics registry attached (per-topic counters and
/// the sampled delivery-latency histogram on the fan-out). The argument is
/// the number of topics published round-robin: one hot topic keeps its
/// instruments in cache, 2,048 (a `fleet_1024` run has about 2,200) make
/// every publish touch cold ones.
void BM_BusPublishWithMetrics(benchmark::State& state) {
  mw::Bus bus;
  obs::MetricsRegistry metrics;
  bus.set_metrics(&metrics);
  std::uint64_t sink = 0;
  std::vector<mw::TopicId> topics;
  std::vector<mw::Subscription> subs;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    topics.push_back(
        bus.intern_topic("uav/uav" + std::to_string(i + 1) + "/telemetry"));
    subs.push_back(bus.subscribe<Telemetry>(
        topics.back(),
        [&sink](const mw::MessageHeader& h, const Telemetry&) {
          sink += h.seq;
        }));
  }
  const mw::SourceId source = bus.intern_source("uav1");
  const Telemetry t;
  std::size_t next = 0;
  for (auto _ : state) {
    bus.publish(topics[next], t, source, 1.0);
    if (++next == topics.size()) next = 0;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BusPublishWithMetrics)->Arg(1)->Arg(2048);

/// Publish into the void: no subscribers — the floor of the pipeline
/// (header build + topic resolution + counters).
void BM_BusPublishNoSubscribers(benchmark::State& state) {
  mw::Bus bus;
  const Telemetry t;
  for (auto _ : state) {
    bus.publish("uav/uav1/telemetry", t, "uav1", 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BusPublishNoSubscribers);

/// Subscription churn on a busy topic: subscribe + unsubscribe with 16
/// standing subscribers (handlers re-subscribing mid-mission, scenario
/// teardown).
void BM_BusSubscribeUnsubscribe(benchmark::State& state) {
  mw::Bus bus;
  std::vector<mw::Subscription> standing;
  for (int i = 0; i < 16; ++i) {
    standing.push_back(bus.subscribe<Telemetry>(
        "uav/uav1/telemetry",
        [](const mw::MessageHeader&, const Telemetry&) {}));
  }
  for (auto _ : state) {
    auto s = bus.subscribe<Telemetry>(
        "uav/uav1/telemetry",
        [](const mw::MessageHeader&, const Telemetry&) {});
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BusSubscribeUnsubscribe);

}  // namespace

int main(int argc, char** argv) {
  return sesame::bench::run_main(argc, argv);
}
