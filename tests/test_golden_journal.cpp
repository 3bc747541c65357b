// Golden-journal regression test for the bus hot path.
//
// Runs a fixed, fully seeded "faulty mission" at the bus level — telemetry
// traffic through a FaultInjector (drop / delay / duplicate / reorder), an
// ACL-restricted command topic probed by an attacker, and subscriber churn
// mid-run — and digests everything observable about it: every publication
// attempt (the journal), the exact delivery order each subscriber saw, the
// fault counters, and the deterministic slice of the metrics snapshot.
//
// The expected constants below were recorded on the string-keyed bus
// before the topic-interning optimisation, when the bus still kept a
// journal ring of its own. They pin the externally observable semantics
// of the publish → taps → ACL → fault-policy → delivery pipeline: any
// change to delivery order, fault realization, ACL accounting, or the
// attempts a tap observes shows up as a digest mismatch here. The journal
// is now recorded by a tap registered first on the fresh bus, and it
// reproduces the ring's digest bit for bit: the tap sees exactly the
// attempts, in the order, that the ring stored.
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "sesame/mw/bus.hpp"
#include "sesame/mw/fault_plan.hpp"
#include "sesame/obs/metrics.hpp"
#include "support/tap_recorder.hpp"

namespace mw = sesame::mw;
namespace obs = sesame::obs;

namespace {

/// FNV-1a 64-bit, fed field-by-field with length-prefixed strings so the
/// digest is unambiguous (no separator collisions).
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

/// Everything observable about the golden run.
struct GoldenRun {
  std::uint64_t journal_digest = 0;
  std::uint64_t delivery_digest = 0;
  std::uint64_t metrics_digest = 0;
  std::size_t journal_size = 0;
  std::size_t deliveries = 0;
  std::uint64_t published = 0;
  std::uint64_t rejected = 0;
  std::uint64_t dropped = 0;
  std::uint64_t delayed = 0;
  std::uint64_t duplicated = 0;
};

GoldenRun run_golden_mission() {
  mw::Bus bus;
  const sesame::test::TapRecorder recorder(bus);
  obs::MetricsRegistry metrics;
  bus.set_metrics(&metrics);

  // The CI stress plan: seed 1337, drop 0.10 / delay 0.20 (2 drains,
  // reordering) / duplicate 0.10 on every */telemetry topic.
  mw::FaultInjector injector(mw::FaultPlan::telemetry_stress());
  auto policy = bus.add_delivery_policy(&injector);

  // SROS2-style mitigation on the command topic; the attacker's
  // publications below must be rejected (and counted) before delivery.
  bus.restrict_publisher("gcs/commands", "gcs");

  Digest delivery;
  std::size_t delivered = 0;
  const auto telemetry_recorder = [&](const char* who) {
    return [&delivery, &delivered, who](const mw::MessageHeader& h,
                                        const double& v) {
      delivery.str(who);
      delivery.str(h.topic);
      delivery.str(h.source);
      delivery.u64(h.seq);
      delivery.f64(h.time_s);
      delivery.f64(v);
      ++delivered;
    };
  };
  auto sub_a = bus.subscribe<double>("uav/uav1/telemetry",
                                     telemetry_recorder("A"));
  auto sub_b = bus.subscribe<double>("uav/uav1/telemetry",
                                     telemetry_recorder("B"));
  auto sub_c = bus.subscribe<double>("uav/uav2/telemetry",
                                     telemetry_recorder("C"));
  auto sub_g = bus.subscribe<int>(
      "gcs/commands",
      [&delivery, &delivered](const mw::MessageHeader& h, const int& v) {
        delivery.str("G");
        delivery.str(h.topic);
        delivery.str(h.source);
        delivery.u64(h.seq);
        delivery.f64(h.time_s);
        delivery.u64(static_cast<std::uint64_t>(v));
        ++delivered;
      });
  mw::Subscription sub_d;  // joins late, at step 40

  for (int step = 0; step < 60; ++step) {
    const double t = 0.5 * step;
    bus.drain_delayed();
    bus.publish("uav/uav1/telemetry", 100.0 + step, "uav1", t);
    bus.publish("uav/uav2/telemetry", 200.0 + step, "uav2", t);
    if (step % 10 == 3) bus.publish("gcs/commands", step, "gcs", t);
    if (step % 10 == 7) bus.publish("gcs/commands", step, "attacker", t);
    if (step == 30) {
      // Unsubscribe the middle uav1 subscriber: A must keep receiving
      // before any later-registered subscriber (delivery order follows
      // subscription order, preserved across unsubscribes).
      sub_b.reset();
    }
    if (step == 40) {
      sub_d = bus.subscribe<double>("uav/uav1/telemetry",
                                    telemetry_recorder("D"));
    }
  }
  // Flush in-flight delayed messages (longest hold in the plan: 2 drains).
  for (int i = 0; i < 4; ++i) bus.drain_delayed();

  GoldenRun run;
  Digest journal;
  for (const auto& row : recorder.rows()) {
    journal.u64(row.seq);
    journal.f64(row.time_s);
    journal.str(row.source);
    journal.str(row.topic);
    journal.str(row.type_name);
  }
  Digest metric_digest;
  const obs::MetricsSnapshot snap = metrics.snapshot();
  for (const auto& s : snap.samples) {
    // Wall-clock series (latency histograms) are not deterministic; every
    // other bus metric is a pure function of the seeded run.
    if (s.name.find("_seconds") != std::string::npos) continue;
    metric_digest.str(s.name);
    for (const auto& [k, v] : s.labels) {
      metric_digest.str(k);
      metric_digest.str(v);
    }
    metric_digest.u64(static_cast<std::uint64_t>(s.kind));
    metric_digest.f64(s.value);
    metric_digest.u64(s.observations);
  }

  run.journal_digest = journal.h;
  run.delivery_digest = delivery.h;
  run.metrics_digest = metric_digest.h;
  run.journal_size = recorder.rows().size();
  run.deliveries = delivered;
  run.published = bus.messages_published();
  run.rejected = bus.rejected_publications();
  run.dropped = bus.faults_dropped();
  run.delayed = bus.faults_delayed();
  run.duplicated = bus.faults_duplicated();
  return run;
}

}  // namespace

TEST(GoldenJournal, SeededFaultyMissionReproducesRecordedSemantics) {
  const GoldenRun run = run_golden_mission();

  // Recorded on the pre-interning bus (see file header). Sixty steps,
  // two telemetry streams, six gcs commands accepted, six attacker
  // publications rejected by the ACL.
  EXPECT_EQ(run.journal_size, 132u);
  EXPECT_EQ(run.published, 126u);
  EXPECT_EQ(run.rejected, 6u);
  EXPECT_EQ(run.dropped, 13u);
  EXPECT_EQ(run.delayed, 17u);
  EXPECT_EQ(run.duplicated, 17u);
  EXPECT_EQ(run.deliveries, 183u);
  EXPECT_EQ(run.journal_digest, 516674654540931889ULL);
  EXPECT_EQ(run.delivery_digest, 12660038593612396153ULL);
  EXPECT_EQ(run.metrics_digest, 1728166694832778573ULL);
}

TEST(GoldenJournal, DigestIsStableAcrossRepeatedRuns) {
  const GoldenRun a = run_golden_mission();
  const GoldenRun b = run_golden_mission();
  EXPECT_EQ(a.journal_digest, b.journal_digest);
  EXPECT_EQ(a.delivery_digest, b.delivery_digest);
  EXPECT_EQ(a.metrics_digest, b.metrics_digest);
}
