// Tests for the observability layer: metric registry semantics, histogram
// bucketing and quantile estimation, Prometheus rendering, span nesting,
// and both trace sinks.
#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sesame/obs/metrics.hpp"
#include "sesame/obs/observability.hpp"
#include "sesame/obs/sinks.hpp"
#include "sesame/obs/trace.hpp"

namespace obs = sesame::obs;

TEST(Counter, IncrementsAndReads) {
  obs::Counter c;
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  c.inc();
  c.inc(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
}

TEST(Counter, RaiseToIsMonotone) {
  obs::Counter c;
  c.raise_to(5.0);
  EXPECT_DOUBLE_EQ(c.value(), 5.0);
  c.raise_to(3.0);  // never goes backwards
  EXPECT_DOUBLE_EQ(c.value(), 5.0);
  c.raise_to(8.0);
  EXPECT_DOUBLE_EQ(c.value(), 8.0);
  c.inc();  // mixing with inc keeps the running value
  EXPECT_DOUBLE_EQ(c.value(), 9.0);
}

TEST(Gauge, SetAndAdd) {
  obs::Gauge g;
  g.set(10.0);
  g.add(-3.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST(Registry, SameNameAndLabelsReturnsSameInstance) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("sesame.test.total", {{"topic", "t1"}});
  obs::Counter& b = reg.counter("sesame.test.total", {{"topic", "t1"}});
  EXPECT_EQ(&a, &b);
  obs::Counter& c = reg.counter("sesame.test.total", {{"topic", "t2"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.series_count(), 2u);
}

TEST(Registry, LabelOrderDoesNotMatter) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("m", {{"a", "1"}, {"b", "2"}});
  obs::Counter& b = reg.counter("m", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(Registry, KindConflictThrows) {
  obs::MetricsRegistry reg;
  reg.counter("sesame.test.metric");
  EXPECT_THROW(reg.gauge("sesame.test.metric"), std::logic_error);
  EXPECT_THROW(reg.histogram("sesame.test.metric"), std::logic_error);
}

TEST(Registry, SnapshotFindsSeries) {
  obs::MetricsRegistry reg;
  reg.counter("sesame.mw.publish_total", {{"topic", "a"}}).inc(4.0);
  reg.gauge("sesame.sim.time_s").set(12.0);
  const auto snap = reg.snapshot();
  const auto* c = snap.find("sesame.mw.publish_total", {{"topic", "a"}});
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->value, 4.0);
  EXPECT_EQ(c->kind, obs::MetricKind::kCounter);
  const auto* g = snap.find("sesame.sim.time_s");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->value, 12.0);
  EXPECT_EQ(snap.find("nope"), nullptr);
}

// Snapshot order is (family name, then serialized label key), whatever the
// registration order, and every sample carries the labels it was
// registered with. Label keys compare by their bytes, so "uav1" sorts
// before the two-label set that extends it, then "uav1/x", "uav10", "uav2".
TEST(MetricsRegistry, SnapshotOrderAndLabelsAreStable) {
  const obs::Labels two{{"vehicle", "a"}, {"topic", "uav1"}};
  obs::MetricsRegistry first;
  first.counter("sesame.b.total", {{"topic", "uav2"}}).inc();
  first.counter("sesame.b.total", {{"topic", "uav1/x"}}).inc();
  first.gauge("sesame.a.value", {{"topic", "uav10"}}).set(1.0);
  first.counter("sesame.b.total", two).inc();
  first.histogram("sesame.c.seconds", {{"topic", "uav2"}}).observe(1e-6);
  obs::MetricsRegistry second;
  second.histogram("sesame.c.seconds", {{"topic", "uav1/x"}}).observe(1e-6);
  second.counter("sesame.b.total", {{"topic", "uav10"}}).inc();
  second.gauge("sesame.a.value", {{"topic", "uav1"}}).set(2.0);
  second.counter("sesame.b.total", {{"topic", "uav1"}}).inc();
  second.gauge("sesame.a.value", two).set(3.0);
  second.counter("sesame.b.total", {{"topic", "uav1/x"}}).inc();

  obs::MetricsRegistry merged;
  merged.merge(second.snapshot(), 2);
  merged.merge(first.snapshot(), 1);
  const obs::Labels two_sorted{{"topic", "uav1"}, {"vehicle", "a"}};
  const std::vector<std::pair<std::string, obs::Labels>> expected{
      {"sesame.a.value", {{"topic", "uav1"}}},
      {"sesame.a.value", two_sorted},
      {"sesame.a.value", {{"topic", "uav10"}}},
      {"sesame.b.total", {{"topic", "uav1"}}},
      {"sesame.b.total", two_sorted},
      {"sesame.b.total", {{"topic", "uav1/x"}}},
      {"sesame.b.total", {{"topic", "uav10"}}},
      {"sesame.b.total", {{"topic", "uav2"}}},
      {"sesame.c.seconds", {{"topic", "uav1/x"}}},
      {"sesame.c.seconds", {{"topic", "uav2"}}},
  };
  std::vector<std::pair<std::string, obs::Labels>> seen;
  for (const auto& s : merged.snapshot().samples) {
    seen.emplace_back(s.name, s.labels);
  }
  EXPECT_EQ(seen, expected);
  EXPECT_DOUBLE_EQ(
      merged.snapshot().find("sesame.b.total", {{"topic", "uav1/x"}})->value,
      2.0);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(obs::Histogram({}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, BucketsObservations) {
  obs::Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);   // bucket 0 (le 1)
  h.observe(1.0);   // bucket 0 (le is inclusive)
  h.observe(1.5);   // bucket 1
  h.observe(3.0);   // bucket 2
  h.observe(100.0); // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 106.0);
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
}

TEST(Histogram, WeightedObserveMatchesRepeatedObservations) {
  // A weight-16 sample is 16 observations of one value, through merge and
  // quantile alike.
  const std::vector<double> bounds{1.0, 2.0, 4.0};
  obs::Histogram weighted(bounds);
  obs::Histogram repeated(bounds);
  weighted.observe(0.5);
  repeated.observe(0.5);
  weighted.observe(3.0, 16);
  for (int i = 0; i < 16; ++i) repeated.observe(3.0);
  for (const obs::Histogram* h : {&weighted, &repeated}) {
    EXPECT_EQ(h->count(), 17u);
    EXPECT_DOUBLE_EQ(h->sum(), 48.5);
    EXPECT_EQ(h->bucket_counts(), (std::vector<std::size_t>{1, 0, 16, 0}));
    EXPECT_DOUBLE_EQ(h->min_observed(), 0.5);
    EXPECT_DOUBLE_EQ(h->max_observed(), 3.0);
  }
  for (const double q : {0.0, 0.05, 0.25, 0.5, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(weighted.quantile(q), repeated.quantile(q)) << q;
  }
  obs::Histogram merged_weighted(bounds);
  obs::Histogram merged_repeated(bounds);
  merged_weighted.merge(weighted);
  merged_weighted.merge(weighted);
  merged_repeated.merge(repeated);
  merged_repeated.merge(repeated);
  EXPECT_EQ(merged_weighted.count(), 34u);
  EXPECT_EQ(merged_weighted.bucket_counts(), merged_repeated.bucket_counts());
  EXPECT_DOUBLE_EQ(merged_weighted.sum(), merged_repeated.sum());
  EXPECT_DOUBLE_EQ(merged_weighted.min_observed(), 0.5);
  EXPECT_DOUBLE_EQ(merged_weighted.max_observed(), 3.0);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(merged_weighted.quantile(q), merged_repeated.quantile(q))
        << q;
  }
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  obs::Histogram h({1.0, 2.0, 4.0});
  for (int i = 0; i < 10; ++i) h.observe(0.5);  // all at one point
  // Every sample sits at 0.5, so every quantile is 0.5: the bucket's
  // interpolation range collapses to [min, max].
  EXPECT_NEAR(h.quantile(0.5), 0.5, 1e-9);
  EXPECT_NEAR(h.quantile(1.0), 0.5, 1e-9);
  obs::Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  // A spread within one bucket interpolates across [min, bound].
  obs::Histogram spread({1.0, 2.0, 4.0});
  spread.observe(0.2);
  spread.observe(0.6);
  spread.observe(1.0);
  EXPECT_NEAR(spread.quantile(0.0), 0.2, 1e-9);
  EXPECT_NEAR(spread.quantile(1.0), 1.0, 1e-9);
}

TEST(Histogram, TracksObservedMinMax) {
  obs::Histogram h({0.0, 10.0});
  EXPECT_DOUBLE_EQ(h.min_observed(), 0.0);  // empty: 0 by convention
  EXPECT_DOUBLE_EQ(h.max_observed(), 0.0);
  h.observe(3.0);
  h.observe(-7.0);
  h.observe(42.0);
  EXPECT_DOUBLE_EQ(h.min_observed(), -7.0);
  EXPECT_DOUBLE_EQ(h.max_observed(), 42.0);
}

// Regression: overflow-bucket mass used to clamp every upper quantile to
// the largest finite bound, underreporting p99 of a saturating series.
TEST(Histogram, OverflowQuantilesInterpolateUpToObservedMax) {
  obs::Histogram h({1.0, 2.0});
  h.observe(50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 50.0);  // was 2.0 before the fix

  // Half the mass saturates: upper quantiles walk (2, max], not clamp.
  obs::Histogram sat({1.0, 2.0});
  for (int i = 0; i < 50; ++i) sat.observe(0.5);
  for (int i = 0; i < 50; ++i) sat.observe(10.0);
  EXPECT_GT(sat.quantile(0.99), 2.0);
  EXPECT_LE(sat.quantile(0.99), 10.0);
  EXPECT_DOUBLE_EQ(sat.quantile(1.0), 10.0);
}

// Regression: the first bucket's lower edge was hard-coded to 0, so
// quantiles of negative-valued series (signed error gauges) were wrong —
// q=0 of an all-negative series reported 0.
TEST(Histogram, NegativeSeriesQuantilesUseObservedMin) {
  obs::Histogram h({-5.0, 0.0, 5.0});
  h.observe(-9.0);
  h.observe(-8.0);
  h.observe(-7.0);
  h.observe(-6.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), -9.0);  // was 0 before the fix
  EXPECT_LE(h.quantile(0.5), -5.0);
  EXPECT_GE(h.quantile(0.5), -9.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), -6.0);  // observed max, not bucket edge
}

TEST(Histogram, MergeAddsCountsAndExtremes) {
  obs::Histogram a({1.0, 2.0});
  obs::Histogram b({1.0, 2.0});
  a.observe(0.5);
  a.observe(1.5);
  b.observe(9.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 11.0);
  EXPECT_EQ(a.bucket_counts()[0], 1u);
  EXPECT_EQ(a.bucket_counts()[1], 1u);
  EXPECT_EQ(a.bucket_counts()[2], 1u);
  EXPECT_DOUBLE_EQ(a.min_observed(), 0.5);
  EXPECT_DOUBLE_EQ(a.max_observed(), 9.0);

  obs::Histogram other_bounds({1.0, 3.0});
  EXPECT_THROW(a.merge(other_bounds), std::invalid_argument);

  // Merging an empty histogram is a no-op (does not corrupt min/max).
  obs::Histogram empty({1.0, 2.0});
  a.merge(empty);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.min_observed(), 0.5);
}

TEST(Registry, MergeSanitizesDefaultedExtremesFromExternalSamples) {
  // A wire peer or hand-built sample: bucket mass present (all overflow),
  // min/max left at their 0 defaults. Trusting them would drag the merged
  // extremes to 0 and collapse quantile bracketing onto [0, bounds].
  obs::MetricSample s;
  s.name = "ext.lat";
  s.kind = obs::MetricKind::kHistogram;
  s.bucket_bounds = {1.0, 2.0};
  s.bucket_counts = {0, 0, 5};
  s.observations = 5;
  s.value = 250.0;
  obs::MetricsSnapshot snap;
  snap.samples.push_back(s);

  obs::MetricsRegistry reg;
  reg.merge(snap, 1);
  const auto out = reg.snapshot();
  const auto* h = out.find("ext.lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->observations, 5u);
  // Extremes fall back to the occupied bucket's finite edge (the last
  // bound), the tightest honest claim available, instead of the bogus 0s.
  EXPECT_DOUBLE_EQ(h->min_observed, 2.0);
  EXPECT_DOUBLE_EQ(h->max_observed, 2.0);
}

TEST(Registry, MergeRejectsObservationsWithoutBucketMass) {
  obs::MetricSample s;
  s.name = "ext.lat";
  s.kind = obs::MetricKind::kHistogram;
  s.bucket_bounds = {1.0, 2.0};
  s.bucket_counts = {0, 0, 0};
  s.observations = 3;  // claims samples that are in no bucket
  obs::MetricsSnapshot snap;
  snap.samples.push_back(s);

  obs::MetricsRegistry reg;
  EXPECT_THROW(reg.merge(snap, 1), std::invalid_argument);
}

TEST(Registry, MergeOfEmptyHistogramSampleKeepsExtremesUntouched) {
  obs::MetricsRegistry run_empty;
  run_empty.histogram("lat", {}, {1.0, 2.0});  // registered, never observed

  obs::MetricsRegistry run_full;
  run_full.histogram("lat", {}, {1.0, 2.0}).observe(50.0);  // overflow mass

  // Either merge order: the empty side must not clamp the extremes to the
  // bucket bounds (or to 0, the empty-sample encoding of min/max).
  for (const bool empty_first : {true, false}) {
    obs::MetricsRegistry merged;
    merged.merge(empty_first ? run_empty.snapshot() : run_full.snapshot(), 1);
    merged.merge(empty_first ? run_full.snapshot() : run_empty.snapshot(), 2);
    const auto snap = merged.snapshot();
    const auto* h = snap.find("lat");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->observations, 1u);
    EXPECT_DOUBLE_EQ(h->min_observed, 50.0) << "empty_first=" << empty_first;
    EXPECT_DOUBLE_EQ(h->max_observed, 50.0) << "empty_first=" << empty_first;
  }
}

TEST(Registry, MergeRollsUpSnapshots) {
  obs::MetricsRegistry run1;
  run1.counter("sesame.mw.publish_total", {{"topic", "a"}}).inc(3.0);
  run1.gauge("sesame.sim.time_s").set(100.0);
  run1.histogram("sesame.platform.staleness_s", {}, {1.0, 5.0}).observe(0.5);

  obs::MetricsRegistry run2;
  run2.counter("sesame.mw.publish_total", {{"topic", "a"}}).inc(4.0);
  run2.counter("sesame.mw.publish_total", {{"topic", "b"}}).inc(1.0);
  run2.gauge("sesame.sim.time_s").set(250.0);
  run2.histogram("sesame.platform.staleness_s", {}, {1.0, 5.0}).observe(7.0);

  obs::MetricsRegistry campaign;
  campaign.merge(run1.snapshot(), 1);
  campaign.merge(run2.snapshot(), 2);

  const auto snap = campaign.snapshot();
  const auto* c = snap.find("sesame.mw.publish_total", {{"topic", "a"}});
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->value, 7.0);  // counters add
  const auto* cb = snap.find("sesame.mw.publish_total", {{"topic", "b"}});
  ASSERT_NE(cb, nullptr);
  EXPECT_DOUBLE_EQ(cb->value, 1.0);  // absent series are created
  const auto* g = snap.find("sesame.sim.time_s");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->value, 250.0);  // gauges: last merge wins
  const auto* h = snap.find("sesame.platform.staleness_s");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->observations, 2u);  // histograms add buckets
  EXPECT_DOUBLE_EQ(h->min_observed, 0.5);
  EXPECT_DOUBLE_EQ(h->max_observed, 7.0);

  // Kind clash across snapshots surfaces, like direct registration.
  obs::MetricsRegistry clash;
  clash.gauge("sesame.mw.publish_total");
  EXPECT_THROW(clash.merge(run1.snapshot(), 1), std::logic_error);
}

TEST(Registry, StampedGaugeMergeTakesHighestStamp) {
  obs::MetricsRegistry run_a;
  run_a.gauge("sesame.sim.time_s").set(400.0);
  obs::MetricsRegistry run_b;
  run_b.gauge("sesame.sim.time_s").set(120.0);

  // Completion order (b then a) disagrees with run order (a = run 7,
  // b = run 2): the higher-stamped value must win regardless.
  obs::MetricsRegistry merged;
  merged.merge(run_b.snapshot(), 3);
  merged.merge(run_a.snapshot(), 8);
  EXPECT_DOUBLE_EQ(merged.snapshot().find("sesame.sim.time_s")->value, 400.0);

  obs::MetricsRegistry reversed;
  reversed.merge(run_a.snapshot(), 8);
  reversed.merge(run_b.snapshot(), 3);
  EXPECT_DOUBLE_EQ(reversed.snapshot().find("sesame.sim.time_s")->value, 400.0);

  // A snapshot of the merged registry remembers the winning stamp.
  EXPECT_EQ(merged.snapshot().find("sesame.sim.time_s")->gauge_stamp, 8u);
}

// The service-tenant property (the bug this pins): folding one fixed set of
// stamped per-run snapshots must produce bit-identical merged state under
// EVERY merge permutation — concurrent tenants see runs complete in
// arbitrary order. Exhaustive over all 4! permutations of 4 runs.
TEST(Registry, StampedGaugeMergeIsPermutationInvariant) {
  std::vector<obs::MetricsSnapshot> snaps;
  for (int run = 0; run < 4; ++run) {
    obs::MetricsRegistry reg;
    reg.gauge("sesame.sim.time_s").set(100.0 * (3 - run));
    reg.gauge("sesame.platform.fleet_availability")
        .set(0.25 * (run % 2 ? run : 4 - run));
    reg.counter("sesame.mw.publish_total").inc(run + 1.0);
    snaps.push_back(reg.snapshot());
  }

  std::string reference;
  std::vector<std::size_t> order{0, 1, 2, 3};
  do {
    obs::MetricsRegistry merged;
    for (const std::size_t i : order) merged.merge(snaps[i], i + 1);
    const std::string rendered = obs::render_prometheus(merged.snapshot());
    if (reference.empty()) {
      reference = rendered;
    } else {
      EXPECT_EQ(rendered, reference)
          << "order " << order[0] << order[1] << order[2] << order[3];
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(Registry, HigherStampWinsOverLargerValue) {
  obs::MetricsRegistry a;
  a.gauge("g").set(1.0);
  obs::MetricsRegistry b;
  b.gauge("g").set(-5.0);  // smaller value, higher stamp: must still win
  obs::MetricsRegistry merged;
  merged.merge(a.snapshot(), 1);
  merged.merge(b.snapshot(), 2);
  EXPECT_DOUBLE_EQ(merged.snapshot().find("g")->value, -5.0);
}

TEST(Prometheus, RendersCountersGaugesWithSanitizedNames) {
  obs::MetricsRegistry reg;
  reg.counter("sesame.mw.publish_total", {{"topic", "uav/uav1/telemetry"}})
      .inc(42.0);
  reg.gauge("sesame.sim.time_s").set(3.5);
  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("# TYPE sesame_mw_publish_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("sesame_mw_publish_total{topic=\"uav/uav1/telemetry\"}"
                      " 42"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sesame_sim_time_s gauge"), std::string::npos);
  EXPECT_NE(text.find("sesame_sim_time_s 3.5"), std::string::npos);
}

TEST(Prometheus, RendersCumulativeHistogramBuckets) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat", {}, {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);
  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("lat_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("lat_sum 11"), std::string::npos);
  EXPECT_NE(text.find("lat_count 3"), std::string::npos);
}

TEST(Prometheus, EscapesLabelValues) {
  obs::MetricsRegistry reg;
  reg.counter("m", {{"k", "quote\"back\\slash"}}).inc();
  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("m{k=\"quote\\\"back\\\\slash\"} 1"), std::string::npos);
}

TEST(Tracer, DisabledTracerEmitsNothingCheaply) {
  obs::Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  {
    obs::Span s = tracer.start_span("anything");
    EXPECT_FALSE(s.recording());
    s.set_attribute("k", "v");  // must be a no-op, not a crash
  }
  tracer.event("anything");  // no sink: dropped
}

TEST(Tracer, SpansNestByIdAndRestoreParent) {
  obs::MemorySink sink;
  obs::Tracer tracer;
  tracer.set_sink(&sink);
  {
    obs::Span root = tracer.start_span("root");
    {
      obs::Span child = tracer.start_span("child");
      obs::Span grandchild = tracer.start_span("grandchild");
      grandchild.end();
      child.end();
    }
    obs::Span sibling = tracer.start_span("sibling");
  }
  // Events arrive in *end* order: grandchild, child, sibling, root.
  ASSERT_EQ(sink.events().size(), 4u);
  const auto root = sink.named("root").at(0);
  const auto child = sink.named("child").at(0);
  const auto grandchild = sink.named("grandchild").at(0);
  const auto sibling = sink.named("sibling").at(0);
  EXPECT_EQ(root.parent_id, 0u);
  EXPECT_EQ(child.parent_id, root.span_id);
  EXPECT_EQ(grandchild.parent_id, child.span_id);
  EXPECT_EQ(sibling.parent_id, root.span_id);  // parent restored after child
  EXPECT_GE(root.duration_us, child.duration_us);
}

TEST(Tracer, EventsInheritTheOpenSpan) {
  obs::MemorySink sink;
  obs::Tracer tracer;
  tracer.set_sink(&sink);
  tracer.event("orphan");
  {
    obs::Span s = tracer.start_span("phase", {{"phase", "search"}});
    tracer.event("alert", {{"rule", "position_jump"}});
  }
  const auto orphan = sink.named("orphan").at(0);
  EXPECT_EQ(orphan.parent_id, 0u);
  EXPECT_EQ(orphan.kind, obs::TraceEvent::Kind::kEvent);
  const auto alert = sink.named("alert").at(0);
  const auto phase = sink.named("phase").at(0);
  EXPECT_EQ(alert.parent_id, phase.span_id);
  ASSERT_EQ(alert.attributes.size(), 1u);
  EXPECT_EQ(alert.attributes[0].second, "position_jump");
}

TEST(Tracer, SpanAttributesSurviveToTheSink) {
  obs::MemorySink sink;
  obs::Tracer tracer;
  tracer.set_sink(&sink);
  {
    obs::Span s = tracer.start_span("run", {{"uavs", "3"}});
    s.set_attribute("availability", 0.915);
  }
  const auto e = sink.named("run").at(0);
  ASSERT_EQ(e.attributes.size(), 2u);
  EXPECT_EQ(e.attributes[0].first, "uavs");
  EXPECT_EQ(e.attributes[1].second, "0.915");
}

TEST(Tracer, EndIsIdempotentAndMoveSafe) {
  obs::MemorySink sink;
  obs::Tracer tracer;
  tracer.set_sink(&sink);
  obs::Span s = tracer.start_span("once");
  obs::Span moved = std::move(s);
  s.end();      // moved-from: no-op
  moved.end();
  moved.end();  // second end: no-op
  EXPECT_EQ(sink.named("once").size(), 1u);
}

TEST(JsonLines, SerializesSpansAndEvents) {
  obs::TraceEvent e;
  e.kind = obs::TraceEvent::Kind::kSpan;
  e.name = "sesame.mission.phase";
  e.span_id = 2;
  e.parent_id = 1;
  e.start_us = 10.5;
  e.duration_us = 99.5;
  e.attributes = {{"phase", "search"}};
  EXPECT_EQ(obs::to_json_line(e),
            "{\"kind\":\"span\",\"name\":\"sesame.mission.phase\","
            "\"span_id\":2,\"parent_id\":1,\"start_us\":10.5,"
            "\"duration_us\":99.5,\"attrs\":{\"phase\":\"search\"}}");
  e.kind = obs::TraceEvent::Kind::kEvent;
  EXPECT_EQ(obs::to_json_line(e).find("\"duration_us\""), std::string::npos);
}

TEST(JsonLines, EscapesStrings) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(obs::json_escape(std::string("x\x01y")), "x\\u0001y");
}

TEST(JsonLines, SinkWritesOneLinePerEvent) {
  std::ostringstream out;
  obs::JsonLinesSink sink(out);
  obs::Tracer tracer;
  tracer.set_sink(&sink);
  tracer.event("a");
  { obs::Span s = tracer.start_span("b"); }
  EXPECT_EQ(sink.events_written(), 2u);
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("\"kind\":\"event\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"span\""), std::string::npos);
}

TEST(Observability, BundleComposes) {
  obs::Observability o;
  obs::MemorySink sink;
  o.tracer.set_sink(&sink);
  o.metrics.counter("sesame.test.total").inc();
  o.tracer.event("sesame.test.event");
  EXPECT_EQ(o.metrics.series_count(), 1u);
  EXPECT_EQ(sink.events().size(), 1u);
}
