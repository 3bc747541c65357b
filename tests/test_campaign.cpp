// Tests for the Monte Carlo campaign layer: seed derivation, scenario
// presets, outcome extraction, summary statistics, report writers, and the
// headline determinism contract — campaign results are bit-identical
// regardless of how many worker threads executed them.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include <gtest/gtest.h>

#include "sesame/campaign/campaign.hpp"
#include "sesame/campaign/report.hpp"
#include "sesame/mathx/stats.hpp"

namespace campaign = sesame::campaign;
namespace platform = sesame::platform;

namespace {

/// A scenario small enough for the test suite: two UAVs, 150 m square,
/// 200 s budget. Baseline arm (no monitor calibration) unless stated.
platform::RunnerConfig small_scenario() {
  platform::RunnerConfig config = campaign::ScenarioFactory::default_scenario();
  config.n_uavs = 2;
  config.area = {0.0, 150.0, 0.0, 150.0};
  config.n_persons = 3;
  config.max_time_s = 200.0;
  config.sesame_enabled = false;
  return config;
}

campaign::CampaignConfig small_campaign(std::size_t runs, std::size_t jobs) {
  campaign::CampaignConfig config;
  config.runs = runs;
  config.jobs = jobs;
  config.seed = 99;
  return config;
}

}  // namespace

TEST(SeedDerivation, IsAPureFunctionOfSeedAndIndex) {
  const std::uint64_t a = campaign::derive_run_seed(42, 0);
  EXPECT_EQ(a, campaign::derive_run_seed(42, 0));
  EXPECT_NE(a, campaign::derive_run_seed(42, 1));
  EXPECT_NE(a, campaign::derive_run_seed(43, 0));
  // Run 0 must not echo the campaign seed itself: a campaign and a manual
  // single run seeded S must not share a random stream.
  EXPECT_NE(campaign::derive_run_seed(42, 0), 42u);
}

TEST(SeedDerivation, NeighbouringRunsGetDistinctSeeds) {
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    seen.insert(campaign::derive_run_seed(7, i));
  }
  EXPECT_EQ(seen.size(), 10000u);  // no collisions across a large campaign
}

TEST(ScenarioFactory, PresetsCoverThePaperScenarios) {
  for (const auto& name : campaign::ScenarioFactory::preset_names()) {
    EXPECT_NO_THROW(campaign::ScenarioFactory::preset(name)) << name;
  }
  EXPECT_TRUE(campaign::ScenarioFactory::preset("battery_fault")
                  .base()
                  .battery_fault.has_value());
  EXPECT_TRUE(
      campaign::ScenarioFactory::preset("spoofing").base().spoofing.has_value());
  EXPECT_TRUE(
      campaign::ScenarioFactory::preset("spoofing_lossy").base().lossy_links);
  EXPECT_FALSE(
      campaign::ScenarioFactory::preset("baseline").base().sesame_enabled);
  const auto fleet = campaign::ScenarioFactory::preset("fleet_1024");
  EXPECT_EQ(fleet.base().n_uavs, 1024u);
  EXPECT_FALSE(fleet.base().sesame_enabled);
  // Chaos-capable: every run gets a seed-derived failure schedule with the
  // recovery subsystem active.
  const auto fleet_run = fleet.config_for_run(1, 0);
  EXPECT_TRUE(fleet_run.failure_schedule.has_value());
  EXPECT_TRUE(fleet_run.recovery_enabled);
  EXPECT_THROW(campaign::ScenarioFactory::preset("nope"),
               std::invalid_argument);
}

TEST(ScenarioFactory, ConfigForRunOverridesOnlyTheSeed) {
  const campaign::ScenarioFactory factory(small_scenario());
  const auto config = factory.config_for_run(99, 3);
  EXPECT_EQ(config.seed, campaign::derive_run_seed(99, 3));
  EXPECT_EQ(config.n_uavs, factory.base().n_uavs);
  EXPECT_DOUBLE_EQ(config.max_time_s, factory.base().max_time_s);
  EXPECT_EQ(config.sesame_enabled, factory.base().sesame_enabled);
}

// The acceptance criterion: byte-identical reports for --jobs 1 vs --jobs 8
// at a fixed campaign seed (run-claiming order and thread interleaving must
// never leak into results).
TEST(Campaign, ReportsAreBitIdenticalAcrossJobCounts) {
  const campaign::ScenarioFactory factory(small_scenario());
  const auto r1 = campaign::run_campaign(factory, small_campaign(6, 1));
  const auto r8 = campaign::run_campaign(factory, small_campaign(6, 8));

  EXPECT_EQ(r8.jobs_used, 6u);  // clamped to the number of runs
  EXPECT_EQ(campaign::campaign_json(r1), campaign::campaign_json(r8));

  std::ostringstream csv1, csv8, sum1, sum8;
  campaign::write_runs_csv(r1, csv1);
  campaign::write_runs_csv(r8, csv8);
  campaign::write_summary_csv(r1, sum1);
  campaign::write_summary_csv(r8, sum8);
  EXPECT_EQ(csv1.str(), csv8.str());
  EXPECT_EQ(sum1.str(), sum8.str());
}

// Same contract with the full stack engaged: SESAME monitors, a message
// fault plan and the distance-dependent lossy C2 radio.
TEST(Campaign, DeterminismHoldsUnderFaultsAndMonitors) {
  platform::RunnerConfig scenario = small_scenario();
  scenario.sesame_enabled = true;
  scenario.lossy_links = true;
  scenario.fault_plan = sesame::mw::FaultPlan::telemetry_stress();
  const campaign::ScenarioFactory factory(scenario);
  const auto r1 = campaign::run_campaign(factory, small_campaign(3, 1));
  const auto r4 = campaign::run_campaign(factory, small_campaign(3, 4));
  EXPECT_EQ(campaign::campaign_json(r1), campaign::campaign_json(r4));
  // Faults actually fired (the determinism is not vacuous).
  std::uint64_t dropped = 0;
  for (const auto& o : r1.outcomes) dropped += o.faults_dropped;
  EXPECT_GT(dropped, 0u);
}

TEST(Campaign, OutcomesCarryPerRunSeedsAndScalars) {
  const campaign::ScenarioFactory factory(small_scenario());
  const auto result = campaign::run_campaign(factory, small_campaign(4, 2));
  ASSERT_EQ(result.outcomes.size(), 4u);
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const auto& o = result.outcomes[i];
    EXPECT_EQ(o.run_index, i);
    EXPECT_EQ(o.seed, campaign::derive_run_seed(99, i));
    EXPECT_GT(o.total_time_s, 0.0);
    EXPECT_GE(o.availability, 0.0);
    EXPECT_LE(o.availability, 1.0);
    EXPECT_GT(o.min_soc, 0.0);
    EXPECT_LE(o.min_soc, 1.0);
    EXPECT_EQ(o.persons_total, 3u);
  }
}

TEST(Campaign, SummariesAgreeWithMathxOverOutcomes) {
  const campaign::ScenarioFactory factory(small_scenario());
  const auto result = campaign::run_campaign(factory, small_campaign(5, 2));

  std::vector<double> availability;
  for (const auto& o : result.outcomes) availability.push_back(o.availability);

  const campaign::StatSummary* row = nullptr;
  for (const auto& s : result.summaries) {
    if (s.metric == "availability") row = &s;
  }
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->count, 5u);
  EXPECT_DOUBLE_EQ(row->mean, sesame::mathx::mean(availability));
  EXPECT_DOUBLE_EQ(row->p90, sesame::mathx::quantile(availability, 0.9));
  EXPECT_LE(row->ci95_lo, row->mean);
  EXPECT_GE(row->ci95_hi, row->mean);
}

TEST(Campaign, MergedMetricsRollUpAcrossRuns) {
  const campaign::ScenarioFactory factory(small_scenario());
  const auto result = campaign::run_campaign(factory, small_campaign(3, 3));
  // Every run publishes telemetry for uav1; the merged counter is the sum
  // over all runs, so it must exceed any single run's step count.
  const auto* published = result.metrics.find(
      "sesame.mw.publish_total", {{"topic", "uav/uav1/telemetry"}});
  ASSERT_NE(published, nullptr);
  double total_steps = 0.0;
  for (const auto& o : result.outcomes) total_steps += o.total_time_s;
  EXPECT_DOUBLE_EQ(published->value, total_steps);  // dt = 1 s: one per step
}

TEST(Campaign, WorkerExceptionsPropagate) {
  platform::RunnerConfig bad = small_scenario();
  bad.n_uavs = 0;  // MissionRunner rejects this in its constructor
  const campaign::ScenarioFactory factory(bad);
  EXPECT_THROW(campaign::run_campaign(factory, small_campaign(4, 2)),
               std::invalid_argument);
}

TEST(Report, WallClockFamiliesAreExcluded) {
  EXPECT_FALSE(campaign::deterministic_metric("sesame.sim.step_duration_seconds"));
  EXPECT_FALSE(
      campaign::deterministic_metric("sesame.mw.delivery_latency_seconds"));
  EXPECT_TRUE(campaign::deterministic_metric("sesame.sim.time_s"));
  EXPECT_TRUE(campaign::deterministic_metric("sesame.mw.publish_total"));

  const campaign::ScenarioFactory factory(small_scenario());
  const auto result = campaign::run_campaign(factory, small_campaign(2, 1));
  const std::string json = campaign::campaign_json(result);
  EXPECT_EQ(json.find("_seconds"), std::string::npos);
  EXPECT_NE(json.find("sesame.mw.publish_total"), std::string::npos);
}

// The evaluation-cache contract, end to end: the consert_eval_cache key
// must not change a single byte of any campaign artefact, even in the
// scenario that exercises every monitor (spoofing under the lossy C2
// radio). The key is inert since evaluation runs a compiled plan; it
// stays in the config until the next schema bump.
TEST(Campaign, EvaluationCacheDoesNotChangeResults) {
  platform::RunnerConfig scenario =
      campaign::ScenarioFactory::preset("spoofing_lossy").base();
  scenario.max_time_s = 400.0;  // enough to cover the attack + response

  platform::RunnerConfig uncached = scenario;
  uncached.consert_eval_cache = false;
  ASSERT_TRUE(scenario.consert_eval_cache);  // cache is the default

  const campaign::ScenarioFactory with(scenario);
  const campaign::ScenarioFactory without(uncached);
  const auto r_cached = campaign::run_campaign(with, small_campaign(2, 1));
  const auto r_plain = campaign::run_campaign(without, small_campaign(2, 1));

  EXPECT_EQ(campaign::campaign_json(r_cached), campaign::campaign_json(r_plain));
  std::ostringstream csv_c, csv_p, sum_c, sum_p;
  campaign::write_runs_csv(r_cached, csv_c);
  campaign::write_runs_csv(r_plain, csv_p);
  campaign::write_summary_csv(r_cached, sum_c);
  campaign::write_summary_csv(r_plain, sum_p);
  EXPECT_EQ(csv_c.str(), csv_p.str());
  EXPECT_EQ(sum_c.str(), sum_p.str());

  // The comparison is not vacuous: the scenario detects the attack.
  bool any_detected = false;
  for (const auto& o : r_cached.outcomes) any_detected |= o.attack_detected;
  EXPECT_TRUE(any_detected);
}

// ---------------------------------------------------------------------------
// Chaos campaigns (docs/ROBUSTNESS.md): every run draws a seed-derived
// vehicle-failure schedule with the recovery subsystem active. The
// determinism contract is unchanged — byte-identical reports for any
// worker count — and the chaos stream is independent of the world stream.

#include "sesame/sim/failure_schedule.hpp"

namespace {

campaign::ScenarioFactory chaos_factory() {
  // Chaos profile squeezed into the 200 s test scenario (the defaults
  // target full-length missions).
  sesame::sim::ChaosProfile profile;
  profile.earliest_time_s = 20.0;
  profile.latest_time_s = 120.0;
  profile.min_duration_s = 10.0;
  profile.max_duration_s = 30.0;
  campaign::ScenarioFactory factory(small_scenario());
  factory.enable_chaos(profile);
  return factory;
}

}  // namespace

TEST(Campaign, ChaosReportsAreBitIdenticalAcrossJobCounts) {
  const auto factory = chaos_factory();
  const auto r1 = campaign::run_campaign(factory, small_campaign(6, 1));
  const auto r4 = campaign::run_campaign(factory, small_campaign(6, 4));
  const auto r8 = campaign::run_campaign(factory, small_campaign(6, 8));

  EXPECT_EQ(campaign::campaign_json(r1), campaign::campaign_json(r4));
  EXPECT_EQ(campaign::campaign_json(r1), campaign::campaign_json(r8));
  std::ostringstream csv1, csv8, sum1, sum8;
  campaign::write_runs_csv(r1, csv1);
  campaign::write_runs_csv(r8, csv8);
  campaign::write_summary_csv(r1, sum1);
  campaign::write_summary_csv(r8, sum8);
  EXPECT_EQ(csv1.str(), csv8.str());
  EXPECT_EQ(sum1.str(), sum8.str());

  // The chaos actually bit (non-vacuous determinism), and the platform
  // weathered it without a single safety-invariant violation.
  std::size_t pings = 0, violations = 0;
  for (const auto& o : r1.outcomes) {
    pings += o.recovery_pings;
    violations += o.invariant_violations;
  }
  EXPECT_GT(pings, 0u);
  EXPECT_EQ(violations, 0u);
}

TEST(Campaign, FleetScaleChaosRunIsDeterministicAndInvariantClean) {
  // Fleet-scale integration: 256 vehicles sweep a 2x2 km area under a
  // seed-derived chaos schedule with the recovery subsystem active. The
  // run must stay byte-identical across worker counts and weather the
  // faults without a single safety-invariant violation.
  platform::RunnerConfig scenario = campaign::ScenarioFactory::default_scenario();
  scenario.sesame_enabled = false;  // baseline firmware: focus on the fleet
  scenario.n_uavs = 256;
  scenario.area = {0.0, 2000.0, 0.0, 2000.0};
  scenario.n_persons = 32;
  scenario.max_time_s = 60.0;  // enough for onset + escalation, not a sweep
  sesame::sim::ChaosProfile profile;
  profile.earliest_time_s = 10.0;
  profile.latest_time_s = 35.0;
  profile.min_duration_s = 8.0;
  profile.max_duration_s = 20.0;
  campaign::ScenarioFactory factory(scenario);
  factory.enable_chaos(profile);

  campaign::CampaignConfig cc;
  cc.runs = 1;
  cc.seed = 2026;
  cc.jobs = 1;
  const auto r1 = campaign::run_campaign(factory, cc);
  cc.jobs = 8;
  const auto r8 = campaign::run_campaign(factory, cc);

  EXPECT_EQ(campaign::campaign_json(r1), campaign::campaign_json(r8));
  ASSERT_EQ(r1.outcomes.size(), 1u);
  EXPECT_EQ(r1.outcomes[0].invariant_violations, 0u);
  // Non-vacuous: with 256 vehicles the schedule reliably silences someone,
  // so the recovery escalation must actually have fired.
  EXPECT_GT(r1.outcomes[0].recovery_pings, 0u);
}

TEST(ScenarioFactory, ChaosSchedulesAreSeedDerivedPerRun) {
  const auto factory = chaos_factory();
  const auto a = factory.config_for_run(7, 0);
  const auto b = factory.config_for_run(7, 0);
  const auto c = factory.config_for_run(7, 1);
  ASSERT_TRUE(a.failure_schedule.has_value());
  EXPECT_TRUE(a.recovery_enabled);
  ASSERT_TRUE(b.failure_schedule.has_value());

  // Same (campaign seed, run index): the identical schedule.
  ASSERT_EQ(a.failure_schedule->events.size(),
            b.failure_schedule->events.size());
  for (std::size_t i = 0; i < a.failure_schedule->events.size(); ++i) {
    EXPECT_EQ(a.failure_schedule->events[i].uav,
              b.failure_schedule->events[i].uav);
    EXPECT_EQ(a.failure_schedule->events[i].mode,
              b.failure_schedule->events[i].mode);
    EXPECT_DOUBLE_EQ(a.failure_schedule->events[i].time_s,
                     b.failure_schedule->events[i].time_s);
  }
  // The chaos stream is salted: a run's schedule is not the one a naive
  // derivation straight from the run seed would produce, so fault draws
  // never echo the world RNG stream.
  const auto signature = [](const sesame::sim::FailureSchedule& s) {
    std::string sig;
    for (const auto& e : s.events) {
      sig += e.uav + "/" + sesame::sim::failure_mode_name(e.mode) + "@" +
             std::to_string(e.time_s) + ";";
    }
    return sig;
  };
  sesame::sim::ChaosProfile profile;
  profile.earliest_time_s = 20.0;
  profile.latest_time_s = 120.0;
  profile.min_duration_s = 10.0;
  profile.max_duration_s = 30.0;
  const auto unsalted = sesame::sim::FailureSchedule::chaos(
      campaign::derive_run_seed(7, 1), {"uav1", "uav2"}, profile);
  ASSERT_TRUE(c.failure_schedule.has_value());
  EXPECT_NE(signature(*c.failure_schedule), signature(unsalted));
}

// ---------------------------------------------------------------------------
// Report validity (schema /3): statistics that are undefined for small run
// counts must never leak a bare "nan"/"inf" token into JSON (RFC 8259 has
// none) or a misleading zero into CSV. Regression for the n=1 campaign bug.

#include "sesame/eddi/ode.hpp"

TEST(Report, SingleRunReportIsValidJsonWithNullSpread) {
  const campaign::ScenarioFactory factory(small_scenario());
  const auto result = campaign::run_campaign(factory, small_campaign(1, 1));
  const std::string json = campaign::campaign_json(result);

  // parse_json rejects bare nan/inf tokens, so a successful parse proves
  // the document is RFC 8259-clean.
  const auto doc = sesame::eddi::ode::parse_json(json);
  EXPECT_EQ(doc.at("campaign").at("schema").as_string(),
            "sesame.campaign.report/3");

  bool checked = false;
  for (const auto& row : doc.at("summary").as_array()) {
    if (row.at("metric").as_string() != "availability") continue;
    checked = true;
    EXPECT_EQ(row.at("count").as_number(), 1.0);
    EXPECT_TRUE(row.at("mean").is_number());
    EXPECT_TRUE(row.at("min").is_number());
    // One sample: spread statistics are undefined, not zero.
    EXPECT_TRUE(row.at("stddev").is_null());
    EXPECT_TRUE(row.at("ci95_lo").is_null());
    EXPECT_TRUE(row.at("ci95_hi").is_null());
  }
  EXPECT_TRUE(checked);

  // Zero-contribution columns (no attack in this scenario) are all null.
  for (const auto& row : doc.at("summary").as_array()) {
    if (row.at("metric").as_string() != "attack_detection_latency_s") continue;
    EXPECT_EQ(row.at("count").as_number(), 0.0);
    EXPECT_TRUE(row.at("mean").is_null());
    EXPECT_TRUE(row.at("max").is_null());
  }
}

TEST(Report, SingleRunSummaryCsvLeavesUndefinedCellsEmpty) {
  const campaign::ScenarioFactory factory(small_scenario());
  const auto result = campaign::run_campaign(factory, small_campaign(1, 1));
  std::ostringstream out;
  campaign::write_summary_csv(result, out);
  const std::string csv = out.str();
  EXPECT_EQ(csv.find("nan"), std::string::npos);
  EXPECT_EQ(csv.find("inf"), std::string::npos);
  // availability row: count=1, mean present, stddev/ci95 cells empty.
  const auto pos = csv.find("availability,1,");
  ASSERT_NE(pos, std::string::npos);
  const std::string row = csv.substr(pos, csv.find('\n', pos) - pos);
  EXPECT_NE(row.find(",,,"), std::string::npos) << row;
}

TEST(Report, SummariesStayDefinedAndFiniteForMultiRunCampaigns) {
  const campaign::ScenarioFactory factory(small_scenario());
  const auto result = campaign::run_campaign(factory, small_campaign(3, 1));
  const auto doc = sesame::eddi::ode::parse_json(campaign::campaign_json(result));
  for (const auto& row : doc.at("summary").as_array()) {
    if (row.at("count").as_number() < 2.0) continue;
    EXPECT_TRUE(row.at("stddev").is_number())
        << row.at("metric").as_string();
    EXPECT_TRUE(row.at("ci95_lo").is_number());
    EXPECT_TRUE(row.at("ci95_hi").is_number());
  }
}

TEST(ScenarioFactory, ChaosPresetIsRegistered) {
  const auto names = campaign::ScenarioFactory::preset_names();
  bool found = false;
  for (const auto& n : names) found = found || n == "chaos";
  EXPECT_TRUE(found);
  const auto preset = campaign::ScenarioFactory::preset("chaos");
  EXPECT_TRUE(preset.chaos_enabled());
  EXPECT_TRUE(preset.base().recovery_enabled);
  EXPECT_TRUE(preset.config_for_run(1, 0).failure_schedule.has_value());
}
