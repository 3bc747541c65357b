// Report-byte pins for the platform paths that redistribute work: task
// redistribution through the ConSert network, fleet recovery (escalation,
// loss, coverage re-plan) and the spoofing response.
//
// Each case runs a short campaign at --jobs 1 and 4 and pins the FNV-1a 64
// digest of its campaign_json bytes. The digests were recorded before
// MissionRunner moved from name-keyed to fleet-index bookkeeping; any
// refactor of the tick loop must reproduce them bit for bit. The
// non-vacuity checks make sure each pinned path actually ran.
//
// The ConfigPins cases pin the scenario-config JSON bytes and the service
// cache digest derived from them.
//
// The TracePins cases pin what campaign reports leave out: one run's
// ConSert assurance trace (its ODE document) and its per-vehicle series
// CSV, so a change to ConSert evaluation cannot hide behind the report
// aggregates.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sesame/campaign/campaign.hpp"
#include "sesame/campaign/report.hpp"
#include "sesame/eddi/consert_ode.hpp"
#include "sesame/mw/fault_plan.hpp"
#include "sesame/platform/config_io.hpp"
#include "sesame/platform/report.hpp"
#include "sesame/sim/failure_schedule.hpp"
#include "sesame/service/submission.hpp"

namespace campaign = sesame::campaign;
namespace platform = sesame::platform;

namespace {

/// The pins define their own scenarios, so a fault plan named by the
/// SESAME_FAULT_PLAN hook (the CI fault-stress job runs every binary under
/// one) must not reach them. Unset for this binary's tests, restored after.
class WithoutEnvironmentFaultPlan : public ::testing::Environment {
 public:
  void SetUp() override {
    if (const char* path = std::getenv("SESAME_FAULT_PLAN")) {
      saved_ = path;
      ::unsetenv("SESAME_FAULT_PLAN");
    }
  }
  void TearDown() override {
    if (saved_) ::setenv("SESAME_FAULT_PLAN", saved_->c_str(), 1);
  }

 private:
  std::optional<std::string> saved_;
};

const auto* const kWithoutEnvironmentFaultPlan =
    ::testing::AddGlobalTestEnvironment(new WithoutEnvironmentFaultPlan);

struct PinnedRun {
  std::string report;
  std::size_t uavs_lost = 0;
  std::size_t recovery_replans = 0;
  std::size_t waypoints_redistributed = 0;
};

/// Runs the campaign at --jobs 1 and 4, checks the two reports agree, and
/// returns the --jobs 1 report with its outcome totals.
PinnedRun run_pinned(const campaign::ScenarioFactory& factory,
                     std::size_t runs) {
  PinnedRun pinned;
  for (const std::size_t jobs : {1u, 4u}) {
    campaign::CampaignConfig cc;
    cc.runs = runs;
    cc.jobs = jobs;
    cc.seed = 2026;
    const auto result = campaign::run_campaign(factory, cc);
    const std::string report = campaign::campaign_json(result);
    if (jobs == 1) {
      pinned.report = report;
      for (const auto& o : result.outcomes) {
        pinned.uavs_lost += o.uavs_lost;
        pinned.recovery_replans += o.recovery_replans;
        pinned.waypoints_redistributed += o.waypoints_redistributed;
      }
    } else {
      EXPECT_EQ(report, pinned.report) << "--jobs " << jobs;
    }
  }
  return pinned;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void expect_pinned(const PinnedRun& run, std::uint64_t digest) {
  EXPECT_EQ(hex(sesame::service::fnv1a64(run.report)), hex(digest));
}

}  // namespace

TEST(ReportPins, Baseline) {
  const auto run =
      run_pinned(campaign::ScenarioFactory::preset("baseline"), 3);
  expect_pinned(run, 0x96c96170252b1ea1ULL);
}

TEST(ReportPins, BatteryFault) {
  const auto run =
      run_pinned(campaign::ScenarioFactory::preset("battery_fault"), 3);
  expect_pinned(run, 0x807cffedc24fdeb7ULL);
}

TEST(ReportPins, VehicleFaultsRedistributeThroughConSerts) {
  // Battery-heavy chaos without silencing faults (no comms blackouts, no
  // crashes): the recovery escalation never trips, so every redistributed
  // waypoint went through the ConSert dropped-out path.
  sesame::sim::ChaosProfile profile;
  profile.max_events_per_uav = 3;
  profile.weights[2] = 3.0;  // battery
  profile.weights[3] = 0.0;  // comms blackout
  profile.weights[4] = 0.0;  // hard crash
  campaign::ScenarioFactory factory(
      campaign::ScenarioFactory::default_scenario());
  factory.enable_chaos(profile);
  const auto run = run_pinned(factory, 4);
  expect_pinned(run, 0x9335a4ea50fad028ULL);
  EXPECT_GT(run.waypoints_redistributed, 0u);
  EXPECT_EQ(run.uavs_lost, 0u);
  EXPECT_EQ(run.recovery_replans, 0u);
}

TEST(ReportPins, SpoofingResponse) {
  const auto run =
      run_pinned(campaign::ScenarioFactory::preset("spoofing"), 3);
  expect_pinned(run, 0xfd0fa989d86dab80ULL);
  EXPECT_GT(run.waypoints_redistributed, 0u);
}

TEST(ReportPins, ChaosRecoveryWithConSerts) {
  const auto run = run_pinned(campaign::ScenarioFactory::preset("chaos"), 4);
  expect_pinned(run, 0x30c2d586b55246b9ULL);
  EXPECT_GT(run.uavs_lost, 0u);
  EXPECT_GT(run.recovery_replans, 0u);
}

TEST(ReportPins, ReducedFleetRecovery) {
  // fleet_1024 shrunk to 64 vehicles and 150 s: baseline firmware under
  // chaos, so every re-plan is the recovery path's declare-lost hand-over.
  platform::RunnerConfig scenario =
      campaign::ScenarioFactory::default_scenario();
  scenario.sesame_enabled = false;
  scenario.n_uavs = 64;
  scenario.area = {0.0, 1000.0, 0.0, 1000.0};
  scenario.n_persons = 16;
  scenario.max_time_s = 150.0;
  campaign::ScenarioFactory factory(scenario);
  factory.enable_chaos();
  const auto run = run_pinned(factory, 2);
  expect_pinned(run, 0xbb99611643c31869ULL);
  EXPECT_GT(run.uavs_lost, 0u);
  EXPECT_GT(run.recovery_replans, 0u);
  EXPECT_GT(run.waypoints_redistributed, 0u);
}

// Scenario-config bytes and service cache digests. config_to_json's bytes
// feed every service cache key, so any change to the config writer, the
// number formatter or a preset shows up here first. Recorded before the
// config reader and writer moved onto one field list.

TEST(ConfigPins, PresetConfigBytes) {
  const std::vector<std::pair<std::string, std::uint64_t>> pins = {
      {"nominal", 0x248cb437a12def8eULL},
      {"battery_fault", 0xaba72990bdf96fe5ULL},
      {"spoofing", 0x8e31d11b4f246213ULL},
      {"spoofing_lossy", 0x3441518ab216eefaULL},
      {"baseline", 0x36cc518a1fb6316fULL},
      {"chaos", 0xc134f550aa77721fULL},
      {"fleet_1024", 0xf8eeeb7798c55660ULL},
  };
  ASSERT_EQ(pins.size(), campaign::ScenarioFactory::preset_names().size());
  for (const auto& [preset, digest] : pins) {
    const std::string bytes =
        platform::config_to_json(
            campaign::ScenarioFactory::preset(preset).base())
            .to_json();
    EXPECT_EQ(hex(sesame::service::fnv1a64(bytes)), hex(digest)) << preset;
  }
}

TEST(ConfigPins, EveryOptionalSection) {
  platform::RunnerConfig config = campaign::ScenarioFactory::default_scenario();
  config.battery_fault = platform::BatteryFaultEvent{"uav2", 250.5, 0.4, 70.0};
  config.spoofing = platform::SpoofingEvent{"uav1", 60.0, 2.25};
  config.failure_schedule = sesame::sim::FailureSchedule::chaos(
      9, {"uav1", "uav2", "uav3"});
  sesame::mw::FaultPlan plan = sesame::mw::FaultPlan::telemetry_stress();
  plan.seed = 1337;
  sesame::mw::FaultRule rule;
  rule.topic_prefix = "uav/uav1/";
  rule.source = "attacker";
  rule.start_time_s = 60.0;
  rule.stop_time_s = 120.5;
  rule.drop_probability = 1.0 / 3.0;
  rule.delay_steps = 3;
  rule.reorder = true;
  plan.rules.push_back(rule);
  config.fault_plan = plan;
  config.recovery_enabled = true;
  config.seed = 123456789;
  const std::string bytes = platform::config_to_json(config).to_json();
  EXPECT_EQ(hex(sesame::service::fnv1a64(bytes)), hex(0x4baaa66fdf342652ULL));
  // The reader takes back exactly what the writer wrote.
  EXPECT_EQ(platform::config_to_json(platform::config_from_json(
                                         sesame::eddi::ode::parse_json(bytes)))
                .to_json(),
            bytes);
}

TEST(ConfigPins, SubmissionDigestPerPreset) {
  const std::vector<std::pair<std::string, std::uint64_t>> pins = {
      {"nominal", 0x82a0cbc258ba2fb5ULL},
      {"battery_fault", 0x945945e0f86f2adeULL},
      {"spoofing", 0x85f21de5e4a8c27fULL},
      {"spoofing_lossy", 0x37fe3b0af5bf2349ULL},
      {"baseline", 0xe98bfb5a62629d6bULL},
      {"chaos", 0x6fbd7fde73d1304fULL},
      {"fleet_1024", 0xcf235e5788487e1aULL},
  };
  ASSERT_EQ(pins.size(), campaign::ScenarioFactory::preset_names().size());
  for (const auto& [preset, digest] : pins) {
    sesame::service::Submission s;
    s.preset = preset;
    s.runs = 4;
    s.seed = 2026;
    EXPECT_EQ(hex(sesame::service::resolve(s).digest), hex(digest)) << preset;
  }
}

// One run per SESAME preset: the assurance-trace ODE bytes and the series
// CSV bytes. Recorded before ConSert evaluation moved to a compiled plan.
// The default 300 m sweep ends at about t=267 s, so the battery fault is
// moved to t=80 s to land inside the mission, and the chaos and lossy
// cases take the run index whose trace differs from the nominal one.

namespace {

struct TracePin {
  std::uint64_t trace;
  std::uint64_t series;
};

void expect_trace_pinned(const campaign::ScenarioFactory& factory,
                         std::uint64_t run_index, TracePin pin) {
  const platform::RunnerResult result =
      factory.make_runner(2026, run_index)->run();
  EXPECT_FALSE(result.assurance_trace.empty());
  const std::string trace =
      sesame::eddi::assurance_trace_to_ode(result.assurance_trace).to_json();
  std::ostringstream series;
  platform::write_series_csv(result, series);
  EXPECT_EQ(hex(sesame::service::fnv1a64(trace)), hex(pin.trace));
  EXPECT_EQ(hex(sesame::service::fnv1a64(series.str())), hex(pin.series));
}

}  // namespace

TEST(TracePins, Nominal) {
  expect_trace_pinned(campaign::ScenarioFactory::preset("nominal"), 0,
                      {0x3c27fb3d5b18ea66ULL, 0xb5f474e3c2ee9a38ULL});
}

TEST(TracePins, BatteryFault) {
  auto factory = campaign::ScenarioFactory::preset("battery_fault");
  factory.base().battery_fault->time_s = 80.0;
  expect_trace_pinned(factory, 0,
                      {0x4ec0eb597e323997ULL, 0x5751c214a333db60ULL});
}

TEST(TracePins, Spoofing) {
  expect_trace_pinned(campaign::ScenarioFactory::preset("spoofing"), 0,
                      {0x0ce4522b3845a520ULL, 0x659202f584020f71ULL});
}

TEST(TracePins, SpoofingLossy) {
  expect_trace_pinned(campaign::ScenarioFactory::preset("spoofing_lossy"), 1,
                      {0x0451698d139b1583ULL, 0xbc8032c0b6d396e7ULL});
}

TEST(TracePins, Chaos) {
  // Run 1 loses a vehicle and re-plans its waypoints.
  expect_trace_pinned(campaign::ScenarioFactory::preset("chaos"), 1,
                      {0x1e5dde63b7b5571dULL, 0xf2d3dac0dff30994ULL});
}
