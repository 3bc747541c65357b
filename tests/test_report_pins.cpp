// Report-byte pins for the platform paths that redistribute work: task
// redistribution through the ConSert network, fleet recovery (escalation,
// loss, coverage re-plan) and the spoofing response.
//
// Each case runs a short campaign at --jobs 1 and 4 and pins the FNV-1a 64
// digest of its campaign_json bytes. The digests were recorded before
// MissionRunner moved from name-keyed to fleet-index bookkeeping; any
// refactor of the tick loop must reproduce them bit for bit. The
// non-vacuity checks make sure each pinned path actually ran.
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "sesame/campaign/campaign.hpp"
#include "sesame/campaign/report.hpp"
#include "sesame/service/submission.hpp"

namespace campaign = sesame::campaign;
namespace platform = sesame::platform;

namespace {

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
