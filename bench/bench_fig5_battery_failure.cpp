// Reproduces paper Fig. 5: "Probability of Failure of a UAV with Battery
// Failure" plus the headline availability numbers of Section V-A.
//
// Scenario: a 3-UAV SAR mission sized so the sweep completes around the
// 510th second. At t=250 s, UAV-2's battery thermally faults (SoC 80% ->
// 40%, cell at 70 C).
//   - Without SESAME (paper red line): the vehicle aborts immediately,
//     returns to base, swaps the pack (60 s) and resumes — availability
//     ~80%, mission finishes late.
//   - With SESAME (paper blue line): SafeDrones' cumulative P(fail) rises
//     after the fault; the vehicle keeps flying until the 0.9 abort
//     threshold, by which time the mission is essentially complete —
//     availability ~91%, ~11% better completion time.
//
// The run prints the P(fail) time series (the figure's y-axis) and the
// paper-vs-measured summary, then google-benchmark times the runtime
// reliability evaluation path.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cstdio>

#include "sesame/platform/mission_runner.hpp"

namespace {

using namespace sesame;

platform::RunnerConfig fig5_config(bool sesame_on) {
  platform::RunnerConfig cfg;
  cfg.sesame_enabled = sesame_on;
  cfg.n_uavs = 3;
  // Sized so the sweep takes roughly 500 s at 8 m/s cruise.
  cfg.area = {0.0, 300.0, 0.0, 620.0};
  cfg.coverage.altitude_m = 20.0;  // at reference altitude: no descend event
  cfg.coverage.lane_spacing_m = 30.0;
  cfg.n_persons = 8;
  cfg.max_time_s = 2000.0;
  cfg.battery_fault = platform::BatteryFaultEvent{"uav2", 250.0, 0.40, 68.5};
  // Paper thresholds: fly on until P(fail) reaches 0.9.
  cfg.eddi.reliability.medium_threshold = 0.30;
  cfg.eddi.reliability.low_threshold = 0.88;
  cfg.eddi.reliability.abort_threshold = 0.90;
  return cfg;
}

void report() {
  std::printf("==============================================================\n");
  std::printf("Fig. 5 — Probability of Failure of a UAV with Battery Failure\n");
  std::printf("==============================================================\n");

  auto with = platform::MissionRunner(fig5_config(true)).run();
  auto without = platform::MissionRunner(fig5_config(false)).run();

  std::printf("\nP(fail) time series of the faulted UAV (SESAME run):\n");
  std::printf("%-8s %-10s %-7s %-9s %s\n", "t (s)", "P(fail)", "SoC",
              "temp(C)", "mode");
  double crossed_09 = -1.0;
  for (const auto& r : with.series.at("uav2")) {
    if (static_cast<long>(r.time_s) % 25 == 0) {
      std::printf("%-8.0f %-10.4f %-7.2f %-9.1f %s\n", r.time_s, r.p_fail,
                  r.soc, r.battery_temp_c,
                  sim::flight_mode_name(r.mode).c_str());
    }
    if (crossed_09 < 0.0 && r.p_fail >= 0.9) crossed_09 = r.time_s;
  }

  const double t_with = with.mission_complete_time_s.value_or(-1.0);
  const double t_without = without.mission_complete_time_s.value_or(-1.0);
  const double improvement =
      (t_without > 0 && t_with > 0) ? 100.0 * (t_without - t_with) / t_without
                                    : 0.0;

  std::printf("\n%-36s %-14s %s\n", "metric", "paper", "measured");
  std::printf("%-36s %-14s %.0f s\n", "fault injection", "250 s", 250.0);
  std::printf("%-36s %-14s %s\n", "P(fail) reaches 0.9 (SESAME)", "~510 s",
              crossed_09 > 0 ? (std::to_string((int)crossed_09) + " s").c_str()
                             : "never (mission ended first)");
  std::printf("%-36s %-14s %.0f s\n", "mission completion (SESAME)", "~510 s",
              t_with);
  std::printf("%-36s %-14s %.0f s\n", "mission completion (baseline)",
              "~later", t_without);
  const double avail_with = with.availability_per_uav.at("uav2");
  const double avail_without = without.availability_per_uav.at("uav2");
  std::printf("%-36s %-14s %.1f %%\n", "faulted-UAV availability (SESAME)",
              "91 %", 100.0 * avail_with);
  std::printf("%-36s %-14s %.1f %%\n", "faulted-UAV availability (baseline)",
              "80 %", 100.0 * avail_without);
  std::printf("%-36s %-14s %.1f %%\n", "mission-time improvement", "11 %",
              improvement);
  std::printf("%-36s %-14s %zu waypoints\n", "task redistribution", "yes",
              with.waypoints_redistributed);
  std::printf("\nShape checks: SESAME availability > baseline: %s | "
              "SESAME completes sooner: %s\n\n",
              bench::shape_check("SESAME availability > baseline",
                                 avail_with > avail_without),
              bench::shape_check(
                  "SESAME completes sooner",
                  t_with > 0 && (t_without < 0 || t_with < t_without)));
}

void BM_ReliabilityEvaluate(benchmark::State& state) {
  safedrones::ReliabilityMonitor monitor;
  safedrones::TelemetrySnapshot snap;
  snap.battery_soc = 0.4;
  snap.battery_temp_c = 70.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.evaluate(snap, 600.0));
  }
}
BENCHMARK(BM_ReliabilityEvaluate);

void BM_BatteryTrackerAdvance(benchmark::State& state) {
  safedrones::BatteryRuntimeTracker tracker;
  tracker.observe_soc(0.4);
  for (auto _ : state) {
    tracker.advance(1.0, 70.0);
    benchmark::DoNotOptimize(tracker.failure_probability());
  }
}
BENCHMARK(BM_BatteryTrackerAdvance);

void BM_Fig5FullScenario(benchmark::State& state) {
  for (auto _ : state) {
    platform::MissionRunner runner(fig5_config(true));
    benchmark::DoNotOptimize(runner.run());
  }
}
BENCHMARK(BM_Fig5FullScenario)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  report();
  return sesame::bench::run_main(argc, argv);
}
