// Ablation D — sweep-lane spacing vs area coverage, mission time and
// detection recall.
//
// The platform's coverage planner must trade mission duration against
// gap-free imaging: lanes wider than the camera footprint finish faster
// but leave unscanned corridors where persons are missed. This ablation
// quantifies that trade-off and locates the knee (lane spacing == footprint
// width), validating the default configuration used by the Fig. 4/Fig. 5
// scenarios. A second sweep varies the fleet size at fixed spacing — the
// paper's core multi-UAV claim that more vehicles cut response time.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cstdio>

#include "sesame/platform/mission_runner.hpp"

namespace {

using namespace sesame;

struct Outcome {
  double coverage = 0.0;
  double recall = 0.0;
  double time_s = 0.0;
};

Outcome run_with(double lane_spacing_m, std::size_t n_uavs) {
  platform::RunnerConfig cfg;
  cfg.sesame_enabled = true;
  cfg.n_uavs = n_uavs;
  cfg.area = {0.0, 240.0, 0.0, 240.0};
  cfg.coverage.altitude_m = 20.0;  // footprint ~27 m wide
  cfg.coverage.lane_spacing_m = lane_spacing_m;
  cfg.n_persons = 12;
  cfg.max_time_s = 1500.0;
  cfg.seed = 23;
  platform::MissionRunner runner(cfg);
  const auto r = runner.run();
  Outcome o;
  o.coverage = r.area_coverage;
  o.recall = r.detection.recall();
  o.time_s = r.mission_complete_time_s.value_or(cfg.max_time_s);
  return o;
}

void report() {
  std::printf("==============================================================\n");
  std::printf("Ablation D — lane spacing & fleet size vs coverage/time\n");
  std::printf("==============================================================\n");

  std::printf("\nLane-spacing sweep (3 UAVs, 20 m altitude, footprint ~27 m):\n");
  std::printf("%-18s %-14s %-12s %s\n", "lane spacing (m)", "coverage (%)",
              "recall (%)", "mission time (s)");
  for (double spacing : {15.0, 25.0, 35.0, 50.0, 70.0}) {
    const auto o = run_with(spacing, 3);
    std::printf("%-18.0f %-14.1f %-12.1f %.0f\n", spacing, 100.0 * o.coverage,
                100.0 * o.recall, o.time_s);
  }
  std::printf("Expected shape: coverage ~100%% while spacing <= footprint "
              "width, dropping beyond; mission time falls with spacing.\n");

  std::printf("\nFleet-size sweep (25 m lanes):\n");
  std::printf("%-10s %-14s %-12s %s\n", "UAVs", "coverage (%)", "recall (%)",
              "mission time (s)");
  double prev_time = 1e18;
  bool monotone = true;
  for (std::size_t n : {1, 2, 3, 4}) {
    const auto o = run_with(25.0, n);
    std::printf("%-10zu %-14.1f %-12.1f %.0f\n", n, 100.0 * o.coverage,
                100.0 * o.recall, o.time_s);
    if (o.time_s > prev_time + 1e-9) monotone = false;
    prev_time = o.time_s;
  }
  std::printf("\nShape check: mission time monotone decreasing in fleet "
              "size: %s\n\n",
              sesame::bench::shape_check("mission time falls with fleet size",
                                         monotone));
}

void BM_MissionVsFleetSize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_with(30.0, n));
  }
}
BENCHMARK(BM_MissionVsFleetSize)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  report();
  return sesame::bench::run_main(argc, argv);
}
