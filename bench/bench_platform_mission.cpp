// End-to-end platform benchmark (paper Fig. 4): the complete 3-UAV SAR
// mission with every EDDI attached, with-vs-without SESAME, plus the
// runtime overhead the SESAME stack adds per simulated second — the
// integration-cost number an adopter of the platform would ask for.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_json.hpp"
#include "sesame/obs/observability.hpp"
#include "sesame/platform/mission_runner.hpp"

namespace {

using namespace sesame;

platform::RunnerConfig mission_config(bool sesame_on) {
  platform::RunnerConfig cfg;
  cfg.sesame_enabled = sesame_on;
  cfg.n_uavs = 3;
  cfg.area = {0.0, 300.0, 0.0, 300.0};
  cfg.coverage.altitude_m = 20.0;
  cfg.coverage.lane_spacing_m = 30.0;
  cfg.n_persons = 8;
  cfg.max_time_s = 1200.0;
  return cfg;
}

void report() {
  std::printf("==============================================================\n");
  std::printf("Platform — full 3-UAV SAR mission (Fig. 4 integration)\n");
  std::printf("==============================================================\n");

  const auto with = platform::MissionRunner(mission_config(true)).run();
  const auto without = platform::MissionRunner(mission_config(false)).run();

  std::printf("\n%-34s %-16s %s\n", "metric", "SESAME", "baseline");
  std::printf("%-34s %-16.0f %.0f\n", "mission completion (s)",
              with.mission_complete_time_s.value_or(-1),
              without.mission_complete_time_s.value_or(-1));
  std::printf("%-34s %-16.1f %.1f\n", "fleet availability (%)",
              100.0 * with.availability, 100.0 * without.availability);
  std::printf("%-34s %-16zu %zu\n", "persons found", with.detection.persons_found,
              without.detection.persons_found);
  std::printf("%-34s %-16.1f %.1f\n", "detection recall (%)",
              100.0 * with.detection.recall(),
              100.0 * without.detection.recall());
  std::printf("%-34s %-16.1f %.1f\n", "detection precision (%)",
              100.0 * with.detection.precision(),
              100.0 * without.detection.precision());
  std::printf("%-34s %-16s %s\n", "final mission decision",
              conserts::mission_decision_name(with.final_decision).c_str(),
              conserts::mission_decision_name(without.final_decision).c_str());
  std::printf("\nShape check: both complete and SESAME recall >= baseline: "
              "%s\n",
              bench::shape_check(
                  "both complete and SESAME recall >= baseline",
                  with.mission_complete_time_s &&
                      without.mission_complete_time_s &&
                      with.detection.recall() >=
                          without.detection.recall() - 1e-9));

  // Combined-adversity run: spoofing attack mid-mission, full response
  // pipeline (detection -> GPS distrust -> task redistribution -> CL safe
  // landing) inside the platform loop.
  auto attack_cfg = mission_config(true);
  attack_cfg.spoofing = platform::SpoofingEvent{"uav1", 50.0, 2.0};
  const auto attacked = platform::MissionRunner(attack_cfg).run();
  std::printf("\nSpoofing-attack mission (SESAME response pipeline):\n");
  std::printf("%-40s %s\n", "attack detected",
              attacked.attack_detected ? "yes" : "NO");
  std::printf("%-40s %.0f s\n", "detection latency after onset",
              attacked.attack_detection_time_s - 50.0);
  std::printf("%-40s %zu\n", "waypoints redistributed",
              attacked.waypoints_redistributed);
  std::printf("%-40s %.1f m\n", "victim safe-landing error",
              attacked.spoofed_uav_landing_error_m);
  std::printf("%-40s %s\n", "mission still completed",
              attacked.mission_complete_time_s ? "yes" : "NO");
  std::printf("\nShape check: attack handled and mission completed: %s\n\n",
              bench::shape_check(
                  "attack handled and mission completed",
                  attacked.attack_detected &&
                      attacked.spoofed_uav_landing_error_m >= 0.0 &&
                      attacked.spoofed_uav_landing_error_m < 15.0 &&
                      attacked.mission_complete_time_s.has_value()));
}

void BM_MissionWithSesame(benchmark::State& state) {
  for (auto _ : state) {
    platform::MissionRunner runner(mission_config(true));
    benchmark::DoNotOptimize(runner.run());
  }
}
BENCHMARK(BM_MissionWithSesame)->Unit(benchmark::kMillisecond);

// Observability overhead: the same mission with the full metrics registry
// attached and every span/event delivered to a sink that discards them —
// the acceptance bar is < 5% regression vs BM_MissionWithSesame.
struct NullSink final : obs::TraceSink {
  void consume(const obs::TraceEvent&) override {}
};

void BM_MissionWithSesameObserved(benchmark::State& state) {
  NullSink sink;
  for (auto _ : state) {
    obs::Observability o;
    o.tracer.set_sink(&sink);
    platform::MissionRunner runner(mission_config(true));
    runner.attach_observability(o);
    benchmark::DoNotOptimize(runner.run());
  }
}
BENCHMARK(BM_MissionWithSesameObserved)->Unit(benchmark::kMillisecond);

void BM_MissionBaseline(benchmark::State& state) {
  for (auto _ : state) {
    platform::MissionRunner runner(mission_config(false));
    benchmark::DoNotOptimize(runner.run());
  }
}
BENCHMARK(BM_MissionBaseline)->Unit(benchmark::kMillisecond);

void BM_WorldStepOnly(benchmark::State& state) {
  const geo::GeoPoint origin{35.1856, 33.3823, 0.0};
  sim::World world(origin, 1);
  for (int i = 0; i < 3; ++i) {
    sim::UavConfig cfg;
    cfg.name = "uav" + std::to_string(i);
    world.add_uav(cfg, origin);
    world.uav(static_cast<std::size_t>(i)).command_takeoff();
  }
  for (auto _ : state) {
    world.step(1.0);
  }
}
BENCHMARK(BM_WorldStepOnly);

}  // namespace

int main(int argc, char** argv) {
  report();
  return sesame::bench::run_main(argc, argv);
}
