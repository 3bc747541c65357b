// Fleet-scale world stepping: how fast does sim::World advance N vehicles?
//
// The struct-of-arrays fleet state plus the phase-split step (batched
// guidance, then per-vehicle integration) is what lets a 1,000-vehicle
// fleet step faster than real time on one core; these benches measure
// exactly that. `BM_FleetStep/<N>` sweeps N = 4 → 1024 and reports both
// steps/s (items_per_second — the number the CI bench-smoke job gates on
// against BENCH_fleet_scaling.json) and sim-seconds per wall second
// (`sim_x_realtime`; ≥ 1 at N = 1024 in a Release build is the acceptance
// floor). BM_FleetNeighborSweep adds the grid-backed proximity query every
// vehicle runs per platform tick, replacing the old all-pairs scan.
// BM_FleetRunnerTick times the whole platform tick instead: the
// `fleet_1024` campaign preset's MissionRunner with observability attached,
// whose bus fan-out to the state database and recovery watchdogs costs
// several times the world step. BM_FleetRunnerTickDetached runs the same
// with nothing attached; the ratio of the two is the cost of observing the
// run. Both are recorded, not gated.
//
//   bench_fleet_scaling --json fleet.json    # machine-readable results
//
// See docs/PERFORMANCE.md for the measurement methodology.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>

#include "bench_json.hpp"
#include "sesame/campaign/scenario_factory.hpp"
#include "sesame/geo/geodesy.hpp"
#include "sesame/obs/observability.hpp"
#include "sesame/sim/uav.hpp"
#include "sesame/sim/world.hpp"

namespace {

using namespace sesame;

const geo::GeoPoint kOrigin{35.1856, 33.3823, 0.0};
constexpr double kDtS = 1.0;

/// Builds an airborne fleet of `n` vehicles spread along the southern edge
/// of an n-scaled area, each flying a long northbound leg (so every bench
/// iteration exercises the mission-guidance path, not the hover path).
void spawn_fleet(sim::World& world, std::size_t n) {
  const double width_m = 100.0 * static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    sim::UavConfig uc;
    uc.name = "uav" + std::to_string(i + 1);
    const double east = (static_cast<double>(i) + 0.5) * width_m /
                        static_cast<double>(n);
    const geo::EnuPoint home{east, -20.0, 0.0};
    const std::size_t ix = world.add_uav(uc, world.frame().to_geo(home));
    sim::Uav& uav = world.uav(ix);
    uav.add_waypoint({east, 4000.0, uc.mission_altitude_m});
    uav.add_waypoint({east, 0.0, uc.mission_altitude_m});
    uav.command_takeoff();
  }
  // Lift through the takeoff transient so the steady state is Mission.
  for (int warm = 0; warm < 20; ++warm) world.step(kDtS);
}

/// One world step across the whole fleet: plan + integrate + telemetry.
void BM_FleetStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::World world(kOrigin, 42);
  spawn_fleet(world, n);
  for (auto _ : state) {
    world.step(kDtS);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sim_x_realtime"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kDtS,
      benchmark::Counter::kIsRate);
  state.counters["uavs"] = static_cast<double>(n);
}
BENCHMARK(BM_FleetStep)->Arg(4)->Arg(32)->Arg(256)->Arg(1024);

/// World step plus the per-vehicle proximity query the platform layer runs
/// every tick (collaborative-localization availability, 250 m radius) —
/// grid-backed instead of the all-pairs scan.
void BM_FleetNeighborSweep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::World world(kOrigin, 42);
  spawn_fleet(world, n);
  std::uint64_t neighbors = 0;
  for (auto _ : state) {
    world.step(kDtS);
    for (std::size_t i = 0; i < n; ++i) {
      neighbors += world.has_neighbor_within(i, 250.0, /*airborne_only=*/true)
                       ? 1u
                       : 0u;
    }
  }
  benchmark::DoNotOptimize(neighbors);
  state.SetItemsProcessed(state.iterations());
  state.counters["uavs"] = static_cast<double>(n);
}
BENCHMARK(BM_FleetNeighborSweep)->Arg(4)->Arg(32)->Arg(256)->Arg(1024);

/// One platform tick of a `fleet_1024` campaign run (1,024 vehicles, chaos
/// failures, recovery, the full C2 fan-out). An iteration is one whole run
/// of campaign seed 1, run 0; runner set-up and teardown are outside the
/// timed region. Reports ticks per wall-clock second and `ms_per_tick`.
void run_fleet_ticks(benchmark::State& state, bool observed) {
  const auto factory = campaign::ScenarioFactory::preset("fleet_1024");
  double ticks = 0.0;
  double seconds = 0.0;
  for (auto _ : state) {
    obs::Observability o;
    const auto runner = factory.make_runner(/*campaign_seed=*/1, /*run=*/0);
    if (observed) runner->attach_observability(o);
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = runner->run();
    const double run_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    benchmark::DoNotOptimize(result);
    state.SetIterationTime(run_s);
    seconds += run_s;
    ticks += std::round(result.total_time_s / factory.base().dt_s);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ticks));
  state.counters["ms_per_tick"] = ticks > 0.0 ? 1000.0 * seconds / ticks : 0.0;
  state.counters["uavs"] = 1024.0;
}

/// Metrics and tracing attached, as campaigns attach them.
void BM_FleetRunnerTick(benchmark::State& state) {
  run_fleet_ticks(state, /*observed=*/true);
}
BENCHMARK(BM_FleetRunnerTick)
    ->UseManualTime()
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

/// The same run with nothing attached. BM_FleetRunnerTick over this is
/// what observing a 1,024-vehicle run costs.
void BM_FleetRunnerTickDetached(benchmark::State& state) {
  run_fleet_ticks(state, /*observed=*/false);
}
BENCHMARK(BM_FleetRunnerTickDetached)
    ->UseManualTime()
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return sesame::bench::run_main(argc, argv);
}
