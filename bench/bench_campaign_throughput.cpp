// Campaign throughput: Monte Carlo runs/second vs. worker-pool size.
//
// The campaign layer is the batching surface every later performance PR is
// measured on; this bench records how scenario-run throughput scales with
// --jobs on the host. Each iteration executes a fixed small campaign (the
// baseline arm keeps per-run cost dominated by simulation, not monitor
// calibration) and reports runs/sec as a counter, so
//   bench_campaign_throughput --benchmark_counters_tabular=true
// prints a thread-scaling table directly, and
//   bench_campaign_throughput --json out.json
// writes the machine-readable report the committed
// BENCH_campaign_throughput.json baseline is regenerated from (see
// docs/PERFORMANCE.md).
#include <benchmark/benchmark.h>

#include "bench_json.hpp"
#include "sesame/campaign/campaign.hpp"

namespace {

using namespace sesame;

platform::RunnerConfig small_scenario(bool sesame_on) {
  platform::RunnerConfig config = campaign::ScenarioFactory::default_scenario();
  config.n_uavs = 2;
  config.area = {0.0, 150.0, 0.0, 150.0};
  config.n_persons = 3;
  config.max_time_s = 200.0;
  config.sesame_enabled = sesame_on;
  return config;
}

void bench_campaign(benchmark::State& state, bool sesame_on) {
  const campaign::ScenarioFactory factory(small_scenario(sesame_on));
  campaign::CampaignConfig config;
  config.runs = 16;
  config.jobs = static_cast<std::size_t>(state.range(0));
  config.seed = 42;
  config.collect_metrics = true;

  std::size_t runs_done = 0;
  for (auto _ : state) {
    const auto result = campaign::run_campaign(factory, config);
    benchmark::DoNotOptimize(result.summaries.data());
    runs_done += result.runs;
  }
  state.counters["runs_per_s"] = benchmark::Counter(
      static_cast<double>(runs_done), benchmark::Counter::kIsRate);
  state.counters["jobs"] = static_cast<double>(config.jobs);
}

void BM_CampaignBaseline(benchmark::State& state) {
  bench_campaign(state, /*sesame_on=*/false);
}

void BM_CampaignSesame(benchmark::State& state) {
  bench_campaign(state, /*sesame_on=*/true);
}

}  // namespace

// UseRealTime: the campaign's work runs on its worker threads, so a rate
// over the main thread's CPU time would count the wait as free.
BENCHMARK(BM_CampaignBaseline)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_CampaignSesame)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

int main(int argc, char** argv) {
  return sesame::bench::run_main(argc, argv);
}
