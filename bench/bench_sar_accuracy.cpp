// Reproduces paper Section V-B: "Search and Rescue Accuracy Results".
//
// The paper's narrative: at high altitude the combined uncertainty from
// SafeML + DeepKnowledge + SINADRA exceeds the 90% threshold; the ConSert
// layer commands a descent; at the lower altitude the uncertainty falls to
// ~75% and the SAR algorithm's accuracy reaches 99.8%. Without SESAME the
// uncertainty is never addressed and accuracy stays low.
//
// This bench sweeps mission altitude, prints the uncertainty and detection
// accuracy per altitude (the monotone relationship behind the result),
// then runs the full adaptive scenario with and without SESAME.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cstdio>

#include "sesame/platform/mission_runner.hpp"

namespace {

using namespace sesame;

platform::RunnerConfig vb_config(bool sesame_on, double altitude_m) {
  platform::RunnerConfig cfg;
  cfg.sesame_enabled = sesame_on;
  cfg.n_uavs = 3;
  cfg.area = {0.0, 240.0, 0.0, 240.0};
  cfg.coverage.altitude_m = altitude_m;
  cfg.coverage.lane_spacing_m = 30.0;
  cfg.n_persons = 10;
  cfg.max_time_s = 1200.0;
  cfg.descend_altitude_m = 18.0;
  cfg.seed = 17;
  return cfg;
}

/// Steady-state SAR uncertainty and detection accuracy at one altitude,
/// measured on a non-adaptive run (descend adaptation disabled by making
/// the patience unreachably large).
struct AltitudePoint {
  double uncertainty = 0.0;
  double detection_accuracy = 0.0;
  double recall = 0.0;
};

AltitudePoint measure_altitude(double altitude_m) {
  auto cfg = vb_config(true, altitude_m);
  cfg.descend_patience = 1 << 20;  // never descend: isolate the altitude
  platform::MissionRunner runner(cfg);
  const auto result = runner.run();
  AltitudePoint p;
  // Mean reported uncertainty over the mission (once monitors are warm).
  double acc = 0.0;
  std::size_t n = 0;
  for (const auto& [name, series] : result.series) {
    (void)name;
    for (const auto& r : series) {
      if (r.time_s > 80.0 && r.mode == sim::FlightMode::kMission) {
        acc += r.sar_uncertainty;
        ++n;
      }
    }
  }
  p.uncertainty = n ? acc / static_cast<double>(n) : 1.0;
  // The deterministic detector accuracy at this altitude (the quantity the
  // paper quotes as "algorithmic accuracy").
  perception::PersonDetector detector{perception::DetectorConfig{}};
  p.detection_accuracy = detector.detection_probability(altitude_m);
  p.recall = result.detection.recall();
  return p;
}

void report() {
  std::printf("==============================================================\n");
  std::printf("Section V-B — Search and Rescue Accuracy\n");
  std::printf("==============================================================\n");

  std::printf("\nAltitude sweep (uncertainty is the SafeML+DeepKnowledge+"
              "SINADRA combination, threshold 90%%):\n");
  std::printf("%-14s %-18s %-20s %s\n", "altitude (m)", "uncertainty (%)",
              "det. accuracy (%)", "over threshold?");
  for (double alt : {15.0, 20.0, 30.0, 40.0, 50.0, 60.0}) {
    const auto p = measure_altitude(alt);
    std::printf("%-14.0f %-18.1f %-20.2f %s\n", alt, 100.0 * p.uncertainty,
                100.0 * p.detection_accuracy,
                p.uncertainty > 0.90 ? "YES -> descend" : "no");
  }

  // Full adaptive scenario: start high; SESAME descends, baseline stays.
  auto sesame = platform::MissionRunner(vb_config(true, 55.0)).run();
  auto baseline = platform::MissionRunner(vb_config(false, 55.0)).run();

  // Post-descend uncertainty in the SESAME run.
  double low_alt_unc = 0.0;
  std::size_t n = 0;
  for (const auto& [name, series] : sesame.series) {
    (void)name;
    for (const auto& r : series) {
      if (r.mode == sim::FlightMode::kMission && r.altitude_m < 25.0) {
        low_alt_unc += r.sar_uncertainty;
        ++n;
      }
    }
  }
  if (n) low_alt_unc /= static_cast<double>(n);

  perception::PersonDetector detector{perception::DetectorConfig{}};
  std::printf("\n%-44s %-12s %s\n", "metric", "paper", "measured");
  std::printf("%-44s %-12s %s\n", "high-altitude uncertainty > 90%", "yes",
              measure_altitude(55.0).uncertainty > 0.90 ? "yes" : "no");
  std::printf("%-44s %-12s %s\n", "SESAME descends to low altitude", "yes",
              sesame.descended ? "yes" : "no");
  std::printf("%-44s %-12s %.1f %%\n", "uncertainty after descending", "~75 %",
              100.0 * low_alt_unc);
  std::printf("%-44s %-12s %.2f %%\n", "SAR accuracy after descending",
              "99.8 %", 100.0 * detector.detection_probability(18.0));
  std::printf("%-44s %-12s %.1f %%\n", "mission recall with SESAME", "high",
              100.0 * sesame.detection.recall());
  std::printf("%-44s %-12s %.1f %%\n", "mission recall without SESAME", "lower",
              100.0 * baseline.detection.recall());
  std::printf("\nShape checks: SESAME recall >= baseline recall: %s | "
              "descend fired: %s | post-descend uncertainty < 90%%: %s\n\n",
              bench::shape_check(
                  "SESAME recall >= baseline recall",
                  sesame.detection.recall() >= baseline.detection.recall()),
              bench::shape_check("descend fired", sesame.descended),
              bench::shape_check("post-descend uncertainty < 90%",
                                 n > 0 && low_alt_unc < 0.90));
}

void BM_UncertaintyPipelineTick(benchmark::State& state) {
  mathx::Rng rng(3);
  perception::PersonDetector detector{perception::DetectorConfig{}};
  std::vector<std::vector<double>> reference(
      perception::FrameFeatures::kNumFeatures);
  for (int i = 0; i < 400; ++i) {
    const auto v = detector.frame_features(18.0, rng).as_vector();
    for (std::size_t k = 0; k < v.size(); ++k) reference[k].push_back(v[k]);
  }
  eddi::UavEddi uav_eddi("bench", {}, reference);
  eddi::EddiInputs in;
  for (auto _ : state) {
    in.frame_features = detector.frame_features(40.0, rng).as_vector();
    benchmark::DoNotOptimize(uav_eddi.tick(in));
  }
}
BENCHMARK(BM_UncertaintyPipelineTick);

void BM_SinadraAssessment(benchmark::State& state) {
  sinadra::SarRiskModel model;
  sinadra::SituationEvidence e;
  e.altitude = sinadra::AltitudeBand::kHigh;
  e.safeml = sinadra::PerceptionConfidence::kLow;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.assess(e));
  }
}
BENCHMARK(BM_SinadraAssessment);

}  // namespace

int main(int argc, char** argv) {
  report();
  return sesame::bench::run_main(argc, argv);
}
