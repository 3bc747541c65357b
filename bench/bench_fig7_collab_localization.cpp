// Reproduces paper Fig. 7: "Collaborative Localization showing how the
// spoofed UAV collaborated with the assisting UAV to safe land for further
// investigation" — the spoofed UAV operates with NO GPS signal and is
// guided to a high-precision landing by assisting UAVs.
//
// Prints the approach track of the affected UAV (distance-to-pad and the
// collaborative fix error over time) and the final landing error, then
// compares against the un-assisted alternative (dead reckoning only).
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cstdio>

#include "sesame/localization/collaborative.hpp"
#include "sesame/sim/world.hpp"

namespace {

using namespace sesame;

const geo::GeoPoint kOrigin{35.1856, 33.3823, 0.0};
const geo::EnuPoint kSafePad{25.0, 25.0, 30.0};

struct LandingOutcome {
  bool landed = false;
  double landing_error_m = 0.0;
  double time_s = 0.0;
  std::size_t fixes = 0;
};

sim::World make_fleet(std::uint64_t seed) {
  sim::World world(kOrigin, seed);
  // Unobserved wind: the dead-reckoning estimator cannot see it, so the
  // GPS-less comparison below is honest about drift.
  world.wind().east_mps = 1.2;
  world.wind().gust_sigma_mps = 0.3;
  for (const char* name : {"affected", "assist1", "assist2"}) {
    sim::UavConfig cfg;
    cfg.name = name;
    world.add_uav(cfg, kOrigin);
  }
  // The affected UAV is mid-mission away from the pad; assistants nearby.
  world.uav_by_name("affected").add_waypoint({150.0, 150.0, 30.0});
  world.uav_by_name("assist1").add_waypoint({120.0, 120.0, 30.0});
  world.uav_by_name("assist2").add_waypoint({180.0, 120.0, 30.0});
  for (std::size_t i = 0; i < world.num_uavs(); ++i) {
    world.uav(i).command_takeoff();
  }
  world.run(45, 1.0);  // fleet on station
  // Attack aftermath: receiver disabled after Security EDDI detection.
  world.uav_by_name("affected").gps().set_disabled(true);
  return world;
}

LandingOutcome guided_landing(bool with_cl, bool print_track) {
  sim::World world = make_fleet(5);
  sim::Uav& affected = world.uav_by_name("affected");

  localization::ObservationModel model;
  model.detection_range_m = 500.0;
  model.detection_probability = 0.95;
  localization::CollaborativeLocalizer cl(world, "affected",
                                          {"assist1", "assist2"}, model);
  localization::SafeLandingGuide guide(world, cl, kSafePad);

  if (print_track) {
    std::printf("%-8s %-16s %-18s %-16s %s\n", "t (s)", "dist to pad (m)",
                "CL fix error (m)", "est error (m)", "mode");
  }
  LandingOutcome out;
  for (int t = 0; t < 400 && !guide.landed(); ++t) {
    world.step(1.0);
    if (with_cl) {
      guide.step();
    } else {
      // Dead-reckoning alternative: same route commands, no fixes.
      if (t == 0) {
        affected.clear_waypoints();
        affected.add_waypoint(kSafePad);
        affected.command_resume_mission();
      }
      if (geo::enu_ground_distance_m(affected.estimated_position(), kSafePad) <
          5.0) {
        affected.command_emergency_land();
      }
    }
    if (print_track && t % 10 == 0) {
      const auto& fix = cl.last_fix();
      std::printf("%-8.0f %-16.1f %-18.2f %-16.2f %s\n", world.time_s(),
                  geo::enu_ground_distance_m(affected.true_position(), kSafePad),
                  fix ? fix->true_error_m : -1.0,
                  affected.estimation_error_m(),
                  sim::flight_mode_name(affected.mode()).c_str());
    }
  }
  out.landed = affected.mode() == sim::FlightMode::kLanded;
  out.landing_error_m =
      geo::enu_ground_distance_m(affected.true_position(), kSafePad);
  out.time_s = world.time_s();
  out.fixes = cl.fixes_published();
  return out;
}

void report() {
  std::printf("==============================================================\n");
  std::printf("Fig. 7 — Collaborative Localization safe landing without GPS\n");
  std::printf("==============================================================\n\n");

  std::printf("Approach track (GPS disabled, collaborative fixes only):\n");
  const LandingOutcome with_cl = guided_landing(true, true);
  const LandingOutcome without_cl = guided_landing(false, false);

  std::printf("\n%-44s %-16s %s\n", "metric", "paper", "measured");
  std::printf("%-44s %-16s %s\n", "UAV operates without GPS", "yes", "yes");
  std::printf("%-44s %-16s %s\n", "safe landing achieved (CL)", "yes",
              with_cl.landed ? "yes" : "no");
  std::printf("%-44s %-16s %.1f m\n", "landing error with CL",
              "high precision", with_cl.landing_error_m);
  std::printf("%-44s %-16s %.1f m\n", "landing error dead-reckoning only",
              "n/a (fails)", without_cl.landing_error_m);
  std::printf("%-44s %-16s %zu\n", "collaborative fixes published", "-",
              with_cl.fixes);
  std::printf("\nShape checks: CL lands within 8 m: %s | CL beats dead "
              "reckoning: %s\n\n",
              bench::shape_check("CL lands within 8 m",
                                 with_cl.landed && with_cl.landing_error_m < 8.0),
              bench::shape_check(
                  "CL beats dead reckoning",
                  with_cl.landing_error_m < without_cl.landing_error_m));
}

void BM_CollaborativeFix(benchmark::State& state) {
  sim::World world = make_fleet(7);
  localization::ObservationModel model;
  model.detection_range_m = 500.0;
  model.detection_probability = 1.0;
  localization::CollaborativeLocalizer cl(world, "affected",
                                          {"assist1", "assist2"}, model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cl.update());
  }
}
BENCHMARK(BM_CollaborativeFix);

void BM_FullGuidedLanding(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(guided_landing(true, false));
  }
}
BENCHMARK(BM_FullGuidedLanding)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  report();
  return sesame::bench::run_main(argc, argv);
}
