// Reproduces paper Fig. 6: "UAV area mapping mission with and without
// spoofing attack" plus the detection headline of Section V-C ("spoofing
// attack was detected immediately by the Security EDDI").
//
// The paper's attack is a ROS *message* spoofing attack: falsified data is
// injected on a topic the navigation stack trusts. Here the attacker node
// publishes counterfeit position fixes on the victim's position-fix topic
// at 1 Hz, walking the victim's estimate east — so the real vehicle is
// pushed west off its mapping lane (the red trajectory). The clean run is
// the blue trajectory. With the SESAME stack attached, the IDS flags the
// unauthorized publisher on the first message and the Security EDDI
// traces the attack tree to its root goal.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cmath>
#include <cstdio>
#include <vector>

#include "sesame/security/attack_tree.hpp"
#include "sesame/security/ids.hpp"
#include "sesame/security/security_eddi.hpp"
#include "sesame/sim/world.hpp"

namespace {

using namespace sesame;

const geo::GeoPoint kOrigin{35.1856, 33.3823, 0.0};
constexpr double kSpoofStart = 60.0;
constexpr double kDuration = 180.0;
constexpr double kSpoofWalkMps = 2.0;  // attacker's eastward walk rate

struct Trajectory {
  std::vector<geo::EnuPoint> truth;
  double detection_time = -1.0;  // Security EDDI event time, -1 = never
};

/// Runs the mapping leg. When `spoofed`, an attacker node injects
/// counterfeit position fixes from t=60 s. When `monitored`, the IDS and
/// Security EDDI watch the fix topic. When `authenticated`, the bus
/// enforces the publisher ACL (the attack-tree mitigation), so the
/// counterfeit fixes never reach the navigation stack.
Trajectory run_leg(bool spoofed, bool monitored, bool authenticated = false) {
  sim::World world(kOrigin, 99);
  sim::UavConfig cfg;
  cfg.name = "uav1";
  world.add_uav(cfg, kOrigin);
  sim::Uav& uav = world.uav_by_name("uav1");
  uav.add_waypoint({0.0, 1500.0, 30.0});  // mapping lane due north
  uav.command_takeoff();

  std::unique_ptr<security::IntrusionDetectionSystem> ids;
  std::unique_ptr<security::SecurityEddi> eddi;
  Trajectory out;
  if (authenticated) {
    world.bus().restrict_publisher(sim::position_fix_topic("uav1"),
                                   "collaborative_localization");
  }
  if (monitored) {
    ids = std::make_unique<security::IntrusionDetectionSystem>(world.bus());
    // Only Collaborative Localization may publish fixes.
    ids->authorize(sim::position_fix_topic("uav1"),
                   "collaborative_localization");
    ids->track_position_topic(sim::position_fix_topic("uav1"));
    eddi = std::make_unique<security::SecurityEddi>(
        world.bus(), security::make_spoofing_attack_tree());
    eddi->on_event([&](const security::SecurityEvent& ev) {
      if (out.detection_time < 0.0) out.detection_time = ev.time_s;
    });
  }

  double spoof_offset = 0.0;
  for (double t = 0.0; t < kDuration; t += 1.0) {
    world.step(1.0);
    if (spoofed && t >= kSpoofStart) {
      // Counterfeit fix: the victim's true position walked east — the
      // navigation stack trusts it verbatim (no publisher authentication).
      spoof_offset += kSpoofWalkMps;
      const geo::GeoPoint fake =
          geo::destination(uav.true_geo(), 90.0, spoof_offset);
      world.bus().publish(sim::position_fix_topic("uav1"), fake, "attacker",
                          world.time_s());
    }
    out.truth.push_back(uav.true_position());
  }
  return out;
}

void report() {
  std::printf("==============================================================\n");
  std::printf("Fig. 6 — Area mapping with and without spoofing attack\n");
  std::printf("==============================================================\n");

  const Trajectory clean = run_leg(false, false);
  const Trajectory attacked = run_leg(true, true);
  const Trajectory mitigated = run_leg(true, true, /*authenticated=*/true);

  std::printf("\nGround-truth trajectories (attack starts at t=%.0f s):\n",
              kSpoofStart);
  std::printf("%-8s %-24s %-24s %s\n", "t (s)", "clean (E, N)",
              "spoofed (E, N)", "deviation (m)");
  for (std::size_t i = 0; i < clean.truth.size(); i += 15) {
    const auto& c = clean.truth[i];
    const auto& a = attacked.truth[i];
    const double dev = geo::enu_ground_distance_m(c, a);
    std::printf("%-8zu (%8.1f, %8.1f)     (%8.1f, %8.1f)     %8.1f\n", i,
                c.east_m, c.north_m, a.east_m, a.north_m, dev);
  }

  const double final_dev = geo::enu_ground_distance_m(
      clean.truth.back(), attacked.truth.back());
  std::printf("\n%-44s %-14s %s\n", "metric", "paper", "measured");
  std::printf("%-44s %-14s %.1f m\n", "final trajectory deviation",
              "visible drift", final_dev);
  std::printf("%-44s %-14s %s\n", "attack detected by Security EDDI",
              "immediately",
              attacked.detection_time >= 0.0
                  ? (std::to_string(attacked.detection_time - kSpoofStart) +
                     " s after onset").c_str()
                  : "NOT DETECTED");
  // Mitigation ablation: the attack-tree mitigation (authenticated
  // publishers) keeps the vehicle on its lane while the IDS still alerts.
  const double mitigated_dev = geo::enu_ground_distance_m(
      clean.truth.back(), mitigated.truth.back());
  std::printf("%-44s %-14s %.1f m (detected: %s)\n",
              "deviation with publisher authentication", "n/a",
              mitigated_dev, mitigated.detection_time >= 0.0 ? "yes" : "no");

  std::printf("\nShape checks: deviation > 50 m at end: %s | detection within "
              "2 s of onset: %s | clean run stays on lane: %s | "
              "mitigation holds lane: %s\n\n",
              bench::shape_check("deviation > 50 m at end", final_dev > 50.0),
              bench::shape_check(
                  "detection within 2 s of onset",
                  attacked.detection_time >= 0.0 &&
                      attacked.detection_time - kSpoofStart <= 2.0),
              bench::shape_check("clean run stays on lane",
                                 std::abs(clean.truth.back().east_m) < 5.0),
              bench::shape_check("mitigation holds lane", mitigated_dev < 5.0));
}

void BM_SpoofedLeg(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_leg(true, true));
  }
}
BENCHMARK(BM_SpoofedLeg)->Unit(benchmark::kMillisecond);

void BM_IdsInspectionPerMessage(benchmark::State& state) {
  sim::World world(kOrigin, 1);
  security::IntrusionDetectionSystem ids(world.bus());
  ids.track_position_topic("pos");
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    world.bus().publish("pos", geo::destination(kOrigin, 90.0, t), "uav1", t);
  }
}
BENCHMARK(BM_IdsInspectionPerMessage);

}  // namespace

int main(int argc, char** argv) {
  report();
  return sesame::bench::run_main(argc, argv);
}
