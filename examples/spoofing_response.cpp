// Spoofing attack detection and mitigation — the paper's Figs. 6 & 7 as a
// narrative walkthrough.
//
// A three-UAV fleet maps an area. Mid-mission an attacker spoofs UAV-1's
// GPS, dragging its real trajectory off the sweep (Fig. 6). The IDS spots
// the impossible position jumps, the Security EDDI traces the attack tree
// to its root goal, and the ConSert response disables the receiver and
// hands the victim to Collaborative Localization, which guides it — with
// no GPS at all — to a precise safe landing (Fig. 7).
//
// Run: ./build/examples/spoofing_response
#include <cstdio>

#include "sesame/localization/collaborative.hpp"
#include "sesame/security/attack_tree.hpp"
#include "sesame/security/ids.hpp"
#include "sesame/security/security_eddi.hpp"
#include "sesame/sim/world.hpp"

int main() {
  using namespace sesame;

  const geo::GeoPoint origin{35.1856, 33.3823, 0.0};
  sim::World world(origin, 42);

  // Fleet: the victim sweeps north; two assistants hold nearby.
  for (const char* name : {"uav1", "uav2", "uav3"}) {
    sim::UavConfig cfg;
    cfg.name = name;
    world.add_uav(cfg, origin);
  }
  world.uav_by_name("uav1").add_waypoint({0.0, 400.0, 30.0});
  world.uav_by_name("uav2").add_waypoint({60.0, 100.0, 30.0});
  world.uav_by_name("uav3").add_waypoint({-60.0, 100.0, 30.0});
  for (std::size_t i = 0; i < world.num_uavs(); ++i) {
    world.uav(i).command_takeoff();
  }

  // SESAME security stack: only Collaborative Localization is authorized
  // to publish position fixes; the IDS flags any other publisher.
  security::IntrusionDetectionSystem ids(world.bus());
  ids.authorize(sim::position_fix_topic("uav1"), "collaborative_localization");
  ids.track_position_topic(sim::position_fix_topic("uav1"));
  security::SecurityEddi eddi(world.bus(), security::make_spoofing_attack_tree());

  bool attack_reported = false;
  double detection_time = -1.0;
  eddi.on_event([&](const security::SecurityEvent& ev) {
    attack_reported = true;
    detection_time = ev.time_s;
    std::printf("\n[t=%5.0f s] SECURITY EVENT: goal '%s' achieved\n", ev.time_s,
                ev.attack_path.empty() ? "?" : ev.attack_path.front().c_str());
    for (const auto& step : ev.attack_path) {
      std::printf("             path: %s\n", step.c_str());
    }
    for (const auto& m : ev.mitigations) {
      std::printf("             mitigation: %s\n", m.c_str());
    }
  });

  std::printf("=== Phase 1: clean sweep, then spoofing at t=40 s ===\n");
  std::printf("%-8s %-12s %-12s %-14s\n", "t (s)", "true east", "est east",
              "est error (m)");

  sim::Uav& victim = world.uav_by_name("uav1");
  bool mitigated = false;
  double spoof_offset = 0.0;
  for (int t = 0; t < 120 && !mitigated; ++t) {
    world.step(1.0);
    if (t == 40) {
      std::printf("[t=%5d s] attacker starts injecting falsified position "
                  "fixes for uav1\n", t);
    }
    if (t >= 40) {
      // ROS message spoofing: counterfeit fixes walk the victim's estimate
      // east, pushing the true vehicle west off its mapping lane.
      spoof_offset += 2.0;
      world.bus().publish(sim::position_fix_topic("uav1"),
                          geo::destination(victim.true_geo(), 90.0, spoof_offset),
                          "attacker", world.time_s());
    }
    if (t % 10 == 0) {
      std::printf("%-8d %-12.1f %-12.1f %-14.1f\n", t,
                  victim.true_position().east_m,
                  victim.estimated_position().east_m,
                  victim.estimation_error_m());
    }
    if (attack_reported && !mitigated) {
      mitigated = true;
      std::printf("\n=== Phase 2: ConSert response — GPS off, Collaborative "
                  "Localization safe landing ===\n");
    }
  }

  if (!attack_reported) {
    std::printf("attack was not detected — unexpected\n");
    return 1;
  }

  // Mitigation: stop trusting the receiver, hand over to CL.
  victim.gps().set_disabled(true);
  localization::ObservationModel model;
  model.detection_range_m = 600.0;
  model.detection_probability = 0.97;
  localization::CollaborativeLocalizer cl(world, "uav1", {"uav2", "uav3"},
                                          model);
  const geo::EnuPoint safe_pad{20.0, 20.0, 30.0};
  localization::SafeLandingGuide guide(world, cl, safe_pad);

  std::printf("%-8s %-14s %-16s %-12s\n", "t (s)", "dist to pad",
              "CL fix error (m)", "mode");
  for (int t = 0; t < 400 && !guide.landed(); ++t) {
    world.step(1.0);
    guide.step();
    if (t % 15 == 0) {
      const auto fix = cl.update();
      std::printf("%-8.0f %-14.1f %-16.2f %-12s\n", world.time_s(),
                  guide.true_distance_to_target_m(),
                  fix ? fix->true_error_m : -1.0,
                  sim::flight_mode_name(victim.mode()).c_str());
    }
  }

  std::printf("\n=== Outcome ===\n");
  std::printf("attack detected at     : t=%.0f s (%.0f s after onset)\n",
              detection_time, detection_time - 40.0);
  std::printf("victim landed          : %s\n", guide.landed() ? "yes" : "no");
  std::printf("landing error from pad : %.1f m (with zero GPS)\n",
              guide.true_distance_to_target_m());
  std::printf("collaborative fixes    : %zu published\n", cl.fixes_published());
  return guide.landed() ? 0 : 1;
}
