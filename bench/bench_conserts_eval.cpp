// Exercises the paper's Fig. 1 hierarchical ConSert network: enumerates
// the evidence space, prints the resulting action lattice and mission
// decisions, and times the runtime evaluation of the compiled plan (the
// cost that matters for "shifting assurance to runtime" on constrained
// UAV hardware).
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "sesame/conserts/plan.hpp"
#include "sesame/conserts/uav_network.hpp"

namespace {

using namespace sesame::conserts;

UavEvidence evidence_from_mask(unsigned mask) {
  UavEvidence e;
  e.gps_quality_good = mask & 1u;
  e.no_security_attack = mask & 2u;
  e.vision_sensor_healthy = mask & 4u;
  e.safeml_confidence_high = mask & 8u;
  e.comm_link_good = mask & 16u;
  e.nearby_uav_available = mask & 32u;
  // Reliability: two bits select exactly one of High/Medium/Low/none.
  const unsigned rel = (mask >> 6) & 3u;
  e.reliability_high = rel == 1;
  e.reliability_medium = rel == 2;
  e.reliability_low = rel == 3;
  return e;
}

void report() {
  std::printf("==============================================================\n");
  std::printf("Fig. 1 — Hierarchical ConSert UAV network evaluation\n");
  std::printf("==============================================================\n");

  ConSertNetwork net;
  add_uav_conserts(net, "uav1");
  Plan plan(net);
  const UavBinding uav1(plan, "uav1");

  // Sweep the full evidence space; count the resulting actions.
  std::size_t counts[5] = {0, 0, 0, 0, 0};
  const unsigned total = 1u << 8;
  for (unsigned mask = 0; mask < total; ++mask) {
    uav1.apply(plan, evidence_from_mask(mask));
    plan.evaluate();
    counts[static_cast<int>(uav1.action(plan))]++;
  }
  std::printf("\nAction distribution over all %u evidence combinations:\n",
              total);
  for (int a = 0; a < 5; ++a) {
    std::printf("  %-32s %zu\n",
                uav_action_name(static_cast<UavAction>(a)).c_str(), counts[a]);
  }

  // Representative rows of the decision table.
  struct Row {
    const char* description;
    UavEvidence e;
  };
  auto nominal = [] {
    UavEvidence e;
    e.gps_quality_good = e.no_security_attack = e.vision_sensor_healthy =
        e.safeml_confidence_high = e.comm_link_good = e.nearby_uav_available =
            true;
    e.reliability_high = true;
    return e;
  };
  std::vector<Row> rows;
  rows.push_back({"all evidence nominal", nominal()});
  {
    auto e = nominal();
    e.no_security_attack = false;
    rows.push_back({"security attack flagged", e});
  }
  {
    auto e = nominal();
    e.reliability_high = false;
    e.reliability_low = true;
    rows.push_back({"SafeDrones reliability low", e});
  }
  {
    auto e = nominal();
    e.gps_quality_good = false;
    e.comm_link_good = false;
    e.safeml_confidence_high = false;
    rows.push_back({"GPS lost, no comms, SafeML low", e});
  }
  std::printf("\n%-36s %s\n", "situation", "UAV ConSert action");
  for (const auto& row : rows) {
    uav1.apply(plan, row.e);
    plan.evaluate();
    std::printf("%-36s %s\n", row.description,
                uav_action_name(uav1.action(plan)).c_str());
  }

  // Mission decider over a degrading 3-UAV fleet.
  std::printf("\nMission decider (3 UAVs):\n");
  std::printf("  all continue              -> %s\n",
              mission_decision_name(decide_mission(
                  {UavAction::kContinue, UavAction::kContinue,
                   UavAction::kContinueExtended})).c_str());
  std::printf("  one lands, taker present  -> %s\n",
              mission_decision_name(decide_mission(
                  {UavAction::kEmergencyLand, UavAction::kContinue,
                   UavAction::kContinueExtended})).c_str());
  std::printf("  one lands, no taker       -> %s\n\n",
              mission_decision_name(decide_mission(
                  {UavAction::kEmergencyLand, UavAction::kContinue,
                   UavAction::kContinue})).c_str());
}

ConSertNetwork fleet_network(std::size_t n_uavs) {
  ConSertNetwork net;
  for (std::size_t i = 0; i < n_uavs; ++i) {
    add_uav_conserts(net, "uav" + std::to_string(i + 1));
  }
  return net;
}

// One evaluation tick of an n-UAV fleet: write every vehicle's evidence by
// id, evaluate the plan, read every vehicle's action. The evidence cycles
// through the 256 masks so guarantees keep changing.
void BM_PlanTick(benchmark::State& state) {
  const auto n_uavs = static_cast<std::size_t>(state.range(0));
  const ConSertNetwork net = fleet_network(n_uavs);
  Plan plan(net);
  std::vector<UavBinding> uavs;
  for (std::size_t i = 0; i < n_uavs; ++i) {
    uavs.emplace_back(plan, "uav" + std::to_string(i + 1));
  }
  unsigned mask = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n_uavs; ++i) {
      uavs[i].apply(plan, evidence_from_mask((mask + 37 * i) & 255u));
    }
    plan.evaluate();
    int actions = 0;
    for (const auto& u : uavs) actions += static_cast<int>(u.action(plan));
    benchmark::DoNotOptimize(actions);
    ++mask;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanTick)->Arg(1)->Arg(3)->Arg(16);

// Compiling the network once per runner (set-up cost, not per tick).
void BM_PlanCompile(benchmark::State& state) {
  const ConSertNetwork net =
      fleet_network(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Plan plan(net);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanCompile)->Arg(1)->Arg(3)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  report();
  return sesame::bench::run_main(argc, argv);
}
