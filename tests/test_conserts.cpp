// Tests for the ConSerts engine: condition algebra, guarantee selection,
// network compilation and evaluation, the paper's Fig. 1 UAV network, the
// assurance trace and the mission decider. The compiled plan is checked
// against the reference interpreter in tests/support/consert_oracle.hpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "consert_oracle.hpp"
#include "sesame/conserts/assurance_trace.hpp"
#include "sesame/conserts/consert.hpp"
#include "sesame/conserts/plan.hpp"
#include "sesame/conserts/uav_network.hpp"
#include "sesame/mathx/rng.hpp"

namespace cs = sesame::conserts;
namespace oracle = sesame::conserts::oracle;
namespace g = sesame::conserts::guarantees;

// Counts heap allocations so the plan's no-allocation tick can be checked.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not pair the inlined free() with the
// caller's operator new and warn about a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

TEST(Condition, EvidenceLeaf) {
  oracle::EvaluationContext ctx;
  auto c = cs::Condition::evidence("x");
  EXPECT_EQ(c->kind(), cs::Condition::Kind::kEvidence);
  EXPECT_EQ(c->name(), "x");
  EXPECT_FALSE(oracle::evaluate(*c, ctx));  // unset evidence is false
  ctx.set_evidence("x", true);
  EXPECT_TRUE(oracle::evaluate(*c, ctx));
  ctx.set_evidence("x", false);
  EXPECT_FALSE(oracle::evaluate(*c, ctx));
}

TEST(Condition, DemandLeaf) {
  oracle::EvaluationContext ctx;
  auto c = cs::Condition::demand("nav", "accurate");
  EXPECT_EQ(c->kind(), cs::Condition::Kind::kDemand);
  EXPECT_EQ(c->name(), "nav");
  EXPECT_EQ(c->guarantee(), "accurate");
  EXPECT_FALSE(oracle::evaluate(*c, ctx));
  ctx.grant("nav", "accurate");
  EXPECT_TRUE(oracle::evaluate(*c, ctx));
  ctx.clear_grants();
  EXPECT_FALSE(oracle::evaluate(*c, ctx));
}

TEST(Condition, GatesAndConstants) {
  oracle::EvaluationContext ctx;
  ctx.set_evidence("a", true);
  ctx.set_evidence("b", false);
  auto a = cs::Condition::evidence("a");
  auto b = cs::Condition::evidence("b");
  EXPECT_FALSE(oracle::evaluate(*cs::Condition::all_of({a, b}), ctx));
  EXPECT_TRUE(oracle::evaluate(*cs::Condition::any_of({a, b}), ctx));
  EXPECT_TRUE(oracle::evaluate(*cs::Condition::negate(b), ctx));
  EXPECT_TRUE(oracle::evaluate(*cs::Condition::constant(true), ctx));
  EXPECT_FALSE(oracle::evaluate(*cs::Condition::constant(false), ctx));
  EXPECT_EQ(cs::Condition::negate(b)->children().size(), 1u);
  EXPECT_EQ(cs::Condition::any_of({a, b})->kind(), cs::Condition::Kind::kAnyOf);
  EXPECT_THROW(cs::Condition::all_of({}), std::invalid_argument);
  EXPECT_THROW(cs::Condition::any_of({a, nullptr}), std::invalid_argument);
  EXPECT_THROW(cs::Condition::negate(nullptr), std::invalid_argument);
}

TEST(Condition, CollectsReferences) {
  auto c = cs::Condition::all_of(
      {cs::Condition::evidence("e1"),
       cs::Condition::any_of({cs::Condition::evidence("e2"),
                              cs::Condition::demand("cs1", "g1")})});
  std::set<std::string> evidence;
  c->collect_evidence(evidence);
  EXPECT_EQ(evidence.size(), 2u);
  std::set<std::pair<std::string, std::string>> demands;
  c->collect_demands(demands);
  ASSERT_EQ(demands.size(), 1u);
  EXPECT_EQ(demands.begin()->first, "cs1");
}

namespace {

cs::ConSertNetwork single(cs::ConSert c) {
  cs::ConSertNetwork net;
  net.add(std::move(c));
  return net;
}

}  // namespace

TEST(ConSert, GuaranteeSelectionByRank) {
  cs::ConSert c("nav");
  c.add_guarantee("strong", 0, cs::Condition::evidence("good"));
  c.add_guarantee("weak", 5, cs::Condition::constant(true));
  cs::Plan plan(single(std::move(c)));
  plan.evaluate();
  EXPECT_EQ(plan.guarantee_name(0, plan.best(0)), "weak");
  plan.set_evidence(plan.evidence_id("good"), true);
  plan.evaluate();
  EXPECT_EQ(plan.guarantee_name(0, plan.best(0)), "strong");
  EXPECT_TRUE(plan.granted(0, 0));
  EXPECT_TRUE(plan.granted(0, 1));
}

TEST(ConSert, TiedRankPrefersTheGuaranteeDeclaredFirst) {
  cs::ConSert c("nav");
  c.add_guarantee("later_rank", 3, cs::Condition::constant(true));
  c.add_guarantee("first", 2, cs::Condition::constant(true));
  c.add_guarantee("second", 2, cs::Condition::constant(true));
  cs::Plan plan(single(std::move(c)));
  plan.evaluate();
  EXPECT_EQ(plan.best(0), 1);
  EXPECT_EQ(plan.guarantee_name(0, 1), "first");
}

TEST(ConSert, NoGuaranteeSatisfied) {
  cs::ConSert c("x");
  c.add_guarantee("g", 0, cs::Condition::evidence("never"));
  cs::Plan plan(single(std::move(c)));
  plan.evaluate();
  EXPECT_EQ(plan.best(0), cs::Plan::kNone);
  EXPECT_FALSE(plan.granted(0, 0));
}

TEST(ConSert, Validation) {
  EXPECT_THROW(cs::ConSert(""), std::invalid_argument);
  cs::ConSert c("x");
  c.add_guarantee("g", 0, cs::Condition::constant(true));
  EXPECT_THROW(c.add_guarantee("g", 1, cs::Condition::constant(true)),
               std::invalid_argument);
  EXPECT_THROW(c.add_guarantee("h", 1, nullptr), std::invalid_argument);
  EXPECT_TRUE(c.has_guarantee("g"));
  EXPECT_FALSE(c.has_guarantee("h"));
}

TEST(ConSertNetwork, EvaluatesDependenciesFirst) {
  cs::ConSertNetwork net;
  cs::ConSert top("a_top");  // sorts before its dependency
  top.add_guarantee("safe", 0, cs::Condition::demand("leaf", "ok"));
  net.add(std::move(top));
  cs::ConSert leafc("leaf");
  leafc.add_guarantee("ok", 0, cs::Condition::evidence("sensor_ok"));
  net.add(std::move(leafc));

  cs::Plan plan(net);
  plan.set_evidence(plan.evidence_id("sensor_ok"), true);
  plan.evaluate();
  const std::size_t leaf = plan.consert_id("leaf");
  const std::size_t safe = plan.consert_id("a_top");
  EXPECT_EQ(safe, 0u);  // ids follow names, not evaluation order
  EXPECT_TRUE(plan.granted(leaf, 0));
  EXPECT_TRUE(plan.granted(safe, 0));
  EXPECT_EQ(plan.best(safe), 0);
  EXPECT_EQ(net.evaluation_order(),
            (std::vector<std::string>{"leaf", "a_top"}));
}

TEST(ConSertNetwork, UnknownDemandThrowsAtCompile) {
  cs::ConSertNetwork net;
  cs::ConSert top("top");
  top.add_guarantee("g", 0, cs::Condition::demand("ghost", "x"));
  net.add(std::move(top));
  EXPECT_THROW(cs::Plan{net}, std::runtime_error);
}

TEST(ConSertNetwork, CycleDetectionAtCompile) {
  cs::ConSertNetwork net;
  cs::ConSert a("a"), b("b");
  a.add_guarantee("ga", 0, cs::Condition::demand("b", "gb"));
  b.add_guarantee("gb", 0, cs::Condition::demand("a", "ga"));
  net.add(std::move(a));
  net.add(std::move(b));
  EXPECT_THROW(cs::Plan{net}, std::runtime_error);
}

TEST(ConSertNetwork, DuplicateNameRejected) {
  cs::ConSertNetwork net;
  net.add(cs::ConSert("x"));
  EXPECT_THROW(net.add(cs::ConSert("x")), std::invalid_argument);
  EXPECT_NO_THROW(net.at("x"));
  EXPECT_THROW(net.at("y"), std::out_of_range);
}

TEST(ConSertNetwork, EvaluationOrderFollowsAdd) {
  cs::ConSertNetwork net;
  cs::ConSert leafc("leaf");
  leafc.add_guarantee("ok", 0, cs::Condition::evidence("sensor_ok"));
  net.add(std::move(leafc));
  ASSERT_EQ(net.evaluation_order().size(), 1u);

  cs::ConSert top("top");
  top.add_guarantee("safe", 0, cs::Condition::demand("leaf", "ok"));
  net.add(std::move(top));
  EXPECT_EQ(net.evaluation_order(),
            (std::vector<std::string>{"leaf", "top"}));
}

TEST(Plan, UnknownNamesThrow) {
  cs::ConSertNetwork net;
  cs::add_uav_conserts(net, "u1");
  const cs::Plan plan(net);
  EXPECT_EQ(plan.consert_count(), 6u);
  EXPECT_EQ(plan.evidence_count(), cs::kUavEvidenceFields.size());
  EXPECT_THROW(plan.evidence_id("u2/comm_link_good"), std::out_of_range);
  EXPECT_THROW(plan.consert_id("u1/ghost"), std::out_of_range);
  EXPECT_THROW(plan.guarantee_name(0, 7), std::out_of_range);
  EXPECT_THROW(cs::UavBinding(plan, "u2"), std::out_of_range);
}

TEST(Plan, EvidenceFlipPropagatesThroughDemands) {
  // leaf <- mid <- top demand chain: flipping the leaf's evidence must
  // re-derive the whole chain within one evaluation.
  cs::ConSertNetwork net;
  cs::ConSert leafc("leaf");
  leafc.add_guarantee("ok", 0, cs::Condition::evidence("sensor_ok"));
  net.add(std::move(leafc));
  cs::ConSert mid("mid");
  mid.add_guarantee("ready", 0, cs::Condition::demand("leaf", "ok"));
  net.add(std::move(mid));
  cs::ConSert top("top");
  top.add_guarantee("safe", 0, cs::Condition::demand("mid", "ready"));
  net.add(std::move(top));

  cs::Plan plan(net);
  const std::size_t sensor = plan.evidence_id("sensor_ok");
  plan.set_evidence(sensor, true);
  plan.evaluate();
  EXPECT_TRUE(plan.granted(plan.consert_id("top"), 0));

  plan.set_evidence(sensor, false);
  plan.evaluate();
  for (const char* name : {"leaf", "mid", "top"}) {
    EXPECT_FALSE(plan.granted(plan.consert_id(name), 0)) << name;
    EXPECT_EQ(plan.best(plan.consert_id(name)), cs::Plan::kNone) << name;
  }
}

namespace {

cs::UavEvidence nominal_evidence() {
  cs::UavEvidence e;
  e.gps_quality_good = true;
  e.no_security_attack = true;
  e.vision_sensor_healthy = true;
  e.safeml_confidence_high = true;
  e.comm_link_good = true;
  e.nearby_uav_available = true;
  e.reliability_high = true;
  return e;
}

/// Evaluates the Fig. 1 network for one UAV under the given evidence.
cs::UavAction evaluate_uav(const cs::UavEvidence& e) {
  cs::ConSertNetwork net;
  cs::add_uav_conserts(net, "u1");
  cs::Plan plan(net);
  const cs::UavBinding u1(plan, "u1");
  u1.apply(plan, e);
  plan.evaluate();
  return u1.action(plan);
}

/// Evidence from the low bits of `mask`, one bit per field.
cs::UavEvidence evidence_of_mask(std::uint64_t mask) {
  cs::UavEvidence e;
  for (std::size_t f = 0; f < cs::kUavEvidenceFields.size(); ++f) {
    e.*cs::kUavEvidenceFields[f].flag = (mask >> f) & 1u;
  }
  return e;
}

}  // namespace

TEST(UavNetwork, NominalEvidenceContinuesExtended) {
  EXPECT_EQ(evaluate_uav(nominal_evidence()), cs::UavAction::kContinueExtended);
}

TEST(UavNetwork, MediumReliabilityStillContinues) {
  auto e = nominal_evidence();
  e.reliability_high = false;
  e.reliability_medium = true;
  EXPECT_EQ(evaluate_uav(e), cs::UavAction::kContinue);
}

TEST(UavNetwork, SecurityAttackRemovesGpsNavigation) {
  auto e = nominal_evidence();
  e.no_security_attack = false;  // Security EDDI flags an attack
  // Collaborative navigation remains -> continue (not extended).
  EXPECT_EQ(evaluate_uav(e), cs::UavAction::kContinue);
}

TEST(UavNetwork, AttackWithoutCommFallsBackToVision) {
  auto e = nominal_evidence();
  e.no_security_attack = false;
  e.comm_link_good = false;  // no collaborative channel
  // Vision navigation (<1 m) + high reliability -> hold (nav too weak to
  // continue the mission, strong enough to wait).
  EXPECT_EQ(evaluate_uav(e), cs::UavAction::kHold);
}

TEST(UavNetwork, LowReliabilityDegradesToHold) {
  auto e = nominal_evidence();
  e.reliability_high = false;
  e.reliability_low = true;
  EXPECT_EQ(evaluate_uav(e), cs::UavAction::kHold);
}

TEST(UavNetwork, NavigationOnlyReturnsToBase) {
  auto e = nominal_evidence();
  e.reliability_high = false;  // no reliability estimate at all
  EXPECT_EQ(evaluate_uav(e), cs::UavAction::kReturnToBase);
}

TEST(UavNetwork, NothingSatisfiedEmergencyLands) {
  cs::UavEvidence e;  // everything false
  EXPECT_EQ(evaluate_uav(e), cs::UavAction::kEmergencyLand);
}

TEST(UavNetwork, ThreeUavNetworkEvaluates) {
  cs::ConSertNetwork net;
  for (const auto* name : {"u1", "u2", "u3"}) {
    cs::add_uav_conserts(net, name);
  }
  EXPECT_EQ(net.size(), 18u);
  cs::Plan plan(net);
  const cs::UavBinding u1(plan, "u1"), u2(plan, "u2"), u3(plan, "u3");
  u1.apply(plan, nominal_evidence());
  auto degraded = nominal_evidence();
  degraded.reliability_high = false;
  degraded.reliability_low = true;
  u2.apply(plan, degraded);
  u3.apply(plan, cs::UavEvidence{});
  plan.evaluate();
  EXPECT_EQ(u1.action(plan), cs::UavAction::kContinueExtended);
  EXPECT_EQ(u2.action(plan), cs::UavAction::kHold);
  EXPECT_EQ(u3.action(plan), cs::UavAction::kEmergencyLand);
}

TEST(UavNetwork, TickAllocatesNothing) {
  cs::ConSertNetwork net;
  for (const auto* name : {"u1", "u2", "u3"}) cs::add_uav_conserts(net, name);
  cs::Plan plan(net);
  const std::vector<cs::UavBinding> uavs{{plan, "u1"}, {plan, "u2"},
                                         {plan, "u3"}};
  plan.evaluate();
  const std::size_t before = g_allocations.load();
  std::size_t continuing = 0;
  for (std::uint64_t mask = 0; mask < 512; ++mask) {
    for (const auto& u : uavs) u.apply(plan, evidence_of_mask(mask));
    plan.evaluate();
    for (const auto& u : uavs) {
      continuing += u.action(plan) == cs::UavAction::kContinue;
    }
  }
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_GT(continuing, 0u);
}

TEST(MissionDecider, AllContinuingCompletesAsPlanned) {
  EXPECT_EQ(cs::decide_mission({cs::UavAction::kContinue,
                                cs::UavAction::kContinueExtended,
                                cs::UavAction::kContinue}),
            cs::MissionDecision::kCompleteAsPlanned);
}

TEST(MissionDecider, DropoutWithTakerRedistributes) {
  EXPECT_EQ(cs::decide_mission({cs::UavAction::kContinueExtended,
                                cs::UavAction::kEmergencyLand,
                                cs::UavAction::kContinue}),
            cs::MissionDecision::kRedistributeTasks);
}

TEST(MissionDecider, DropoutWithoutTakerCannotComplete) {
  EXPECT_EQ(cs::decide_mission({cs::UavAction::kContinue,
                                cs::UavAction::kReturnToBase,
                                cs::UavAction::kContinue}),
            cs::MissionDecision::kCannotComplete);
}

TEST(MissionDecider, EmptyFleetCannotComplete) {
  EXPECT_EQ(cs::decide_mission({}), cs::MissionDecision::kCannotComplete);
}

TEST(ActionNames, Distinct) {
  std::set<std::string> names;
  for (auto a : {cs::UavAction::kContinueExtended, cs::UavAction::kContinue,
                 cs::UavAction::kHold, cs::UavAction::kReturnToBase,
                 cs::UavAction::kEmergencyLand}) {
    names.insert(cs::uav_action_name(a));
  }
  EXPECT_EQ(names.size(), 5u);
  EXPECT_EQ(cs::mission_decision_name(cs::MissionDecision::kRedistributeTasks),
            "RedistributeTasks");
}

TEST(ExplainGuarantee, ListsMissingEvidenceAndDemands) {
  cs::ConSertNetwork net;
  cs::add_uav_conserts(net, "u1");
  cs::Plan plan(net);
  auto e = nominal_evidence();
  e.gps_quality_good = false;       // breaks the GPS localization guarantee
  e.no_security_attack = false;
  cs::UavBinding(plan, "u1").apply(plan, e);
  plan.evaluate();  // populate grants

  const auto names = cs::uav_consert_names("u1");
  const auto gps_expl = plan.explain(names.gps_localization, g::kGpsAccurate);
  EXPECT_FALSE(gps_expl.satisfied);
  ASSERT_EQ(gps_expl.missing_evidence.size(), 2u);
  EXPECT_EQ(gps_expl.missing_evidence[0], "u1/gps_quality_good");
  EXPECT_TRUE(gps_expl.missing_demands.empty());

  // The navigation high-performance guarantee fails through its demand.
  const auto nav_expl = plan.explain(names.navigation, g::kNavHighPerformance);
  EXPECT_FALSE(nav_expl.satisfied);
  ASSERT_EQ(nav_expl.missing_demands.size(), 1u);
  EXPECT_EQ(nav_expl.missing_demands[0].first, names.gps_localization);
}

TEST(ExplainGuarantee, SatisfiedGuaranteeHasNothingMissing) {
  cs::ConSertNetwork net;
  cs::add_uav_conserts(net, "u1");
  cs::Plan plan(net);
  cs::UavBinding(plan, "u1").apply(plan, nominal_evidence());
  plan.evaluate();
  const auto names = cs::uav_consert_names("u1");
  const auto expl = plan.explain(names.uav, g::kContinueExtended);
  EXPECT_TRUE(expl.satisfied);
  EXPECT_TRUE(expl.missing_evidence.empty());
  EXPECT_TRUE(expl.missing_demands.empty());
}

TEST(ExplainGuarantee, UnknownGuaranteeThrows) {
  cs::ConSert c("x");
  c.add_guarantee("g", 0, cs::Condition::constant(true));
  const cs::ConSertNetwork net = single(c);
  const cs::Plan plan(net);
  EXPECT_THROW(plan.explain("x", "nope"), std::invalid_argument);
  EXPECT_THROW(plan.explain("y", "g"), std::invalid_argument);
  oracle::EvaluationContext ctx;
  EXPECT_THROW(oracle::explain_guarantee(c, "nope", ctx),
               std::invalid_argument);
}

TEST(AssuranceTrace, RecordsGuaranteeTransitions) {
  cs::ConSertNetwork net;
  cs::add_uav_conserts(net, "u1");
  cs::AssuranceTrace trace{cs::Plan(net)};
  const cs::UavBinding u1(trace.plan(), "u1");

  auto evaluate_with = [&](const cs::UavEvidence& e, double t) {
    u1.apply(trace.plan(), e);
    trace.evaluate(t);
  };

  evaluate_with(nominal_evidence(), 0.0);
  evaluate_with(nominal_evidence(), 5.0);  // steady: no new transitions
  auto degraded = nominal_evidence();
  degraded.reliability_high = false;
  degraded.reliability_medium = true;
  evaluate_with(degraded, 10.0);

  const auto names = cs::uav_consert_names("u1");
  const auto uav_transitions = trace.transitions_of(names.uav);
  ASSERT_EQ(uav_transitions.size(), 2u);
  // Initial grant, then the degradation at t=10.
  EXPECT_EQ(uav_transitions[0].from, "");
  EXPECT_EQ(uav_transitions[0].to, g::kContinueExtended);
  EXPECT_DOUBLE_EQ(uav_transitions[1].time_s, 10.0);
  EXPECT_EQ(uav_transitions[1].to, g::kContinue);
  EXPECT_EQ(trace.current(names.uav), g::kContinue);
  EXPECT_EQ(trace.current("u9/uav"), "");
  EXPECT_EQ(trace.evaluations(), 3u);
}

TEST(AssuranceTrace, LossOfAllGuaranteesRecordedAsEmpty) {
  cs::ConSertNetwork net;
  cs::add_uav_conserts(net, "u1");
  cs::AssuranceTrace trace{cs::Plan(net)};
  const cs::UavBinding u1(trace.plan(), "u1");
  u1.apply(trace.plan(), nominal_evidence());
  trace.evaluate(0.0);
  u1.apply(trace.plan(), cs::UavEvidence{});
  trace.evaluate(1.0);
  const auto names = cs::uav_consert_names("u1");
  EXPECT_EQ(trace.current(names.uav), "");
  const auto ts = trace.transitions_of(names.uav);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts[1].to, "");
}

// ---------------------------------------------------------------------------
// Differential tests: the compiled plan against the reference interpreter.
// ---------------------------------------------------------------------------

namespace {

/// Plan and oracle agree on every granted bit, every best guarantee and
/// every explanation; the oracle context must hold the same evidence as
/// the plan and have been evaluated.
void expect_plan_matches_oracle(const cs::ConSertNetwork& net,
                                const cs::Plan& plan,
                                const oracle::EvaluationContext& ctx,
                                const oracle::NetworkEvaluation& eval,
                                bool explain) {
  ASSERT_EQ(plan.consert_count(), net.size());
  for (std::size_t c = 0; c < plan.consert_count(); ++c) {
    const std::string& name = plan.consert_name(c);
    const cs::ConSert& consert = net.at(name);
    ASSERT_EQ(plan.guarantee_count(c), consert.guarantees().size());
    for (std::size_t i = 0; i < plan.guarantee_count(c); ++i) {
      const std::string& guarantee = consert.guarantees()[i].name;
      ASSERT_EQ(plan.guarantee_name(c, i), guarantee);
      ASSERT_EQ(plan.granted(c, i), eval.grants.count({name, guarantee}) > 0)
          << name << " / " << guarantee;
      if (!explain) continue;
      const auto want = oracle::explain_guarantee(consert, guarantee, ctx);
      const auto got = plan.explain(name, guarantee);
      ASSERT_EQ(got.consert, want.consert);
      ASSERT_EQ(got.guarantee, want.guarantee);
      ASSERT_EQ(got.satisfied, want.satisfied) << name << " / " << guarantee;
      ASSERT_EQ(got.missing_evidence, want.missing_evidence);
      ASSERT_EQ(got.missing_demands, want.missing_demands);
    }
    const auto it = eval.best.find(name);
    if (it == eval.best.end()) {
      ASSERT_EQ(plan.best(c), cs::Plan::kNone) << name;
    } else {
      ASSERT_NE(plan.best(c), cs::Plan::kNone) << name;
      ASSERT_EQ(plan.guarantee_name(c, plan.best(c)), it->second) << name;
    }
  }
}

void expect_same_transitions(const std::vector<cs::GuaranteeTransition>& a,
                             const std::vector<cs::GuaranteeTransition>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time_s, b[i].time_s) << i;
    EXPECT_EQ(a[i].consert, b[i].consert) << i;
    EXPECT_EQ(a[i].from, b[i].from) << i;
    EXPECT_EQ(a[i].to, b[i].to) << i;
  }
}

/// Sets every evidence id of the plan from `mask` (bit i -> id i) in both
/// the plan and the oracle context.
void set_all_evidence(cs::Plan& plan, oracle::EvaluationContext& ctx,
                      std::uint64_t mask) {
  for (std::size_t id = 0; id < plan.evidence_count(); ++id) {
    const bool v = (mask >> id) & 1u;
    plan.set_evidence(id, v);
    ctx.set_evidence(plan.evidence_name(id), v);
  }
}

/// A fleet network driven by seeded random evidence, evaluated `steps`
/// times through an AssuranceTrace and the oracle's trace.
void check_seeded_fleet(std::size_t n_uavs, std::uint64_t seed,
                        std::size_t steps) {
  cs::ConSertNetwork net;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n_uavs; ++i) {
    names.push_back("uav" + std::to_string(i + 1));
    cs::add_uav_conserts(net, names.back());
  }
  cs::AssuranceTrace trace{cs::Plan(net)};
  oracle::Trace oracle_trace(net);
  std::vector<cs::UavBinding> uavs;
  for (const auto& name : names) uavs.emplace_back(trace.plan(), name);

  sesame::mathx::Rng rng(seed);
  std::vector<std::uint64_t> masks(n_uavs, 0);
  std::size_t actions_seen[5] = {0, 0, 0, 0, 0};
  for (std::size_t step = 0; step < steps; ++step) {
    // Most steps flip a few flags of a few vehicles; some redraw a vehicle
    // completely, so the sequence visits steady and jumpy stretches.
    for (std::size_t i = 0; i < n_uavs; ++i) {
      if (rng.bernoulli(0.1)) {
        masks[i] = rng.uniform_index(512);
      } else if (rng.bernoulli(0.3)) {
        masks[i] ^= std::uint64_t{1} << rng.uniform_index(9);
      }
    }
    oracle::EvaluationContext ctx;
    for (std::size_t i = 0; i < n_uavs; ++i) {
      const cs::UavEvidence e = evidence_of_mask(masks[i]);
      uavs[i].apply(trace.plan(), e);
      oracle::apply_evidence(ctx, names[i], e);
    }
    const double t = 5.0 * static_cast<double>(step);
    trace.evaluate(t);
    const auto eval = oracle_trace.evaluate(ctx, t);
    expect_plan_matches_oracle(net, trace.plan(), ctx, eval,
                               /*explain=*/step % 16 == 0);
    for (std::size_t i = 0; i < n_uavs; ++i) {
      const cs::UavAction action = uavs[i].action(trace.plan());
      ASSERT_EQ(action, oracle::uav_action(eval, names[i]));
      ++actions_seen[static_cast<int>(action)];
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  expect_same_transitions(trace.transitions(), oracle_trace.transitions());
  EXPECT_GT(trace.transitions().size(), steps);
  for (const std::size_t seen : actions_seen) EXPECT_GT(seen, 0u);
}

}  // namespace

TEST(PlanOracle, EveryEvidenceMaskOfOneUav) {
  cs::ConSertNetwork net;
  cs::add_uav_conserts(net, "u1");
  cs::Plan plan(net);
  ASSERT_EQ(plan.evidence_count(), 9u);
  for (std::uint64_t mask = 0; mask < 512; ++mask) {
    oracle::EvaluationContext ctx;
    set_all_evidence(plan, ctx, mask);
    plan.evaluate();
    const auto eval = oracle::evaluate(net, ctx);
    expect_plan_matches_oracle(net, plan, ctx, eval, /*explain=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(PlanOracle, SeededThreeUavSequence) { check_seeded_fleet(3, 21, 400); }

TEST(PlanOracle, SeededSixteenUavSequence) { check_seeded_fleet(16, 7919, 120); }

TEST(PlanOracle, HandBuiltNetworksWithConstantAndNegate) {
  // Constants, negation, nested gates, repeated operands, a demand on a
  // guarantee the demanded ConSert does not declare, and tied ranks.
  using C = cs::Condition;
  cs::ConSertNetwork net;
  cs::ConSert base("base");
  base.add_guarantee("always", 4, C::constant(true));
  base.add_guarantee("never", 0, C::constant(false));
  base.add_guarantee("a_not_b", 1,
                     C::all_of({C::evidence("a"), C::negate(C::evidence("b"))}));
  base.add_guarantee("tie_first", 2, C::any_of({C::evidence("c"),
                                                C::evidence("c")}));
  base.add_guarantee("tie_second", 2, C::evidence("d"));
  net.add(std::move(base));
  cs::ConSert gate("gate");
  gate.add_guarantee(
      "deep", 0,
      C::any_of({C::all_of({C::demand("base", "a_not_b"),
                            C::negate(C::any_of({C::evidence("e"),
                                                 C::demand("base", "never")}))}),
                 C::all_of({C::demand("base", "tie_second"), C::evidence("a"),
                            C::evidence("b"), C::evidence("c")})}));
  gate.add_guarantee("phantom", 1, C::demand("base", "undeclared"));
  gate.add_guarantee("not_phantom", 2,
                     C::negate(C::demand("base", "undeclared")));
  gate.add_guarantee("fallback", 3, C::negate(C::constant(false)));
  net.add(std::move(gate));
  cs::ConSert top("top");
  top.add_guarantee("ok", 0, C::all_of({C::demand("gate", "deep"),
                                        C::negate(C::evidence("e"))}));
  top.add_guarantee("degraded", 1, C::negate(C::demand("gate", "deep")));
  net.add(std::move(top));

  cs::Plan plan(net);
  ASSERT_EQ(plan.evidence_count(), 5u);
  std::set<std::string> bests;
  for (std::uint64_t mask = 0; mask < 32; ++mask) {
    oracle::EvaluationContext ctx;
    set_all_evidence(plan, ctx, mask);
    plan.evaluate();
    const auto eval = oracle::evaluate(net, ctx);
    expect_plan_matches_oracle(net, plan, ctx, eval, /*explain=*/true);
    if (::testing::Test::HasFatalFailure()) return;
    for (const auto& [consert, best] : eval.best) bests.insert(consert + "/" + best);
  }
  // Not vacuous: both tie candidates, the negated phantom and both top
  // outcomes were each the best at some mask.
  for (const char* b : {"base/tie_first", "base/a_not_b", "gate/deep",
                        "gate/not_phantom", "top/ok", "top/degraded"}) {
    EXPECT_TRUE(bests.count(b)) << b;
  }
  const auto phantom = plan.explain("gate", "phantom");
  ASSERT_EQ(phantom.missing_demands.size(), 1u);
  EXPECT_EQ(phantom.missing_demands[0].second, "undeclared");
}

TEST(AssuranceTrace, MatchesTheOracleTrace) {
  // A hand-written timeline with steady stretches and reversals.
  cs::ConSertNetwork net;
  cs::add_uav_conserts(net, "u1");
  cs::AssuranceTrace trace{cs::Plan(net)};
  oracle::Trace oracle_trace(net);
  const cs::UavBinding u1(trace.plan(), "u1");

  auto degraded = nominal_evidence();
  degraded.reliability_high = false;
  degraded.reliability_low = true;
  const std::vector<cs::UavEvidence> timeline{
      nominal_evidence(), nominal_evidence(), degraded, degraded,
      nominal_evidence(), cs::UavEvidence{}, nominal_evidence()};

  double t = 0.0;
  for (const auto& e : timeline) {
    oracle::EvaluationContext ctx;
    oracle::apply_evidence(ctx, "u1", e);
    u1.apply(trace.plan(), e);
    trace.evaluate(t);
    const auto eval = oracle_trace.evaluate(ctx, t);
    expect_plan_matches_oracle(net, trace.plan(), ctx, eval,
                               /*explain=*/false);
    t += 5.0;
  }
  expect_same_transitions(trace.transitions(), oracle_trace.transitions());
  EXPECT_EQ(trace.evaluations(), timeline.size());
}
