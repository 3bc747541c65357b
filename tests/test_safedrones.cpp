// Tests for SafeDrones: propulsion Markov model with reconfiguration,
// temperature-accelerated battery model, processor/comms models, and the
// UAV-level reliability monitor with its fault-tree composition.
#include <cmath>

#include <gtest/gtest.h>

#include "sesame/safedrones/models.hpp"
#include "sesame/safedrones/uav_reliability.hpp"

namespace sd = sesame::safedrones;

TEST(Airframe, RotorCounts) {
  EXPECT_EQ(sd::rotor_count(sd::Airframe::kQuad), 4u);
  EXPECT_EQ(sd::rotor_count(sd::Airframe::kHexa), 6u);
  EXPECT_EQ(sd::rotor_count(sd::Airframe::kOcta), 8u);
}

TEST(Airframe, TolerableFailures) {
  EXPECT_EQ(sd::tolerable_motor_failures(sd::Airframe::kQuad, true), 0u);
  EXPECT_EQ(sd::tolerable_motor_failures(sd::Airframe::kHexa, true), 1u);
  EXPECT_EQ(sd::tolerable_motor_failures(sd::Airframe::kOcta, true), 2u);
  EXPECT_EQ(sd::tolerable_motor_failures(sd::Airframe::kOcta, false), 0u);
}

TEST(Propulsion, QuadMatchesClosedForm) {
  // A quad without tolerance fails when any of 4 motors fails:
  // P(t) = 1 - exp(-4 lambda t).
  sd::PropulsionConfig cfg;
  cfg.airframe = sd::Airframe::kQuad;
  cfg.motor_failure_rate = 1e-5;
  sd::PropulsionModel m(cfg);
  for (double t : {100.0, 1000.0, 10000.0}) {
    EXPECT_NEAR(m.failure_probability(t), 1.0 - std::exp(-4e-5 * t), 1e-9);
  }
}

TEST(Propulsion, ReconfigurationExtendsSurvival) {
  sd::PropulsionConfig with;
  with.airframe = sd::Airframe::kHexa;
  with.motor_failure_rate = 1e-4;
  with.reconfiguration = true;
  sd::PropulsionConfig without = with;
  without.reconfiguration = false;
  sd::PropulsionModel m_with(with), m_without(without);
  for (double t : {500.0, 2000.0}) {
    EXPECT_LT(m_with.failure_probability(t), m_without.failure_probability(t));
  }
  EXPECT_GT(m_with.mttf(), m_without.mttf());
}

TEST(Propulsion, OctaMoreTolerantThanHexa) {
  sd::PropulsionConfig hexa;
  hexa.airframe = sd::Airframe::kHexa;
  hexa.motor_failure_rate = 1e-4;
  sd::PropulsionConfig octa = hexa;
  octa.airframe = sd::Airframe::kOcta;
  EXPECT_LT(sd::PropulsionModel(octa).failure_probability(2000.0),
            sd::PropulsionModel(hexa).failure_probability(2000.0));
}

TEST(Propulsion, InitialFailuresRaiseRisk) {
  sd::PropulsionConfig cfg;
  cfg.airframe = sd::Airframe::kOcta;
  cfg.motor_failure_rate = 1e-4;
  sd::PropulsionModel m(cfg);
  EXPECT_LT(m.failure_probability(1000.0, 0), m.failure_probability(1000.0, 1));
  EXPECT_LT(m.failure_probability(1000.0, 1), m.failure_probability(1000.0, 2));
  // Starting in the absorbing state means already failed.
  EXPECT_DOUBLE_EQ(m.failure_probability(0.0, 99), 1.0);
}

TEST(Propulsion, RejectsNegativeRate) {
  sd::PropulsionConfig cfg;
  cfg.motor_failure_rate = -1.0;
  EXPECT_THROW(sd::PropulsionModel{cfg}, std::invalid_argument);
}

TEST(BatteryBands, SocMapping) {
  EXPECT_EQ(sd::battery_band_from_soc(0.9), sd::BatteryBand::kHealthy);
  EXPECT_EQ(sd::battery_band_from_soc(0.4), sd::BatteryBand::kLow);
  EXPECT_EQ(sd::battery_band_from_soc(0.1), sd::BatteryBand::kCritical);
  EXPECT_EQ(sd::battery_band_from_soc(0.0), sd::BatteryBand::kFailed);
}

TEST(BatteryModel, FailedBandIsCertain) {
  sd::BatteryModel m;
  EXPECT_DOUBLE_EQ(m.failure_probability(sd::BatteryBand::kFailed, 25.0, 10.0),
                   1.0);
}

TEST(BatteryModel, WorseBandsRiskier) {
  sd::BatteryModel m;
  const double h = m.failure_probability(sd::BatteryBand::kHealthy, 25.0, 300.0);
  const double l = m.failure_probability(sd::BatteryBand::kLow, 25.0, 300.0);
  const double c = m.failure_probability(sd::BatteryBand::kCritical, 25.0, 300.0);
  EXPECT_LT(h, l);
  EXPECT_LT(l, c);
}

TEST(BatteryModel, TemperatureAcceleratesFailure) {
  sd::BatteryModel m;
  const double cool = m.failure_probability(sd::BatteryBand::kLow, 25.0, 300.0);
  const double hot = m.failure_probability(sd::BatteryBand::kLow, 70.0, 300.0);
  EXPECT_GT(hot, cool * 2.0);
}

TEST(BatteryModel, ZeroHorizonZeroRisk) {
  sd::BatteryModel m;
  EXPECT_DOUBLE_EQ(m.failure_probability(sd::BatteryBand::kHealthy, 25.0, 0.0),
                   0.0);
  EXPECT_THROW(m.failure_probability(sd::BatteryBand::kHealthy, 25.0, -1.0),
               std::invalid_argument);
}

TEST(BatteryModel, ChainStructure) {
  sd::BatteryModel m;
  const auto chain = m.chain_at(25.0);
  EXPECT_EQ(chain.num_states(), 4u);
  EXPECT_TRUE(chain.is_absorbing(3));
  EXPECT_FALSE(chain.is_absorbing(0));
}

TEST(ProcessorModel, TemperatureAcceleration) {
  sd::ProcessorModel m;
  EXPECT_GT(m.failure_probability(85.0, 600.0), m.failure_probability(25.0, 600.0));
  EXPECT_DOUBLE_EQ(m.failure_probability(25.0, 0.0), 0.0);
}

TEST(CommsModel, ExponentialForm) {
  sd::CommsModelConfig cfg;
  cfg.failure_rate = 1e-4;
  sd::CommsModel m(cfg);
  EXPECT_NEAR(m.failure_probability(1000.0), 1.0 - std::exp(-0.1), 1e-12);
}

TEST(ReliabilityMonitor, ValidatesThresholds) {
  sd::ReliabilityConfig cfg;
  cfg.medium_threshold = 0.8;
  cfg.low_threshold = 0.5;
  EXPECT_THROW(sd::ReliabilityMonitor{cfg}, std::invalid_argument);
}

TEST(ReliabilityMonitor, HealthyUavHighReliability) {
  sd::ReliabilityMonitor mon;
  sd::TelemetrySnapshot t;  // defaults: full battery, cool, no motor loss
  const auto e = mon.evaluate(t, 600.0);
  EXPECT_EQ(e.level, sd::ReliabilityLevel::kHigh);
  EXPECT_FALSE(e.abort_recommended);
  EXPECT_LT(e.probability_of_failure, 0.3);
}

TEST(ReliabilityMonitor, FaultyBatteryDegradesReliability) {
  sd::ReliabilityMonitor mon;
  sd::TelemetrySnapshot t;
  t.battery_soc = 0.40;       // the Fig. 5 collapsed level
  t.battery_temp_c = 70.0;    // thermal fault
  const auto e = mon.evaluate(t, 600.0);
  EXPECT_GT(e.probability_of_failure, 0.5);
  EXPECT_NE(e.level, sd::ReliabilityLevel::kHigh);
  EXPECT_GT(e.p_battery, e.p_propulsion);
}

TEST(ReliabilityMonitor, ProbabilityMonotoneInHorizon) {
  sd::ReliabilityMonitor mon;
  sd::TelemetrySnapshot t;
  t.battery_soc = 0.40;
  t.battery_temp_c = 70.0;
  double prev = -1.0;
  for (double horizon = 0.0; horizon <= 600.0; horizon += 60.0) {
    const auto e = mon.evaluate(t, horizon);
    EXPECT_GE(e.probability_of_failure, prev);
    prev = e.probability_of_failure;
  }
}

TEST(ReliabilityMonitor, AbortThresholdReached) {
  sd::ReliabilityMonitor mon;
  sd::TelemetrySnapshot t;
  t.battery_soc = 0.10;
  t.battery_temp_c = 80.0;
  const auto e = mon.evaluate(t, 900.0);
  EXPECT_TRUE(e.abort_recommended);
  EXPECT_EQ(e.level, sd::ReliabilityLevel::kLow);
}

TEST(ReliabilityMonitor, ValidatesInputs) {
  sd::ReliabilityMonitor mon;
  sd::TelemetrySnapshot t;
  EXPECT_THROW(mon.evaluate(t, -1.0), std::invalid_argument);
  t.battery_soc = 1.2;
  EXPECT_THROW(mon.evaluate(t, 10.0), std::invalid_argument);
}

TEST(ReliabilityMonitor, DesignTimeTreeStructure) {
  sd::ReliabilityMonitor mon;
  const auto tree = mon.design_time_tree(1800.0);
  const auto events = tree.basic_events();
  EXPECT_EQ(events.size(), 4u);
  EXPECT_TRUE(events.count("battery_failure"));
  EXPECT_TRUE(events.count("propulsion_loss"));
  // Single-event minimal cut sets: any subsystem loss fails the UAV.
  const auto cuts = tree.minimal_cut_sets();
  EXPECT_EQ(cuts.size(), 4u);
  for (const auto& c : cuts) EXPECT_EQ(c.size(), 1u);
  EXPECT_THROW(mon.design_time_tree(0.0), std::invalid_argument);
}

TEST(ReliabilityMonitor, BatteryDominatesImportance) {
  // With default rates the battery chain is the fastest branch, so it
  // should carry the largest Fussell-Vesely importance at mission scale.
  sd::ReliabilityMonitor mon;
  const auto tree = mon.design_time_tree(1800.0);
  const double fv_batt = tree.fussell_vesely_importance("battery_failure", 1800.0);
  const double fv_comms = tree.fussell_vesely_importance("comms_loss", 1800.0);
  EXPECT_GT(fv_batt, fv_comms);
}

TEST(ReliabilityLevelNames, AllDistinct) {
  EXPECT_EQ(sd::reliability_level_name(sd::ReliabilityLevel::kHigh), "High");
  EXPECT_EQ(sd::reliability_level_name(sd::ReliabilityLevel::kMedium), "Medium");
  EXPECT_EQ(sd::reliability_level_name(sd::ReliabilityLevel::kLow), "Low");
}

TEST(BatteryModel, ChainAtMatchesDirectlyBuiltRates) {
  // chain_at is now derived by scaling a base chain; the generator must be
  // bit-identical to building with pre-scaled rates (the pre-optimisation
  // construction).
  const sd::BatteryModelConfig cfg;
  const sd::BatteryModel model(cfg);
  for (const double temp_c : {25.0, 40.0, 70.0, 10.0}) {
    const double accel =
        std::exp(cfg.temp_accel_per_c * (temp_c - cfg.reference_temp_c));
    const auto chain = model.chain_at(temp_c);
    EXPECT_EQ(chain.generator()(0, 1), cfg.rate_healthy_to_low * accel);
    EXPECT_EQ(chain.generator()(0, 0), -(cfg.rate_healthy_to_low * accel));
    EXPECT_EQ(chain.generator()(1, 2), cfg.rate_low_to_critical * accel);
    EXPECT_EQ(chain.generator()(2, 3), cfg.rate_critical_to_failed * accel);
  }
}

TEST(PropulsionModel, MemoisedFailureProbabilityIsStable) {
  sd::PropulsionConfig cfg;
  const sd::PropulsionModel model(cfg);
  const double first = model.failure_probability(600.0, 0);
  // Memo hit: same arguments, same result.
  EXPECT_EQ(model.failure_probability(600.0, 0), first);
  // Different arguments still recompute correctly.
  const double later = model.failure_probability(1200.0, 0);
  EXPECT_GT(later, first);
  const double degraded = model.failure_probability(600.0, 1);
  EXPECT_GT(degraded, first);
  // And the original pair evaluates identically after evictions.
  EXPECT_EQ(model.failure_probability(600.0, 0), first);
}

TEST(BatteryRuntimeTracker, CachedChainMatchesFreshTracker) {
  // Two trackers fed the same temperature trajectory must agree exactly;
  // one sees a constant-temperature stretch (cache hits), the other is
  // rebuilt fresh each segment.
  sd::BatteryRuntimeTracker warm;
  sd::BatteryRuntimeTracker reference;
  for (int i = 0; i < 50; ++i) {
    warm.advance(1.0, 25.0);
    reference.advance(1.0, 25.0);
  }
  for (int i = 0; i < 50; ++i) {
    warm.advance(1.0, 70.0);  // thermal fault: cache must invalidate
    reference.advance(1.0, 70.0);
  }
  ASSERT_EQ(warm.distribution().size(), reference.distribution().size());
  for (std::size_t i = 0; i < warm.distribution().size(); ++i) {
    EXPECT_EQ(warm.distribution()[i], reference.distribution()[i]);
  }
  EXPECT_GT(warm.failure_probability(), 0.0);
}

TEST(ReliabilityMonitor, EvaluateProspectiveDropsOnlyBatteryTerm) {
  const sd::ReliabilityMonitor monitor;
  sd::TelemetrySnapshot telemetry;
  telemetry.battery_soc = 0.9;
  telemetry.battery_temp_c = 30.0;
  telemetry.processor_temp_c = 45.0;

  const auto full = monitor.evaluate(telemetry, 600.0);
  const auto prospective = monitor.evaluate_prospective(telemetry, 600.0);
  EXPECT_EQ(prospective.p_propulsion, full.p_propulsion);
  EXPECT_EQ(prospective.p_processor, full.p_processor);
  EXPECT_EQ(prospective.p_comms, full.p_comms);
  EXPECT_EQ(prospective.p_battery, 0.0);

  // Composing the battery term back reproduces evaluate() exactly — the
  // identity UavEddi::tick relies on.
  const auto recomposed =
      monitor.compose(prospective.p_propulsion, full.p_battery,
                      prospective.p_processor, prospective.p_comms);
  EXPECT_EQ(recomposed.probability_of_failure, full.probability_of_failure);
  EXPECT_EQ(recomposed.level, full.level);
}
