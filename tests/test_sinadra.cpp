// Tests for SINADRA: the SAR missed-person risk network's qualitative
// behaviour (risk ordering across situations) and adaptation thresholds.
#include <gtest/gtest.h>

#include "sesame/sinadra/risk.hpp"

namespace sn = sesame::sinadra;

TEST(SarRiskModel, ValidatesConfig) {
  sn::RiskConfig cfg;
  cfg.rescan_threshold = 0.8;
  cfg.descend_threshold = 0.5;
  EXPECT_THROW(sn::SarRiskModel{cfg}, std::invalid_argument);
}

TEST(SarRiskModel, NoEvidenceGivesModerateRisk) {
  sn::SarRiskModel model;
  const auto r = model.assess({});
  EXPECT_GT(r.criticality, 0.0);
  EXPECT_LT(r.criticality, 1.0);
  EXPECT_GE(r.p_missed_person, 0.0);
  EXPECT_LE(r.p_missed_person, 1.0);
}

TEST(SarRiskModel, HighAltitudeRiskierThanLow) {
  sn::SarRiskModel model;
  sn::SituationEvidence low;
  low.altitude = sn::AltitudeBand::kLow;
  sn::SituationEvidence high;
  high.altitude = sn::AltitudeBand::kHigh;
  EXPECT_LT(model.assess(low).criticality, model.assess(high).criticality);
}

TEST(SarRiskModel, PoorVisibilityRaisesRisk) {
  sn::SarRiskModel model;
  sn::SituationEvidence good;
  good.visibility = sn::Visibility::kGood;
  sn::SituationEvidence poor;
  poor.visibility = sn::Visibility::kPoor;
  EXPECT_LT(model.assess(good).criticality, model.assess(poor).criticality);
}

TEST(SarRiskModel, DenseAreaRaisesRisk) {
  sn::SarRiskModel model;
  sn::SituationEvidence sparse;
  sparse.density = sn::PersonDensity::kSparse;
  sparse.altitude = sn::AltitudeBand::kHigh;
  sn::SituationEvidence dense = sparse;
  dense.density = sn::PersonDensity::kDense;
  EXPECT_LT(model.assess(sparse).p_missed_person,
            model.assess(dense).p_missed_person);
}

TEST(SarRiskModel, LowPerceptionConfidenceRaisesRisk) {
  sn::SarRiskModel model;
  sn::SituationEvidence confident;
  confident.safeml = sn::PerceptionConfidence::kHigh;
  confident.deepknowledge = sn::PerceptionConfidence::kHigh;
  sn::SituationEvidence uncertain;
  uncertain.safeml = sn::PerceptionConfidence::kLow;
  uncertain.deepknowledge = sn::PerceptionConfidence::kLow;
  EXPECT_LT(model.assess(confident).criticality,
            model.assess(uncertain).criticality);
}

TEST(SarRiskModel, TwoMonitorsStrongerThanOne) {
  // Concordant low confidence from both monitors is stronger evidence of
  // degraded perception than from SafeML alone.
  sn::SarRiskModel model;
  sn::SituationEvidence one;
  one.safeml = sn::PerceptionConfidence::kLow;
  sn::SituationEvidence both = one;
  both.deepknowledge = sn::PerceptionConfidence::kLow;
  EXPECT_LT(model.assess(one).p_missed_person,
            model.assess(both).p_missed_person);
}

TEST(SarRiskModel, NominalSituationProceeds) {
  sn::SarRiskModel model;
  sn::SituationEvidence e;
  e.altitude = sn::AltitudeBand::kLow;
  e.visibility = sn::Visibility::kGood;
  e.density = sn::PersonDensity::kSparse;
  e.safeml = sn::PerceptionConfidence::kHigh;
  e.deepknowledge = sn::PerceptionConfidence::kHigh;
  const auto r = model.assess(e);
  EXPECT_EQ(r.recommendation, sn::Adaptation::kProceed);
  EXPECT_LT(r.criticality, 0.3);
}

TEST(SarRiskModel, WorstCaseDemandsDescend) {
  sn::SarRiskModel model;
  sn::SituationEvidence e;
  e.altitude = sn::AltitudeBand::kHigh;
  e.visibility = sn::Visibility::kPoor;
  e.density = sn::PersonDensity::kDense;
  e.safeml = sn::PerceptionConfidence::kLow;
  e.deepknowledge = sn::PerceptionConfidence::kLow;
  const auto r = model.assess(e);
  EXPECT_EQ(r.recommendation, sn::Adaptation::kDescendAndRescan);
  EXPECT_GT(r.criticality, 0.7);
}

TEST(SarRiskModel, IntermediateCaseRescans) {
  sn::SarRiskModel model;
  sn::SituationEvidence e;
  e.altitude = sn::AltitudeBand::kHigh;
  e.density = sn::PersonDensity::kDense;
  e.safeml = sn::PerceptionConfidence::kMedium;
  const auto r = model.assess(e);
  EXPECT_TRUE(r.recommendation == sn::Adaptation::kRescan ||
              r.recommendation == sn::Adaptation::kDescendAndRescan);
}

TEST(SarRiskModel, CriticalityConsistentWithPosterior) {
  // criticality = 0.5*P(medium) + P(high) must bound P(high).
  sn::SarRiskModel model;
  for (auto alt : {sn::AltitudeBand::kLow, sn::AltitudeBand::kHigh}) {
    sn::SituationEvidence e;
    e.altitude = alt;
    const auto r = model.assess(e);
    EXPECT_GE(r.criticality, r.p_missed_person);
    EXPECT_LE(r.criticality, r.p_missed_person + 0.5 + 1e-12);
  }
}

TEST(SarRiskModel, MemoisedAssessIsStableAndComplete) {
  const sn::SarRiskModel model;
  sn::SituationEvidence nominal;
  nominal.altitude = sn::AltitudeBand::kLow;
  nominal.visibility = sn::Visibility::kGood;
  nominal.density = sn::PersonDensity::kSparse;
  nominal.safeml = sn::PerceptionConfidence::kHigh;
  nominal.deepknowledge = sn::PerceptionConfidence::kHigh;

  const auto first = model.assess(nominal);
  // Memo hit must replay the identical assessment.
  const auto again = model.assess(nominal);
  EXPECT_EQ(again.p_missed_person, first.p_missed_person);
  EXPECT_EQ(again.criticality, first.criticality);
  EXPECT_EQ(again.recommendation, first.recommendation);

  // A different evidence combination is keyed separately.
  sn::SituationEvidence worst = nominal;
  worst.altitude = sn::AltitudeBand::kHigh;
  worst.visibility = sn::Visibility::kPoor;
  worst.density = sn::PersonDensity::kDense;
  worst.safeml = sn::PerceptionConfidence::kLow;
  worst.deepknowledge = sn::PerceptionConfidence::kLow;
  const auto bad = model.assess(worst);
  EXPECT_GT(bad.criticality, first.criticality);
  // And the first key still replays unchanged afterwards.
  EXPECT_EQ(model.assess(nominal).criticality, first.criticality);
}
