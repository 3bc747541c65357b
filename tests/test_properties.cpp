// Property-based parameterized suites (TEST_P) sweeping invariants across
// the stack: distance-measure axioms, Markov/fault-tree probability laws,
// geometry round-trips, detector monotonicity, reliability monotonicity,
// and ConSert evaluation determinism.
#include <cmath>
#include <limits>
#include <utility>

#include <gtest/gtest.h>

#include "sesame/bayes/network.hpp"
#include "sesame/conserts/uav_network.hpp"
#include "sesame/sar/coverage_tracker.hpp"
#include "sesame/sim/comm_link.hpp"
#include "sesame/eddi/ode.hpp"
#include "sesame/mw/bus.hpp"
#include "sesame/fta/fault_tree.hpp"
#include "sesame/geo/geodesy.hpp"
#include "sesame/markov/ctmc.hpp"
#include "sesame/mathx/rng.hpp"
#include "sesame/perception/detector.hpp"
#include "sesame/safedrones/models.hpp"
#include "sesame/safeml/distances.hpp"

namespace {

using namespace sesame;

// ---------------------------------------------------------------------------
// SafeML distance measures: metric-like axioms for every measure.
// ---------------------------------------------------------------------------

class DistanceMeasureProperties
    : public ::testing::TestWithParam<safeml::Measure> {};

TEST_P(DistanceMeasureProperties, NonNegative) {
  mathx::Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> a, b;
    for (int i = 0; i < 50; ++i) {
      a.push_back(rng.normal(0.0, 1.0));
      b.push_back(rng.normal(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0)));
    }
    EXPECT_GE(safeml::distance(GetParam(), a, b), 0.0);
  }
}

TEST_P(DistanceMeasureProperties, SymmetricUpToTolerance) {
  mathx::Rng rng(103);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> a, b;
    for (int i = 0; i < 40; ++i) a.push_back(rng.normal(0.0, 1.0));
    for (int i = 0; i < 60; ++i) b.push_back(rng.normal(1.0, 1.5));
    EXPECT_NEAR(safeml::distance(GetParam(), a, b),
                safeml::distance(GetParam(), b, a), 1e-9);
  }
}

TEST_P(DistanceMeasureProperties, IdentityOfIndiscernibles) {
  mathx::Rng rng(107);
  std::vector<double> a;
  for (int i = 0; i < 80; ++i) a.push_back(rng.normal(0.0, 1.0));
  EXPECT_NEAR(safeml::distance(GetParam(), a, a), 0.0, 1e-12);
}

TEST_P(DistanceMeasureProperties, TranslationInvariantOfEqualShift) {
  // d(X + c, Y + c) == d(X, Y): all measures act on relative ECDF geometry.
  mathx::Rng rng(109);
  std::vector<double> a, b, ac, bc;
  const double c = 17.5;
  for (int i = 0; i < 64; ++i) {
    const double x = rng.normal(0.0, 1.0);
    const double y = rng.normal(0.6, 1.2);
    a.push_back(x);
    b.push_back(y);
    ac.push_back(x + c);
    bc.push_back(y + c);
  }
  EXPECT_NEAR(safeml::distance(GetParam(), a, b),
              safeml::distance(GetParam(), ac, bc), 1e-9);
}

TEST_P(DistanceMeasureProperties, DetectsLargeShiftOverNoise) {
  mathx::Rng rng(113);
  std::vector<double> ref, same, shifted;
  for (int i = 0; i < 200; ++i) ref.push_back(rng.normal(0.0, 1.0));
  for (int i = 0; i < 64; ++i) {
    same.push_back(rng.normal(0.0, 1.0));
    shifted.push_back(rng.normal(3.0, 1.0));
  }
  EXPECT_GT(safeml::distance(GetParam(), ref, shifted),
            safeml::distance(GetParam(), ref, same));
}

INSTANTIATE_TEST_SUITE_P(
    AllMeasures, DistanceMeasureProperties,
    ::testing::ValuesIn(safeml::all_measures()),
    [](const ::testing::TestParamInfo<safeml::Measure>& info) {
      return safeml::measure_name(info.param);
    });

// ---------------------------------------------------------------------------
// Markov chains: probability laws across chain sizes.
// ---------------------------------------------------------------------------

class CtmcSizeProperties : public ::testing::TestWithParam<std::size_t> {
 protected:
  markov::Ctmc random_chain(mathx::Rng& rng) const {
    const std::size_t n = GetParam();
    markov::CtmcBuilder b;
    for (std::size_t i = 0; i < n; ++i) b.add_state("s" + std::to_string(i));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j && rng.bernoulli(0.4)) {
          b.add_transition(i, j, rng.uniform(0.01, 1.0));
        }
      }
    }
    return b.build();
  }
};

TEST_P(CtmcSizeProperties, TransientRemainsDistribution) {
  mathx::Rng rng(211);
  const auto chain = random_chain(rng);
  std::vector<double> pi0(chain.num_states(), 0.0);
  pi0[0] = 1.0;
  for (double t : {0.01, 0.5, 5.0, 50.0}) {
    const auto pi = chain.transient(pi0, t);
    double sum = 0.0;
    for (double p : pi) {
      EXPECT_GE(p, -1e-9);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-8);
  }
}

TEST_P(CtmcSizeProperties, ChapmanKolmogorov) {
  // pi(t1 + t2) == transient(transient(pi0, t1), t2).
  mathx::Rng rng(223);
  const auto chain = random_chain(rng);
  std::vector<double> pi0(chain.num_states(), 0.0);
  pi0[0] = 1.0;
  const auto direct = chain.transient(pi0, 7.0);
  const auto stepped = chain.transient(chain.transient(pi0, 3.0), 4.0);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct[i], stepped[i], 1e-8);
  }
}

TEST_P(CtmcSizeProperties, AgreesWithMatrixExponential) {
  mathx::Rng rng(227);
  const auto chain = random_chain(rng);
  std::vector<double> pi0(chain.num_states(), 0.0);
  pi0[0] = 1.0;
  const auto uni = chain.transient(pi0, 2.5);
  const auto exact =
      mathx::expm(chain.generator() * 2.5).apply_transposed(pi0);
  for (std::size_t i = 0; i < uni.size(); ++i) {
    EXPECT_NEAR(uni[i], exact[i], 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(ChainSizes, CtmcSizeProperties,
                         ::testing::Values(2, 3, 5, 8, 13, 21));

// ---------------------------------------------------------------------------
// Fault trees: coherence (monotonicity) of every gate type.
// ---------------------------------------------------------------------------

struct GateCase {
  const char* name;
  std::function<fta::NodePtr(std::vector<fta::NodePtr>)> make;
};

class GateCoherence : public ::testing::TestWithParam<GateCase> {};

TEST_P(GateCoherence, MonotoneInEveryLeaf) {
  // Coherent fault trees: raising any leaf probability cannot lower the
  // top-event probability.
  mathx::Rng rng(307);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> ps;
    std::vector<fta::NodePtr> leaves;
    for (int i = 0; i < 4; ++i) {
      ps.push_back(rng.uniform());
      leaves.push_back(fta::make_basic("e" + std::to_string(i), ps.back()));
    }
    const auto gate = GetParam().make(leaves);
    const double base = gate->probability(0.0);
    for (int i = 0; i < 4; ++i) {
      auto bumped_leaves = leaves;
      bumped_leaves[static_cast<std::size_t>(i)] = fta::make_basic(
          "e" + std::to_string(i), std::min(1.0, ps[static_cast<std::size_t>(i)] + 0.1));
      EXPECT_GE(GetParam().make(bumped_leaves)->probability(0.0),
                base - 1e-12);
    }
  }
}

TEST_P(GateCoherence, BoundedByZeroOne) {
  mathx::Rng rng(311);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<fta::NodePtr> leaves;
    for (int i = 0; i < 4; ++i) {
      leaves.push_back(fta::make_basic("e" + std::to_string(i), rng.uniform()));
    }
    const double p = GetParam().make(leaves)->probability(0.0);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST_P(GateCoherence, CertainLeavesGiveCertainTop) {
  std::vector<fta::NodePtr> all_fail, none_fail;
  for (int i = 0; i < 4; ++i) {
    all_fail.push_back(fta::make_basic("a" + std::to_string(i), 1.0));
    none_fail.push_back(fta::make_basic("n" + std::to_string(i), 0.0));
  }
  EXPECT_DOUBLE_EQ(GetParam().make(all_fail)->probability(0.0), 1.0);
  EXPECT_DOUBLE_EQ(GetParam().make(none_fail)->probability(0.0), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllGates, GateCoherence,
    ::testing::Values(
        GateCase{"And", [](std::vector<fta::NodePtr> c) {
                   return fta::make_and("g", std::move(c));
                 }},
        GateCase{"Or", [](std::vector<fta::NodePtr> c) {
                   return fta::make_or("g", std::move(c));
                 }},
        GateCase{"TwoOfN", [](std::vector<fta::NodePtr> c) {
                   return fta::make_k_of_n("g", 2, std::move(c));
                 }},
        GateCase{"ThreeOfN", [](std::vector<fta::NodePtr> c) {
                   return fta::make_k_of_n("g", 3, std::move(c));
                 }}),
    [](const ::testing::TestParamInfo<GateCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Geodesy: destination/bearing/haversine round-trips across the globe.
// ---------------------------------------------------------------------------

class GeodesyRoundTrip
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(GeodesyRoundTrip, DestinationInvertsHaversine) {
  const geo::GeoPoint origin{GetParam().first, GetParam().second, 0.0};
  mathx::Rng rng(401);
  for (int i = 0; i < 25; ++i) {
    const double bearing = rng.uniform(0.0, 360.0);
    const double dist = rng.uniform(1.0, 20000.0);
    const geo::GeoPoint p = geo::destination(origin, bearing, dist);
    EXPECT_NEAR(geo::haversine_m(origin, p), dist, dist * 1e-6 + 0.01);
  }
}

TEST_P(GeodesyRoundTrip, LocalFrameIsConsistent) {
  const geo::GeoPoint origin{GetParam().first, GetParam().second, 0.0};
  const geo::LocalFrame frame(origin);
  mathx::Rng rng(409);
  for (int i = 0; i < 25; ++i) {
    geo::EnuPoint e{rng.uniform(-3000.0, 3000.0), rng.uniform(-3000.0, 3000.0),
                    rng.uniform(0.0, 200.0)};
    const auto back = frame.to_enu(frame.to_geo(e));
    EXPECT_NEAR(back.east_m, e.east_m, 1e-5);
    EXPECT_NEAR(back.north_m, e.north_m, 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Latitudes, GeodesyRoundTrip,
    ::testing::Values(std::pair{0.0, 0.0},        // equator
                      std::pair{35.19, 33.38},    // Cyprus (mission area)
                      std::pair{-33.86, 151.21},  // southern hemisphere
                      std::pair{64.15, -21.94},   // high latitude
                      std::pair{35.0, 179.9}));   // antimeridian

// ---------------------------------------------------------------------------
// Perception: detection quality monotone in altitude for any config.
// ---------------------------------------------------------------------------

class DetectorAltitudeProperty : public ::testing::TestWithParam<double> {};

TEST_P(DetectorAltitudeProperty, ProbabilityWithinBoundsAndMonotone) {
  perception::DetectorConfig cfg;
  cfg.gsd_falloff = GetParam();
  perception::PersonDetector det{cfg};
  double prev = 1.1;
  for (double alt = 5.0; alt <= 150.0; alt += 5.0) {
    const double p = det.detection_probability(alt);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
  }
}

INSTANTIATE_TEST_SUITE_P(FalloffSteepness, DetectorAltitudeProperty,
                         ::testing::Values(20.0, 40.0, 80.0, 160.0));

// ---------------------------------------------------------------------------
// SafeDrones: reliability monotone in stress for every airframe.
// ---------------------------------------------------------------------------

class AirframeProperties
    : public ::testing::TestWithParam<safedrones::Airframe> {};

TEST_P(AirframeProperties, FailureProbabilityMonotoneInTime) {
  safedrones::PropulsionConfig cfg;
  cfg.airframe = GetParam();
  cfg.motor_failure_rate = 5e-5;
  safedrones::PropulsionModel model(cfg);
  double prev = -1.0;
  for (double t = 0.0; t <= 20000.0; t += 1000.0) {
    const double p = model.failure_probability(t);
    EXPECT_GE(p, prev - 1e-12);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
}

TEST_P(AirframeProperties, ReconfigurationNeverHurts) {
  safedrones::PropulsionConfig with;
  with.airframe = GetParam();
  with.motor_failure_rate = 5e-5;
  with.reconfiguration = true;
  auto without = with;
  without.reconfiguration = false;
  safedrones::PropulsionModel m_with(with), m_without(without);
  for (double t : {100.0, 1000.0, 10000.0}) {
    EXPECT_LE(m_with.failure_probability(t),
              m_without.failure_probability(t) + 1e-12);
  }
}

TEST_P(AirframeProperties, MoreInitialFailuresNeverSafer) {
  safedrones::PropulsionConfig cfg;
  cfg.airframe = GetParam();
  cfg.motor_failure_rate = 5e-5;
  safedrones::PropulsionModel model(cfg);
  for (std::size_t k = 0; k + 1 < 3; ++k) {
    EXPECT_LE(model.failure_probability(2000.0, k),
              model.failure_probability(2000.0, k + 1) + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Airframes, AirframeProperties,
                         ::testing::Values(safedrones::Airframe::kQuad,
                                           safedrones::Airframe::kHexa,
                                           safedrones::Airframe::kOcta),
                         [](const auto& info) {
                           switch (info.param) {
                             case safedrones::Airframe::kQuad: return "Quad";
                             case safedrones::Airframe::kHexa: return "Hexa";
                             case safedrones::Airframe::kOcta: return "Octa";
                           }
                           return "Unknown";
                         });

// ---------------------------------------------------------------------------
// Battery tracker: cumulative failure probability is monotone regardless
// of the telemetry trajectory thrown at it.
// ---------------------------------------------------------------------------

class BatteryTrackerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatteryTrackerProperty, CumulativeProbabilityMonotone) {
  mathx::Rng rng(GetParam());
  safedrones::BatteryRuntimeTracker tracker;
  double soc = 1.0;
  double prev = 0.0;
  for (int step = 0; step < 300; ++step) {
    soc = std::max(0.05, soc - rng.uniform(0.0, 0.01));
    if (rng.bernoulli(0.02)) soc = std::max(0.05, soc - 0.3);  // fault drops
    const double temp = rng.uniform(20.0, 80.0);
    tracker.observe_soc(soc);
    tracker.advance(rng.uniform(0.1, 5.0), temp);
    const double p = tracker.failure_probability();
    EXPECT_GE(p, prev - 1e-10);
    EXPECT_LE(p, 1.0 + 1e-12);
    prev = p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatteryTrackerProperty,
                         ::testing::Values(1, 7, 42, 1234, 99991));

// ---------------------------------------------------------------------------
// ConSerts: evaluation is deterministic and monotone in evidence.
// ---------------------------------------------------------------------------

class ConsertEvidenceProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ConsertEvidenceProperty, AddingEvidenceNeverRemovesGrants) {
  // Granting more evidence can only keep or add guarantees (conditions are
  // monotone: no negations in the Fig. 1 network).
  conserts::ConSertNetwork net;
  conserts::add_uav_conserts(net, "u");
  conserts::Plan base(net);
  conserts::Plan more(net);
  const conserts::UavBinding u(base, "u");

  const unsigned mask = GetParam();
  auto evidence_of = [](unsigned m) {
    conserts::UavEvidence e;
    e.gps_quality_good = m & 1u;
    e.no_security_attack = m & 2u;
    e.vision_sensor_healthy = m & 4u;
    e.safeml_confidence_high = m & 8u;
    e.comm_link_good = m & 16u;
    e.nearby_uav_available = m & 32u;
    e.reliability_high = m & 64u;
    return e;
  };

  u.apply(base, evidence_of(mask));
  base.evaluate();

  for (unsigned bit = 0; bit < 7; ++bit) {
    const unsigned super = mask | (1u << bit);
    u.apply(more, evidence_of(super));
    more.evaluate();
    for (std::size_t c = 0; c < base.consert_count(); ++c) {
      for (std::size_t g = 0; g < base.guarantee_count(c); ++g) {
        if (!base.granted(c, g)) continue;
        EXPECT_TRUE(more.granted(c, g))
            << "grant " << base.consert_name(c) << "/"
            << base.guarantee_name(c, g) << " lost when adding evidence bit "
            << bit;
      }
    }
  }
}

TEST_P(ConsertEvidenceProperty, EvaluationIsDeterministic) {
  conserts::ConSertNetwork net;
  conserts::add_uav_conserts(net, "u");
  conserts::Plan plan(net);
  conserts::UavEvidence e;
  e.gps_quality_good = GetParam() & 1u;
  e.no_security_attack = GetParam() & 2u;
  e.reliability_high = GetParam() & 64u;
  conserts::UavBinding(plan, "u").apply(plan, e);
  plan.evaluate();
  std::vector<bool> granted;
  std::vector<int> best;
  for (std::size_t c = 0; c < plan.consert_count(); ++c) {
    best.push_back(plan.best(c));
    for (std::size_t g = 0; g < plan.guarantee_count(c); ++g) {
      granted.push_back(plan.granted(c, g));
    }
  }
  plan.evaluate();
  std::size_t k = 0;
  for (std::size_t c = 0; c < plan.consert_count(); ++c) {
    EXPECT_EQ(plan.best(c), best[c]);
    for (std::size_t g = 0; g < plan.guarantee_count(c); ++g) {
      EXPECT_EQ(plan.granted(c, g), granted[k++]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EvidenceMasks, ConsertEvidenceProperty,
                         ::testing::Values(0u, 3u, 64u, 67u, 96u, 127u, 21u,
                                           106u));

}  // namespace

// ---------------------------------------------------------------------------
// Bayesian networks: law of total probability across evidence patterns.
// ---------------------------------------------------------------------------

namespace {

class BayesMarginalization : public ::testing::TestWithParam<int> {};

TEST_P(BayesMarginalization, PosteriorMixesBackToPrior) {
  // P(target) == sum_e P(target | E=e) * P(E=e) for any evidence variable.
  mathx::Rng rng(static_cast<std::uint64_t>(GetParam()));
  bayes::Network net;
  const auto a = net.add_variable("a", {"0", "1"});
  const auto b = net.add_variable("b", {"0", "1", "2"});
  const auto c = net.add_variable("c", {"0", "1"});
  // Random priors/CPTs.
  const auto random_row = [&](std::size_t k) {
    std::vector<double> row(k);
    double total = 0.0;
    for (auto& x : row) {
      x = rng.uniform(0.05, 1.0);
      total += x;
    }
    for (auto& x : row) x /= total;
    return row;
  };
  net.set_prior(a, random_row(2));
  {
    std::vector<double> cpt;
    for (int r = 0; r < 2; ++r) {
      const auto row = random_row(3);
      cpt.insert(cpt.end(), row.begin(), row.end());
    }
    net.set_cpt(b, {a}, cpt);
  }
  {
    std::vector<double> cpt;
    for (int r = 0; r < 6; ++r) {
      const auto row = random_row(2);
      cpt.insert(cpt.end(), row.begin(), row.end());
    }
    net.set_cpt(c, {a, b}, cpt);
  }

  const auto prior_c = net.query(c);
  const auto prior_b = net.query(b);
  std::vector<double> mixed(2, 0.0);
  for (std::size_t e = 0; e < 3; ++e) {
    const auto posterior = net.query(c, {{b, e}});
    for (std::size_t k = 0; k < 2; ++k) mixed[k] += posterior[k] * prior_b[e];
  }
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_NEAR(mixed[k], prior_c[k], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomNetworks, BayesMarginalization,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ---------------------------------------------------------------------------
// ODE JSON: random documents round-trip byte-identically.
// ---------------------------------------------------------------------------

class OdeFuzzRoundTrip : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  eddi::ode::Value random_value(mathx::Rng& rng, int depth) {
    const double r = rng.uniform();
    if (depth <= 0 || r < 0.25) {
      switch (rng.uniform_index(4)) {
        case 0: return eddi::ode::Value(nullptr);
        case 1: return eddi::ode::Value(rng.bernoulli(0.5));
        case 2: return eddi::ode::Value(rng.uniform(-1000.0, 1000.0));
        default: {
          std::string s;
          const char* alphabet = "abc \"\\\n\tXYZ/";
          for (int i = 0; i < 8; ++i) {
            s.push_back(alphabet[rng.uniform_index(12)]);
          }
          return eddi::ode::Value(std::move(s));
        }
      }
    }
    if (r < 0.6) {
      eddi::ode::Value arr{eddi::ode::Value::Array{}};
      const auto n = rng.uniform_index(4);
      for (std::size_t i = 0; i < n; ++i) {
        arr.push_back(random_value(rng, depth - 1));
      }
      return arr;
    }
    eddi::ode::Value obj{eddi::ode::Value::Object{}};
    const auto n = rng.uniform_index(4);
    for (std::size_t i = 0; i < n; ++i) {
      obj["k" + std::to_string(i)] = random_value(rng, depth - 1);
    }
    return obj;
  }
};

TEST_P(OdeFuzzRoundTrip, SerializeParseSerializeIsStable) {
  mathx::Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    const auto doc = random_value(rng, 4);
    const std::string once = doc.to_json();
    const std::string twice = eddi::ode::parse_json(once).to_json();
    EXPECT_EQ(once, twice);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OdeFuzzRoundTrip,
                         ::testing::Values(11u, 22u, 33u, 44u));

// ---------------------------------------------------------------------------
// Middleware: random pub/sub traffic conserves delivery counts.
// ---------------------------------------------------------------------------

class BusTrafficProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BusTrafficProperty, DeliveryCountsMatchPublications) {
  mathx::Rng rng(GetParam());
  mw::Bus bus;
  const std::vector<std::string> topics{"a", "b", "c", "d"};
  std::map<std::string, int> delivered;
  std::vector<mw::Subscription> subs;
  for (const auto& t : topics) {
    subs.push_back(bus.subscribe<int>(
        t, [&delivered, t](const mw::MessageHeader&, const int&) {
          ++delivered[t];
        }));
  }
  int tapped = 0;
  auto tap = bus.add_tap(
      [&](const mw::MessageHeader&, const std::any&, std::type_index) {
        ++tapped;
      });

  std::map<std::string, int> published;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    const auto& topic = topics[rng.uniform_index(topics.size())];
    bus.publish(topic, i, "fuzzer", static_cast<double>(i));
    ++published[topic];
  }
  EXPECT_EQ(tapped, n);
  for (const auto& t : topics) {
    EXPECT_EQ(delivered[t], published[t]) << t;
  }
  EXPECT_EQ(bus.messages_published(), static_cast<std::uint64_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BusTrafficProperty,
                         ::testing::Values(3u, 17u, 170u));

}  // namespace

// ---------------------------------------------------------------------------
// Comm link: quality profile properties across configurations.
// ---------------------------------------------------------------------------

namespace {

class CommLinkProperties
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(CommLinkProperties, QualityMonotoneAndBounded) {
  sim::CommLinkConfig cfg;
  cfg.nominal_range_m = GetParam().first;
  cfg.max_range_m = GetParam().second;
  sim::CommLink link(cfg);
  double prev = 1.0;
  for (double d = 0.0; d <= cfg.max_range_m * 1.2; d += cfg.max_range_m / 50) {
    const double q = link.quality(d);
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 1.0);
    EXPECT_LE(q, prev + 1e-12);
    prev = q;
  }
  const double r = link.usable_range_m();
  EXPECT_GT(r, cfg.nominal_range_m);
  EXPECT_LT(r, cfg.max_range_m);
  EXPECT_NEAR(link.quality(r), cfg.usable_threshold, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RangeConfigs, CommLinkProperties,
                         ::testing::Values(std::pair{100.0, 300.0},
                                           std::pair{500.0, 1500.0},
                                           std::pair{50.0, 5000.0}));

// ---------------------------------------------------------------------------
// Coverage tracker: marking is monotone and idempotent across cell sizes.
// ---------------------------------------------------------------------------

class CoverageTrackerProperties : public ::testing::TestWithParam<double> {};

TEST_P(CoverageTrackerProperties, MonotoneAndIdempotent) {
  mathx::Rng rng(881);
  sar::CoverageTracker tracker({0.0, 200.0, 0.0, 200.0}, GetParam());
  double prev = 0.0;
  for (int i = 0; i < 40; ++i) {
    sim::Footprint fp;
    fp.center_east_m = rng.uniform(0.0, 200.0);
    fp.center_north_m = rng.uniform(0.0, 200.0);
    fp.half_width_m = rng.uniform(5.0, 40.0);
    fp.half_height_m = rng.uniform(5.0, 40.0);
    tracker.mark(fp);
    const double now = tracker.fraction_covered();
    EXPECT_GE(now, prev - 1e-12);  // marking never un-covers
    const std::size_t covered = tracker.cells_covered();
    tracker.mark(fp);  // idempotent
    EXPECT_EQ(tracker.cells_covered(), covered);
    prev = now;
  }
  EXPECT_LE(prev, 1.0);
}

INSTANTIATE_TEST_SUITE_P(CellSizes, CoverageTrackerProperties,
                         ::testing::Values(2.0, 5.0, 12.5, 33.0));

}  // namespace

// ---------------------------------------------------------------------------
// Histogram quantiles vs. exact sample quantiles.
//
// A bucketed histogram only knows which bucket each sample fell into, so its
// quantile estimate can never be more than one bucket width away from the
// exact empirical quantile over the same samples — provided the bucket edges
// are clamped to the observed min/max (the PR-3 bugfix). These properties
// sweep random sample sets, including negative values and all-overflow mass.
// ---------------------------------------------------------------------------
#include "sesame/mathx/stats.hpp"
#include "sesame/obs/metrics.hpp"

namespace {

class HistogramQuantileProperties : public ::testing::TestWithParam<unsigned> {};

TEST_P(HistogramQuantileProperties, WithinOneBucketWidthOfExactQuantile) {
  sesame::mathx::Rng rng(GetParam());
  const std::vector<double> bounds = {-5.0, -2.0, 0.0, 2.0, 5.0};
  sesame::obs::Histogram h(bounds);

  std::vector<double> samples;
  for (int i = 0; i < 400; ++i) {
    // Uniform over [-9, 9]: exercises every finite bucket plus the
    // underflow-below-first-bound and overflow-above-last-bound regions.
    const double x = rng.uniform(-9.0, 9.0);
    samples.push_back(x);
    h.observe(x);
  }

  // Worst-case bucket width once edges are clamped to [min, max]: walk the
  // effective edge list {min, bounds..., max} exactly as quantile() does.
  const double lo_edge = h.min_observed();
  const double hi_edge = h.max_observed();
  std::vector<double> edges = {lo_edge};
  for (double b : bounds) {
    if (b > lo_edge && b < hi_edge) edges.push_back(b);
  }
  edges.push_back(hi_edge);
  double max_width = 0.0;
  for (std::size_t i = 1; i < edges.size(); ++i) {
    max_width = std::max(max_width, edges[i] - edges[i - 1]);
  }

  for (double q : {0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    const double exact = sesame::mathx::quantile(samples, q);
    const double est = h.quantile(q);
    EXPECT_NEAR(est, exact, max_width + 1e-9)
        << "q=" << q << " seed=" << GetParam();
    // The estimate must also stay inside the observed range.
    EXPECT_GE(est, h.min_observed());
    EXPECT_LE(est, h.max_observed());
  }
}

TEST_P(HistogramQuantileProperties, AllOverflowMassStaysInObservedRange) {
  sesame::mathx::Rng rng(GetParam());
  sesame::obs::Histogram h({1.0, 2.0});  // every sample lands past the bounds
  std::vector<double> samples;
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(50.0, 60.0);
    samples.push_back(x);
    h.observe(x);
  }
  for (double q : {0.0, 0.5, 0.9, 1.0}) {
    const double exact = sesame::mathx::quantile(samples, q);
    // One bucket: [min, max]. The estimate interpolates inside it, so it can
    // differ from exact by at most the observed spread — never by the old
    // bug's answer of bounds.back() (2.0) regardless of the data.
    EXPECT_NEAR(h.quantile(q), exact, h.max_observed() - h.min_observed() + 1e-9);
    EXPECT_GE(h.quantile(q), 50.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramQuantileProperties,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace

// ---------------------------------------------------------------------------
// Histogram merge vs. the concatenated-sample oracle.
//
// merge(a, b) must leave the histogram in exactly the state it would have
// reached by observing a's and b's samples directly: same bucket counts,
// same observed extremes, same quantiles. The sweeps include an empty side
// (must be a perfect no-op on extremes) and all-overflow mass (extremes far
// beyond the last bucket bound must survive the merge).
// ---------------------------------------------------------------------------
namespace {

class HistogramMergeProperties : public ::testing::TestWithParam<unsigned> {};

TEST_P(HistogramMergeProperties, MergeMatchesConcatenatedSampleOracle) {
  sesame::mathx::Rng rng(GetParam());
  const std::vector<double> bounds = {-2.0, 0.0, 3.0, 8.0};

  // Random split sizes, including deliberately empty and one-sided splits.
  for (const auto& [na, nb] : {std::pair<int, int>{60, 40},
                              {0, 50},
                              {50, 0},
                              {1, 99},
                              {0, 0}}) {
    sesame::obs::Histogram a(bounds);
    sesame::obs::Histogram b(bounds);
    sesame::obs::Histogram oracle(bounds);
    for (int i = 0; i < na; ++i) {
      const double x = rng.uniform(-12.0, 12.0);
      a.observe(x);
      oracle.observe(x);
    }
    for (int i = 0; i < nb; ++i) {
      const double x = rng.uniform(-12.0, 12.0);
      b.observe(x);
      oracle.observe(x);
    }

    a.merge(b);
    EXPECT_EQ(a.count(), oracle.count());
    EXPECT_EQ(a.bucket_counts(), oracle.bucket_counts());
    EXPECT_DOUBLE_EQ(a.min_observed(), oracle.min_observed())
        << "na=" << na << " nb=" << nb << " seed=" << GetParam();
    EXPECT_DOUBLE_EQ(a.max_observed(), oracle.max_observed());
    EXPECT_NEAR(a.sum(), oracle.sum(), 1e-9);
    for (double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
      EXPECT_DOUBLE_EQ(a.quantile(q), oracle.quantile(q)) << "q=" << q;
    }
  }
}

TEST_P(HistogramMergeProperties, AllOverflowSideKeepsExtremesPastBounds) {
  sesame::mathx::Rng rng(GetParam());
  const std::vector<double> bounds = {1.0, 2.0};
  sesame::obs::Histogram overflow_only(bounds);
  sesame::obs::Histogram empty(bounds);
  sesame::obs::Histogram oracle(bounds);

  double true_min = std::numeric_limits<double>::infinity();
  double true_max = -true_min;
  for (int i = 0; i < 40; ++i) {
    const double x = rng.uniform(100.0, 200.0);
    overflow_only.observe(x);
    oracle.observe(x);
    true_min = std::min(true_min, x);
    true_max = std::max(true_max, x);
  }

  // Merging the empty histogram in either direction must not pull the
  // extremes back to the bucket bounds (the 0-defaults of an empty sample).
  overflow_only.merge(empty);
  EXPECT_DOUBLE_EQ(overflow_only.min_observed(), true_min);
  EXPECT_DOUBLE_EQ(overflow_only.max_observed(), true_max);

  empty.merge(overflow_only);
  EXPECT_DOUBLE_EQ(empty.min_observed(), true_min);
  EXPECT_DOUBLE_EQ(empty.max_observed(), true_max);
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(empty.quantile(q), oracle.quantile(q));
    EXPECT_GE(empty.quantile(q), true_min);  // never the 2.0 bucket edge
  }
}

TEST_P(HistogramMergeProperties, RegistrySnapshotMergeMatchesOracleBothOrders) {
  sesame::mathx::Rng rng(GetParam());
  const std::vector<double> bounds = {0.0, 5.0};

  sesame::obs::MetricsRegistry run1;
  sesame::obs::MetricsRegistry run2;
  sesame::obs::Histogram oracle(bounds);
  for (int i = 0; i < 30; ++i) {
    const double x = rng.uniform(-20.0, 20.0);
    (i % 2 == 0 ? run1 : run2).histogram("m", {}, bounds).observe(x);
    oracle.observe(x);
  }
  run1.histogram("only_in_run1", {}, bounds);  // registered but empty

  for (const bool reversed : {false, true}) {
    sesame::obs::MetricsRegistry merged;
    merged.merge(reversed ? run2.snapshot() : run1.snapshot(), 1);
    merged.merge(reversed ? run1.snapshot() : run2.snapshot(), 2);
    const auto snap = merged.snapshot();
    const auto* h = snap.find("m");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->observations, oracle.count());
    EXPECT_DOUBLE_EQ(h->min_observed, oracle.min_observed())
        << "reversed=" << reversed << " seed=" << GetParam();
    EXPECT_DOUBLE_EQ(h->max_observed, oracle.max_observed());
    const auto* e = snap.find("only_in_run1");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->observations, 0u);
    EXPECT_DOUBLE_EQ(e->min_observed, 0.0);  // empty-sample convention
    EXPECT_DOUBLE_EQ(e->max_observed, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramMergeProperties,
                         ::testing::Values(7u, 77u, 777u));

}  // namespace
