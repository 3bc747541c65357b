// Tests for the Bayesian-network engine: factor algebra, variable
// elimination against hand-computed posteriors, evidence handling.
#include <gtest/gtest.h>

#include "sesame/bayes/network.hpp"

namespace bn = sesame::bayes;

namespace {

/// Classic sprinkler network: Cloudy -> Sprinkler, Cloudy -> Rain,
/// {Sprinkler, Rain} -> WetGrass.
struct Sprinkler {
  bn::Network net;
  bn::VarId cloudy, sprinkler, rain, wet;

  Sprinkler() {
    cloudy = net.add_variable("cloudy", {"F", "T"});
    sprinkler = net.add_variable("sprinkler", {"F", "T"});
    rain = net.add_variable("rain", {"F", "T"});
    wet = net.add_variable("wet", {"F", "T"});
    net.set_prior(cloudy, {0.5, 0.5});
    net.set_cpt(sprinkler, {cloudy}, {0.5, 0.5,    // cloudy=F
                                      0.9, 0.1});  // cloudy=T
    net.set_cpt(rain, {cloudy}, {0.8, 0.2,    // cloudy=F
                                 0.2, 0.8});  // cloudy=T
    net.set_cpt(wet, {sprinkler, rain},
                {1.0, 0.0,     // s=F r=F
                 0.1, 0.9,     // s=F r=T
                 0.1, 0.9,     // s=T r=F
                 0.01, 0.99}); // s=T r=T
  }
};

}  // namespace

TEST(Factor, ConstructionValidation) {
  EXPECT_THROW(bn::Factor({0}, {2}, {0.5}), std::invalid_argument);
  EXPECT_THROW(bn::Factor({0}, {0}, {}), std::invalid_argument);
  EXPECT_THROW(bn::Factor({0}, {2}, {0.5, -0.1}), std::invalid_argument);
  EXPECT_THROW(bn::Factor({0, 1}, {2}, {0.5, 0.5}), std::invalid_argument);
}

TEST(Factor, MultiplyDisjointVars) {
  bn::Factor fa({0}, {2}, {0.3, 0.7});
  bn::Factor fb({1}, {2}, {0.6, 0.4});
  const auto prod = fa.multiply(fb);
  ASSERT_EQ(prod.vars().size(), 2u);
  // Layout: var 0 slow, var 1 fast.
  EXPECT_NEAR(prod.values()[0], 0.18, 1e-12);
  EXPECT_NEAR(prod.values()[1], 0.12, 1e-12);
  EXPECT_NEAR(prod.values()[2], 0.42, 1e-12);
  EXPECT_NEAR(prod.values()[3], 0.28, 1e-12);
}

TEST(Factor, MultiplySharedVar) {
  bn::Factor fa({0}, {2}, {0.3, 0.7});
  bn::Factor fb({0}, {2}, {0.5, 0.2});
  const auto prod = fa.multiply(fb);
  ASSERT_EQ(prod.vars().size(), 1u);
  EXPECT_NEAR(prod.values()[0], 0.15, 1e-12);
  EXPECT_NEAR(prod.values()[1], 0.14, 1e-12);
}

TEST(Factor, MarginalizeSumsOut) {
  bn::Factor f({0, 1}, {2, 2}, {0.1, 0.2, 0.3, 0.4});
  const auto m = f.marginalize(1);
  ASSERT_EQ(m.vars().size(), 1u);
  EXPECT_EQ(m.vars()[0], 0u);
  EXPECT_NEAR(m.values()[0], 0.3, 1e-12);
  EXPECT_NEAR(m.values()[1], 0.7, 1e-12);
  EXPECT_THROW(f.marginalize(9), std::out_of_range);
}

TEST(Factor, MarginalizeToScalar) {
  bn::Factor f({3}, {2}, {0.25, 0.5});
  const auto s = f.marginalize(3);
  EXPECT_TRUE(s.vars().empty());
  EXPECT_NEAR(s.values()[0], 0.75, 1e-12);
}

TEST(Factor, ReduceFixesState) {
  bn::Factor f({0, 1}, {2, 2}, {0.1, 0.2, 0.3, 0.4});
  const auto r = f.reduce(0, 1);
  ASSERT_EQ(r.vars().size(), 1u);
  EXPECT_EQ(r.vars()[0], 1u);
  EXPECT_NEAR(r.values()[0], 0.3, 1e-12);
  EXPECT_NEAR(r.values()[1], 0.4, 1e-12);
  EXPECT_THROW(f.reduce(0, 5), std::out_of_range);
  EXPECT_THROW(f.reduce(7, 0), std::out_of_range);
}

TEST(Network, ConstructionValidation) {
  bn::Network net;
  EXPECT_THROW(net.add_variable("x", {"only"}), std::invalid_argument);
  const auto a = net.add_variable("a", {"F", "T"});
  EXPECT_THROW(net.add_variable("a", {"F", "T"}), std::invalid_argument);
  EXPECT_THROW(net.set_prior(a, {0.5, 0.6}), std::invalid_argument);
  EXPECT_THROW(net.set_cpt(a, {a}, {1.0, 0.0, 0.0, 1.0}), std::invalid_argument);
}

TEST(Network, Find) {
  bn::Network net;
  const auto a = net.add_variable("alpha", {"lo", "hi"});
  EXPECT_EQ(net.find("alpha"), a);
  EXPECT_FALSE(net.find("beta").has_value());
}

TEST(Network, PriorOnlyQuery) {
  bn::Network net;
  const auto a = net.add_variable("a", {"F", "T"});
  net.set_prior(a, {0.3, 0.7});
  const auto p = net.query(a);
  EXPECT_NEAR(p[0], 0.3, 1e-12);
  EXPECT_NEAR(p[1], 0.7, 1e-12);
}

TEST(Network, MissingCptThrows) {
  bn::Network net;
  const auto a = net.add_variable("a", {"F", "T"});
  net.add_variable("b", {"F", "T"});
  net.set_prior(a, {0.5, 0.5});
  EXPECT_THROW(net.query(a), std::logic_error);
}

TEST(Network, ChainPosterior) {
  // a -> b with known tables; P(b=T) = 0.3*0.9 + 0.7*0.2 = 0.41.
  bn::Network net;
  const auto a = net.add_variable("a", {"F", "T"});
  const auto b = net.add_variable("b", {"F", "T"});
  net.set_prior(a, {0.7, 0.3});
  net.set_cpt(b, {a}, {0.8, 0.2,    // a=F
                       0.1, 0.9});  // a=T
  const auto pb = net.query(b);
  EXPECT_NEAR(pb[1], 0.41, 1e-12);
  // Bayes: P(a=T | b=T) = 0.27 / 0.41.
  const auto pa = net.query(a, {{b, 1}});
  EXPECT_NEAR(pa[1], 0.27 / 0.41, 1e-12);
}

TEST(Network, SprinklerMarginals) {
  Sprinkler s;
  // P(rain=T) = 0.5*0.2 + 0.5*0.8 = 0.5
  EXPECT_NEAR(s.net.query(s.rain)[1], 0.5, 1e-12);
  // P(sprinkler=T) = 0.5*0.5 + 0.5*0.1 = 0.3
  EXPECT_NEAR(s.net.query(s.sprinkler)[1], 0.3, 1e-12);
}

TEST(Network, SprinklerPosteriorGivenWet) {
  Sprinkler s;
  // Known result for these tables: P(sprinkler=T | wet=T) ~= 0.4298,
  // P(rain=T | wet=T) ~= 0.7079.
  const auto ev = bn::Network::Evidence{{s.wet, 1}};
  EXPECT_NEAR(s.net.query(s.sprinkler, ev)[1], 0.4298, 5e-4);
  EXPECT_NEAR(s.net.query(s.rain, ev)[1], 0.7079, 5e-4);
}

TEST(Network, ExplainingAway) {
  Sprinkler s;
  // Observing rain lowers the sprinkler posterior (explaining away).
  const auto only_wet = bn::Network::Evidence{{s.wet, 1}};
  const auto wet_and_rain = bn::Network::Evidence{{s.wet, 1}, {s.rain, 1}};
  EXPECT_GT(s.net.query(s.sprinkler, only_wet)[1],
            s.net.query(s.sprinkler, wet_and_rain)[1]);
}

TEST(Network, QueryObservedVariableIsPointMass) {
  Sprinkler s;
  const auto p = s.net.query(s.rain, {{s.rain, 1}});
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_DOUBLE_EQ(p[1], 1.0);
}

TEST(Network, ZeroProbabilityEvidenceThrows) {
  bn::Network net;
  const auto a = net.add_variable("a", {"F", "T"});
  const auto b = net.add_variable("b", {"F", "T"});
  net.set_prior(a, {1.0, 0.0});
  net.set_cpt(b, {a}, {1.0, 0.0, 0.0, 1.0});
  // b=T requires a=T which has prior 0.
  EXPECT_THROW(net.query(a, {{b, 1}}), std::runtime_error);
}

TEST(Network, ThreeStateVariables) {
  bn::Network net;
  const auto risk = net.add_variable("risk", {"low", "medium", "high"});
  const auto alarm = net.add_variable("alarm", {"off", "on"});
  net.set_prior(risk, {0.6, 0.3, 0.1});
  net.set_cpt(alarm, {risk}, {0.95, 0.05,
                              0.7, 0.3,
                              0.2, 0.8});
  const auto p = net.query(risk, {{alarm, 1}});
  const double denom = 0.6 * 0.05 + 0.3 * 0.3 + 0.1 * 0.8;
  EXPECT_NEAR(p[0], 0.6 * 0.05 / denom, 1e-12);
  EXPECT_NEAR(p[2], 0.1 * 0.8 / denom, 1e-12);
}

// Property: posteriors are valid distributions for random evidence patterns.
TEST(NetworkProperty, PosteriorsAreDistributions) {
  Sprinkler s;
  for (std::size_t mask = 0; mask < 8; ++mask) {
    bn::Network::Evidence ev;
    if (mask & 1) ev[s.cloudy] = mask & 4 ? 1 : 0;
    if (mask & 2) ev[s.wet] = 1;
    for (bn::VarId target : {s.cloudy, s.sprinkler, s.rain, s.wet}) {
      const auto p = s.net.query(target, ev);
      double sum = 0.0;
      for (double x : p) {
        EXPECT_GE(x, -1e-12);
        sum += x;
      }
      EXPECT_NEAR(sum, 1.0, 1e-9);
    }
  }
}
