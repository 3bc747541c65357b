// Tests for the EDDI layer: ODE JSON round-trips, UavEddi integration of
// all monitors, uncertainty calibration, and ConSert evidence derivation.
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "sesame/eddi/consert_ode.hpp"
#include "sesame/eddi/ode.hpp"
#include "sesame/eddi/uav_eddi.hpp"
#include "sesame/mathx/rng.hpp"
#include "sesame/mw/bus.hpp"
#include "sesame/security/attack_tree.hpp"
#include "sesame/security/ids.hpp"

namespace eddi = sesame::eddi;
namespace ode = sesame::eddi::ode;
namespace mx = sesame::mathx;

namespace {

std::vector<std::vector<double>> make_reference(mx::Rng& rng) {
  std::vector<std::vector<double>> ref(3);
  for (int i = 0; i < 200; ++i) {
    ref[0].push_back(rng.normal(1.0, 0.1));
    ref[1].push_back(rng.normal(0.8, 0.05));
    ref[2].push_back(rng.normal(25.0, 2.0));
  }
  return ref;
}

eddi::EddiInputs nominal_inputs(mx::Rng& rng) {
  eddi::EddiInputs in;
  in.telemetry.battery_soc = 0.9;
  in.telemetry.battery_temp_c = 30.0;
  in.frame_features = {rng.normal(1.0, 0.1), rng.normal(0.8, 0.05),
                       rng.normal(25.0, 2.0)};
  in.altitude_band = sesame::sinadra::AltitudeBand::kLow;
  in.visibility = sesame::sinadra::Visibility::kGood;
  in.density = sesame::sinadra::PersonDensity::kSparse;
  in.nearby_uav_available = true;
  return in;
}

eddi::UavEddiConfig small_window_config() {
  eddi::UavEddiConfig cfg;
  cfg.safeml.window = 16;
  return cfg;
}

}  // namespace

TEST(Ode, ScalarSerialization) {
  EXPECT_EQ(ode::Value(nullptr).to_json(), "null");
  EXPECT_EQ(ode::Value(true).to_json(), "true");
  EXPECT_EQ(ode::Value(42).to_json(), "42");
  EXPECT_EQ(ode::Value(2.5).to_json(), "2.5");
  EXPECT_EQ(ode::Value("hi").to_json(), "\"hi\"");
}

TEST(Ode, NonFiniteNumbersSerializeAsNull) {
  // RFC 8259 has no NaN/Inf token; the writer clamps to null so every
  // emitted document re-parses (parse_json rejects bare "nan").
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(ode::Value(nan).to_json(), "null");
  EXPECT_EQ(ode::Value(inf).to_json(), "null");
  EXPECT_EQ(ode::Value(-inf).to_json(), "null");
  ode::Value doc;
  doc["stddev"] = nan;
  EXPECT_EQ(doc.to_json(), "{\"stddev\":null}");
  EXPECT_TRUE(ode::parse_json(doc.to_json()).at("stddev").is_null());
}

TEST(Ode, StringEscaping) {
  EXPECT_EQ(ode::Value("a\"b\\c\nd").to_json(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(Ode, ObjectAndArrayComposition) {
  ode::Value doc;
  doc["name"] = "eddi";
  doc["version"] = 1;
  ode::Value arr;
  arr.push_back("a");
  arr.push_back(2);
  doc["items"] = arr;
  EXPECT_EQ(doc.to_json(), "{\"items\":[\"a\",2],\"name\":\"eddi\",\"version\":1}");
  EXPECT_EQ(doc.at("name").as_string(), "eddi");
  EXPECT_THROW(doc.at("missing"), std::out_of_range);
}

TEST(Ode, ParseRoundTrip) {
  ode::Value doc;
  doc["models"] = ode::Value::Array{ode::Value("fta"), ode::Value(3.5)};
  doc["nested"] = ode::Value::Object{{"flag", ode::Value(true)},
                                     {"null_field", ode::Value(nullptr)}};
  const std::string json = doc.to_json();
  const ode::Value parsed = ode::parse_json(json);
  EXPECT_EQ(parsed.to_json(), json);
  EXPECT_TRUE(parsed.at("nested").at("flag").as_bool());
  EXPECT_TRUE(parsed.at("nested").at("null_field").is_null());
}

TEST(Ode, ParseHandlesWhitespaceAndEscapes) {
  const auto v = ode::parse_json(R"(  { "a" : [ 1 , -2.5e1 ] , "s" : "x\ny" } )");
  EXPECT_EQ(v.at("a").as_array()[1].as_number(), -25.0);
  EXPECT_EQ(v.at("s").as_string(), "x\ny");
}

TEST(Ode, ParseUnicodeEscape) {
  const auto v = ode::parse_json(R"("é")");
  EXPECT_EQ(v.as_string(), "\xc3\xa9");  // UTF-8 e-acute
}

TEST(Ode, ParseRejectsMalformed) {
  EXPECT_THROW(ode::parse_json("{"), std::runtime_error);
  EXPECT_THROW(ode::parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(ode::parse_json("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(ode::parse_json("tru"), std::runtime_error);
  EXPECT_THROW(ode::parse_json("1 2"), std::runtime_error);
}

TEST(Ode, NumbersFollowTheJsonGrammar) {
  for (const char* ok : {"0", "-0", "12", "-3.25", "1e+20", "1.5E-3", "2e5"}) {
    EXPECT_NO_THROW(ode::parse_json(ok)) << ok;
  }
  // A number token is consumed whole: no prefix parses quietly.
  for (const char* bad : {"[1-2]", "[1.2.3]", "[1e]", "[1e+]", "[-]", "[1.]",
                          "[.5]", "[01]", "[+1]", "[0x10]", "[1e400]", "nan",
                          "[Infinity]"}) {
    EXPECT_THROW(ode::parse_json(bad), std::runtime_error) << bad;
  }
}

TEST(Ode, UnicodeEscapeTakesExactlyFourHexDigits) {
  EXPECT_EQ(ode::parse_json(R"("\u0041\u00e9")").as_string(), "A\xc3\xa9");
  for (const char* bad : {R"("\u+041")", R"("\u 41x")", R"("\uzzzz")",
                          R"("\u41")", R"("\u004")"}) {
    EXPECT_THROW(ode::parse_json(bad), std::runtime_error) << bad;
  }
}

TEST(Ode, NestingIsBounded) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(ode::parse_json(nested(ode::kMaxParseDepth)));
  EXPECT_THROW(ode::parse_json(nested(ode::kMaxParseDepth + 1)),
               std::runtime_error);
  // Deep enough to overflow the stack of an unbounded recursive parser.
  try {
    ode::parse_json(std::string(60000, '[') + "{\"a\":1}");
    ADD_FAILURE() << "deep input accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(Ode, TypedReadsAreChecked) {
  const ode::Value s("text");
  try {
    (void)s.as_number();
    ADD_FAILURE() << "string read as number";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "ode::Value: expected number, got string");
  }
  EXPECT_THROW((void)ode::Value(1.0).as_bool(), std::invalid_argument);
  EXPECT_THROW((void)ode::Value().as_object(), std::invalid_argument);
  EXPECT_THROW((void)ode::Value(true).as_array(), std::invalid_argument);
  EXPECT_THROW((void)ode::Value(2.0).as_string(), std::invalid_argument);
}

TEST(Ode, IntegerReadsAcceptOnlyIntegersThatFit) {
  EXPECT_EQ(ode::Value(42.0).as_integer<std::size_t>(), 42u);
  EXPECT_EQ(ode::Value(-3.0).as_integer<int>(), -3);
  EXPECT_EQ(ode::Value(9007199254740992.0).as_integer<std::uint64_t>(),
            9007199254740992ULL);
  for (const double bad : {-1.0, 2.5, 1e300, 18446744073709551616.0,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)ode::Value(bad).as_integer<std::uint64_t>(),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_THROW((void)ode::Value(2147483648.0).as_integer<int>(),
               std::invalid_argument);
  EXPECT_EQ(ode::Value(-2147483648.0).as_integer<int>(),
            std::numeric_limits<int>::min());
  EXPECT_THROW((void)ode::Value("7").as_integer<int>(), std::invalid_argument);
}

TEST(UavEddi, ValidatesConstruction) {
  mx::Rng rng(3);
  auto ref = make_reference(rng);
  EXPECT_THROW(eddi::UavEddi("", {}, ref), std::invalid_argument);
  eddi::UavEddiConfig bad;
  bad.uncertainty_floor = 0.9;
  bad.uncertainty_span = 0.5;  // floor + span > 1
  EXPECT_THROW(eddi::UavEddi("u1", bad, ref), std::invalid_argument);
  bad = {};
  bad.reliability_horizon_s = 0.0;
  EXPECT_THROW(eddi::UavEddi("u1", bad, ref), std::invalid_argument);
}

TEST(UavEddi, EvidenceRequiresTick) {
  mx::Rng rng(5);
  eddi::UavEddi e("u1", small_window_config(), make_reference(rng));
  EXPECT_THROW(e.consert_evidence(), std::logic_error);
}

TEST(UavEddi, NominalTickYieldsHealthyEvidence) {
  mx::Rng rng(7);
  eddi::UavEddi e("u1", small_window_config(), make_reference(rng));
  for (int i = 0; i < 20; ++i) e.tick(nominal_inputs(rng));
  const auto& a = e.assessment();
  EXPECT_EQ(a.reliability.level, sesame::safedrones::ReliabilityLevel::kHigh);
  ASSERT_TRUE(a.safeml.has_value());
  EXPECT_EQ(a.safeml->level, sesame::safeml::ConfidenceLevel::kHigh);

  const auto ev = e.consert_evidence();
  EXPECT_TRUE(ev.gps_quality_good);
  EXPECT_TRUE(ev.no_security_attack);  // no security EDDI attached
  EXPECT_TRUE(ev.safeml_confidence_high);
  EXPECT_TRUE(ev.reliability_high);
  EXPECT_FALSE(ev.reliability_low);
}

TEST(UavEddi, BatteryFaultRaisesCumulativeFailureProbability) {
  // The battery term is cumulative: P(fail) rises monotonically with time
  // spent in the hot/low-charge regime (the Fig. 5 curve).
  mx::Rng rng(9);
  eddi::UavEddi e("u1", small_window_config(), make_reference(rng));
  auto in = nominal_inputs(rng);
  in.telemetry.battery_soc = 0.2;   // critical band
  in.telemetry.battery_temp_c = 75.0;
  in.dt_s = 5.0;
  double prev = -1.0;
  for (int i = 0; i < 60; ++i) {  // 300 s in the faulted regime
    e.tick(in);
    const double p = e.assessment().reliability.probability_of_failure;
    EXPECT_GE(p, prev - 1e-9);
    prev = p;
  }
  const auto ev = e.consert_evidence();
  EXPECT_FALSE(ev.reliability_high);
  EXPECT_TRUE(ev.reliability_low || ev.reliability_medium);
  EXPECT_GT(prev, 0.5);
  EXPECT_TRUE(e.assessment().reliability.abort_recommended);
}

TEST(UavEddi, ShiftedFeaturesRaiseUncertainty) {
  mx::Rng rng(11);
  eddi::UavEddi e("u1", small_window_config(), make_reference(rng));
  for (int i = 0; i < 20; ++i) e.tick(nominal_inputs(rng));
  const double nominal_u = e.assessment().sar_uncertainty;

  // Shift the frame features hard (high-altitude regime).
  for (int i = 0; i < 20; ++i) {
    auto in = nominal_inputs(rng);
    in.frame_features = {rng.normal(0.3, 0.1), rng.normal(0.4, 0.05),
                         rng.normal(8.0, 2.0)};
    in.altitude_band = sesame::sinadra::AltitudeBand::kHigh;
    e.tick(in);
  }
  const double shifted_u = e.assessment().sar_uncertainty;
  EXPECT_GT(shifted_u, nominal_u + 0.05);
  EXPECT_GT(shifted_u, 0.9);  // paper: exceeds the 90% threshold up high
  EXPECT_TRUE(e.assessment().uncertainty_exceeded);
  EXPECT_FALSE(e.consert_evidence().safeml_confidence_high);
}

TEST(UavEddi, NominalUncertaintyNearPaperFloor) {
  // After descending, the paper reports ~75% uncertainty: nominal inputs
  // should sit near the calibrated floor, below the 90% threshold.
  mx::Rng rng(13);
  eddi::UavEddi e("u1", small_window_config(), make_reference(rng));
  for (int i = 0; i < 30; ++i) e.tick(nominal_inputs(rng));
  EXPECT_LT(e.assessment().sar_uncertainty, 0.85);
  EXPECT_GT(e.assessment().sar_uncertainty, 0.70);
  EXPECT_FALSE(e.assessment().uncertainty_exceeded);
}

TEST(UavEddi, DeepKnowledgeAttachment) {
  mx::Rng rng(17);
  auto model = std::make_shared<sesame::deepknowledge::Mlp>(
      std::vector<std::size_t>{4, 8, 1}, rng);
  std::vector<std::vector<double>> train, shifted;
  for (int i = 0; i < 100; ++i) {
    train.push_back({rng.normal(1.0, 0.2), rng.normal(0.9, 0.05),
                     rng.normal(25.0, 3.0), rng.normal(0.8, 0.05)});
    shifted.push_back({rng.normal(3.0, 0.2), rng.normal(0.4, 0.05),
                       rng.normal(8.0, 3.0), rng.normal(0.4, 0.05)});
  }
  auto analyzer = std::make_shared<sesame::deepknowledge::Analyzer>(
      *model, train, shifted);

  eddi::UavEddi e("u1", small_window_config(), make_reference(rng));
  EXPECT_THROW(e.attach_deepknowledge(nullptr, analyzer), std::invalid_argument);
  e.attach_deepknowledge(model, analyzer, 8);

  for (int i = 0; i < 20; ++i) {
    auto in = nominal_inputs(rng);
    in.detection_features = {train[static_cast<std::size_t>(i) % train.size()]};
    e.tick(in);
  }
  ASSERT_TRUE(e.assessment().deepknowledge.has_value());
  EXPECT_LE(e.assessment().deepknowledge->uncertainty, 1.0);
}

TEST(UavEddi, SecurityAttachmentDrivesEvidence) {
  mx::Rng rng(19);
  sesame::mw::Bus bus;
  sesame::security::IntrusionDetectionSystem ids(bus);
  ids.authorize("uav/u1/position_fix", "collaborative_localization");
  auto security = std::make_shared<sesame::security::SecurityEddi>(
      bus, sesame::security::make_spoofing_attack_tree());

  eddi::UavEddi e("u1", small_window_config(), make_reference(rng));
  e.attach_security(security);
  e.tick(nominal_inputs(rng));
  EXPECT_TRUE(e.consert_evidence().no_security_attack);

  // Attack traffic arrives.
  bus.publish("uav/u1/position_fix", sesame::geo::GeoPoint{}, "attacker", 1.0);
  EXPECT_TRUE(e.attack_detected());
  EXPECT_FALSE(e.consert_evidence().no_security_attack);
}

TEST(ConsertOde, ExportsFullUavNetwork) {
  sesame::conserts::ConSertNetwork net;
  sesame::conserts::add_uav_conserts(net, "uav1");
  const auto doc = sesame::eddi::consert_network_to_ode(net);
  EXPECT_EQ(doc.at("artefact").as_string(), "ConSertNetwork");
  EXPECT_EQ(doc.at("consert_count").as_number(), 6.0);
  const auto& conserts = doc.at("conserts").as_array();
  ASSERT_EQ(conserts.size(), 6u);
  // The navigation ConSert demands localization guarantees.
  bool found_nav = false;
  for (const auto& c : conserts) {
    if (c.at("name").as_string() != "uav1/navigation") continue;
    found_nav = true;
    const auto& guarantees = c.at("guarantees").as_array();
    EXPECT_EQ(guarantees.size(), 4u);
    bool has_demand = false;
    for (const auto& g : guarantees) {
      if (!g.at("demands").as_array().empty()) has_demand = true;
    }
    EXPECT_TRUE(has_demand);
  }
  EXPECT_TRUE(found_nav);
  // Round-trips through the parser.
  const auto parsed = sesame::eddi::ode::parse_json(doc.to_json());
  EXPECT_EQ(parsed.to_json(), doc.to_json());
}

TEST(ConsertOde, EmptyNetworkExports) {
  sesame::conserts::ConSertNetwork net;
  const auto doc = sesame::eddi::consert_network_to_ode(net);
  EXPECT_EQ(doc.at("consert_count").as_number(), 0.0);
  EXPECT_TRUE(doc.at("conserts").as_array().empty());
}

TEST(ConsertOde, AssuranceTraceExport) {
  std::vector<sesame::conserts::GuaranteeTransition> transitions{
      {0.0, "u1/uav", "", "continue_mission_take_over_tasks"},
      {42.0, "u1/uav", "continue_mission_take_over_tasks", ""},
  };
  const auto doc = sesame::eddi::assurance_trace_to_ode(transitions);
  EXPECT_EQ(doc.at("artefact").as_string(), "AssuranceTrace");
  EXPECT_EQ(doc.at("transition_count").as_number(), 2.0);
  const auto& items = doc.at("transitions").as_array();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_TRUE(items[0].at("from").is_null());   // empty -> null
  EXPECT_TRUE(items[1].at("to").is_null());
  EXPECT_DOUBLE_EQ(items[1].at("time_s").as_number(), 42.0);
  // Round-trips.
  const auto parsed = sesame::eddi::ode::parse_json(doc.to_json());
  EXPECT_EQ(parsed.to_json(), doc.to_json());
}

TEST(Ode, ControlCharacterRoundTrip) {
  ode::Value v(std::string("bell\x07tab\tend"));
  const std::string json = v.to_json();
  EXPECT_NE(json.find("\\u0007"), std::string::npos);
  EXPECT_EQ(ode::parse_json(json).as_string(), "bell\x07tab\tend");
}

TEST(Ode, DeeplyNestedStructuresParse) {
  std::string json = "1";
  for (int i = 0; i < 60; ++i) json = "[" + json + "]";
  auto v = ode::parse_json(json);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(v.is_array());
    ASSERT_EQ(v.as_array().size(), 1u);
    ode::Value inner = v.as_array()[0];  // copy before reassigning v
    v = std::move(inner);
  }
  EXPECT_DOUBLE_EQ(v.as_number(), 1.0);
}
