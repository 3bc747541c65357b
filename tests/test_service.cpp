// Tests for the campaign service: submission parsing and cache digests,
// malformed input refused by every reader and adapter, the service core
// (byte-identity vs the campaign layer, result cache, admission control,
// graceful drain), the HTTP adapter, the framed wire transport, and the
// shared SIGINT/SIGTERM drain latch.
//
// The headline contract is byte-identity (docs/SERVICE.md): a report
// fetched from the service — over any transport, at any executor count,
// under multi-tenant concurrency — is exactly campaign_json() of the same
// (scenario, runs, seed), i.e. the bytes campaign_cli --json writes.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sesame/campaign/campaign.hpp"
#include "sesame/campaign/report.hpp"
#include "sesame/eddi/ode.hpp"
#include "sesame/mw/bus.hpp"
#include "sesame/mw/framing.hpp"
#include "sesame/mw/socket_pump.hpp"
#include "sesame/obs/observability.hpp"
#include "sesame/platform/config_io.hpp"
#include "sesame/service/connection.hpp"
#include "sesame/service/drain.hpp"
#include "sesame/service/http.hpp"
#include "sesame/service/service.hpp"
#include "sesame/service/submission.hpp"
#include "sesame/service/wire.hpp"

namespace campaign = sesame::campaign;
namespace platform = sesame::platform;
namespace service = sesame::service;
namespace ode = sesame::eddi::ode;

namespace {

/// A scenario small enough to run many campaigns in the test suite.
std::string tiny_config_json(std::size_t n_uavs, std::size_t n_persons) {
  platform::RunnerConfig config =
      campaign::ScenarioFactory::default_scenario();
  config.n_uavs = n_uavs;
  config.area = {0.0, 150.0, 0.0, 150.0};
  config.n_persons = n_persons;
  config.max_time_s = 150.0;
  config.sesame_enabled = false;
  return platform::config_to_json(config).to_json();
}

service::Submission tiny_submission(const std::string& tenant,
                                    std::uint64_t seed, std::size_t runs = 3,
                                    std::size_t n_uavs = 2) {
  service::Submission s;
  s.tenant = tenant;
  s.config_json = tiny_config_json(n_uavs, 3);
  s.runs = runs;
  s.seed = seed;
  return s;
}

/// The reference bytes: what campaign_cli --json would write for the same
/// submission (resolved identically, run in-process).
std::string expected_report_bytes(const service::Submission& s) {
  service::ResolvedCampaign resolved = service::resolve(s);
  resolved.config.jobs = 2;  // any worker count: determinism contract
  return campaign::campaign_json(
      campaign::run_campaign(resolved.factory, resolved.config));
}

/// Moves bytes between a wire client and a server session until neither
/// side has anything left to say.
void pump(service::WireSession& server, service::WireClient& client) {
  for (int i = 0; i < 64; ++i) {
    bool moved = false;
    if (client.has_outbound()) {
      server.feed(client.take_outbound());
      moved = true;
    }
    if (server.has_outbound()) {
      client.feed(server.take_outbound());
      moved = true;
    }
    if (!moved) return;
  }
  FAIL() << "wire pump did not quiesce";
}

}  // namespace

TEST(Submission, CanonicalJsonRoundTrips) {
  service::Submission s = tiny_submission("alpha", 42);
  s.chaos = false;
  const std::string canonical = service::submission_to_json(s);
  const service::Submission back = service::submission_from_json(canonical);
  EXPECT_EQ(service::submission_to_json(back), canonical);
  EXPECT_EQ(service::resolve(back).digest, service::resolve(s).digest);
}

TEST(Submission, RejectsMalformedDocuments) {
  EXPECT_THROW(service::submission_from_json("not json"), std::runtime_error);
  EXPECT_THROW(service::submission_from_json("[1,2]"), std::runtime_error);
  // A typo must not silently become a default.
  EXPECT_THROW(service::submission_from_json(R"({"rnus": 4})"),
               std::runtime_error);
  EXPECT_THROW(service::submission_from_json(R"({"runs": 0})"),
               std::invalid_argument);
  // Bad presets are rejected at submit time, not minutes later on an
  // executor.
  EXPECT_ANY_THROW(
      service::submission_from_json(R"({"preset": "no_such_preset"})"));
}

/// Scenario-config documents every reader must refuse.
const std::vector<std::pair<std::string, std::string>>& malformed_configs() {
  static const std::vector<std::pair<std::string, std::string>> cases = {
      {"negative n_uavs", R"({"n_uavs": -1})"},
      {"fractional n_uavs", R"({"n_uavs": 2.5})"},
      {"huge n_uavs", R"({"n_uavs": 1e300})"},
      {"string n_uavs", R"({"n_uavs": "3"})"},
      {"negative seed", R"({"seed": -7})"},
      {"fractional descend_patience", R"({"descend_patience": 1.5})"},
      {"negative max_pings", R"({"recovery": {"max_pings": -2}})"},
      {"numeric section", R"({"recovery": 5})"},
      {"array section", R"({"area": [0, 1, 0, 1]})"},
      {"null optional section", R"({"spoofing": null})"},
      {"numeric uav", R"({"battery_fault": {"uav": 2}})"},
      {"numeric event uav",
       R"({"failure_schedule": {"events": [{"uav": 1}]}})"},
      {"null event", R"({"failure_schedule": {"events": [null]}})"},
      {"events object", R"({"failure_schedule": {"events": {}}})"},
      {"unknown mode", R"({"failure_schedule": {"events": [{"mode": "x"}]}})"},
      {"string rules", R"({"fault_plan": {"rules": "drop"}})"},
      {"fractional delay_steps",
       R"({"fault_plan": {"rules": [{"delay_steps": 1.5}]}})"},
      {"zero delay_steps",
       R"({"fault_plan": {"rules": [{"delay_steps": 0}]}})"},
      {"numeric reorder", R"({"fault_plan": {"rules": [{"reorder": 1}]}})"},
      {"huge fault seed", R"({"fault_plan": {"seed": 1e300}})"},
      {"unknown key", R"({"n_uavz": 2})"},
      {"trailing minus", R"({"n_uavs": 1-2})"},
      {"two points", R"({"dt_s": 1.2.3})"},
      {"empty exponent", R"({"dt_s": 1e})"},
      {"deep nesting", R"({"area": )" + std::string(100, '[')},
  };
  return cases;
}

/// Submission documents every reader must refuse (plus every malformed
/// config, wrapped as the submission's "config").
std::vector<std::pair<std::string, std::string>> malformed_submissions() {
  std::vector<std::pair<std::string, std::string>> cases = {
      {"negative runs", R"({"runs": -1})"},
      {"fractional runs", R"({"runs": 2.5})"},
      {"huge runs", R"({"runs": 1e300})"},
      {"string runs", R"({"runs": "4"})"},
      {"negative seed", R"({"seed": -5})"},
      {"negative string seed", R"({"seed": "-5"})"},
      {"signed string seed", R"({"seed": "+5"})"},
      {"hex string seed", R"({"seed": "0x10"})"},
      {"spaced string seed", R"({"seed": " 5"})"},
      {"empty string seed", R"({"seed": ""})"},
      {"65-bit string seed", R"({"seed": "18446744073709551616"})"},
      {"numeric tenant", R"({"tenant": 5})"},
      {"numeric preset", R"({"preset": 1})"},
      {"numeric chaos", R"({"chaos": 1})"},
      {"array config", R"({"config": [1]})"},
      {"string config", R"({"config": "{}"})"},
      {"trailing minus", R"({"runs": 1-2})"},
      {"two points", R"({"runs": 1.2.3})"},
      {"empty exponent", R"({"runs": 1e})"},
      {"signed escape", R"({"tenant": "\u+041"})"},
      {"spaced escape", R"({"tenant": "\u 41x"})"},
      {"non-hex escape", R"({"tenant": "\uzzzz"})"},
      {"deep nesting", std::string(60000, '[')},
      {"deep nesting in config", R"({"config": )" + std::string(60000, '{')},
  };
  for (const auto& [what, config] : malformed_configs()) {
    cases.emplace_back("config " + what, R"({"config": )" + config + "}");
  }
  return cases;
}

/// Runs `read` and fails unless it throws std::invalid_argument or
/// std::runtime_error (never accepted, never bad_variant_access).
template <class F>
void expect_refused(const std::string& what, F&& read) {
  try {
    read();
    ADD_FAILURE() << what << ": accepted";
  } catch (const std::invalid_argument&) {
  } catch (const std::runtime_error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": wrong exception: " << e.what();
  }
}

/// Sends one raw text frame to a fresh wire session and returns the
/// replies it produced.
std::vector<std::string> wire_replies(service::CampaignService& svc,
                                      const std::string& text) {
  sesame::mw::Bus alert_bus;
  service::WireSession server(svc, alert_bus, "test_link");
  sesame::mw::Framing client;
  server.start();
  client.start();
  client.send_message(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  std::vector<std::string> replies;
  for (int i = 0; i < 64 && (client.has_outbound() || server.has_outbound());
       ++i) {
    if (client.has_outbound()) server.feed(client.take_outbound());
    if (server.has_outbound()) {
      client.feed(server.take_outbound(),
                  [&](std::span<const std::uint8_t> payload, std::uint64_t) {
                    replies.emplace_back(
                        reinterpret_cast<const char*>(payload.data()),
                        payload.size());
                  });
    }
  }
  return replies;
}

TEST(MalformedInput, ConfigReaderRefusesEveryCase) {
  for (const auto& [what, text] : malformed_configs()) {
    expect_refused(what, [&] {
      platform::config_from_json(ode::parse_json(text));
    });
  }
}

TEST(MalformedInput, SubmissionReaderRefusesEveryCase) {
  for (const auto& [what, text] : malformed_submissions()) {
    expect_refused(what, [&] { service::submission_from_json(text); });
  }
}

TEST(MalformedInput, HttpAnswers400) {
  service::CampaignService svc;
  for (const auto& [what, text] : malformed_submissions()) {
    service::HttpRequest req;
    req.method = "POST";
    req.path = "/api/v1/campaigns";
    req.body = text;
    EXPECT_EQ(service::handle_request(svc, req).status, 400) << what;
  }
}

TEST(MalformedInput, WireSessionAnswersError) {
  service::CampaignService svc;
  std::vector<std::pair<std::string, std::string>> cases = {
      {"negative job", R"({"type": "status", "job": -1})"},
      {"fractional job", R"({"type": "status", "job": 1.5})"},
      {"string job", R"({"type": "status", "job": "1"})"},
      {"negative cursor", R"({"type": "poll", "job": 1, "cursor": -3})"},
      {"numeric type", R"({"type": 5})"},
      {"array request", "[1]"},
  };
  for (const auto& [what, text] : malformed_submissions()) {
    // Object documents become submit requests; the rest go in raw.
    cases.emplace_back(what, text.front() == '{'
                                 ? R"({"type": "submit", )" + text.substr(1)
                                 : text);
  }
  for (const auto& [what, text] : cases) {
    const auto replies = wire_replies(svc, text);
    ASSERT_EQ(replies.size(), 1u) << what;
    EXPECT_EQ(ode::parse_json(replies[0]).at("type").as_string(), "error")
        << what << ": " << replies[0];
  }
}

TEST(Submission, DigestIgnoresFormattingButNotSemantics) {
  const std::string config = tiny_config_json(2, 3);
  const auto digest_of = [&](const std::string& text) {
    return service::resolve(service::submission_from_json(text)).digest;
  };
  // Key order and whitespace cannot split the cache...
  const std::string a =
      R"({"runs": 4, "seed": "7", "config": )" + config + "}";
  const std::string b =
      R"({  "config": )" + config + R"(, "seed": 7, "runs": 4})";
  EXPECT_EQ(digest_of(a), digest_of(b));
  // ...but every identity-bearing field does.
  const std::string other_seed =
      R"({"runs": 4, "seed": "8", "config": )" + config + "}";
  const std::string other_runs =
      R"({"runs": 5, "seed": "7", "config": )" + config + "}";
  EXPECT_NE(digest_of(a), digest_of(other_seed));
  EXPECT_NE(digest_of(a), digest_of(other_runs));
}

TEST(Service, ConcurrentTenantsGetCampaignCliBytes) {
  // Three tenants, three distinct campaigns, all in flight at once; each
  // report must be byte-identical to the same campaign run via the
  // campaign layer directly (what campaign_cli --json writes).
  const std::vector<service::Submission> submissions = {
      tiny_submission("alpha", 7, 3, 2),
      tiny_submission("bravo", 11, 4, 2),
      tiny_submission("carol", 13, 3, 3),
  };

  service::ServiceLimits limits;
  limits.executors = 3;
  service::CampaignService svc(limits);
  std::vector<std::uint64_t> jobs;
  for (const auto& s : submissions) {
    const auto outcome = svc.submit(s);
    ASSERT_TRUE(outcome.accepted) << outcome.reject_reason;
    jobs.push_back(outcome.job_id);
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto status = svc.wait(jobs[i]);
    ASSERT_EQ(status.state, service::JobState::kCompleted) << status.error;
    EXPECT_EQ(status.runs_completed, submissions[i].runs);
    EXPECT_EQ(svc.report(jobs[i]), expected_report_bytes(submissions[i]))
        << "tenant " << submissions[i].tenant;
  }
}

TEST(Service, CacheHitReturnsIdenticalBytesWithoutRerunning) {
  service::CampaignService svc;
  const service::Submission s = tiny_submission("alpha", 21);
  const auto first = svc.submit(s);
  ASSERT_TRUE(first.accepted);
  ASSERT_EQ(svc.wait(first.job_id).state, service::JobState::kCompleted);

  // Different tenant, differently formatted document, same resolved
  // campaign: completes synchronously from the cache.
  service::Submission again = s;
  again.tenant = "bravo";
  const auto second = svc.submit(again);
  ASSERT_TRUE(second.accepted);
  const auto status = svc.status(second.job_id);
  EXPECT_EQ(status.state, service::JobState::kCompleted);
  EXPECT_TRUE(status.cache_hit);
  EXPECT_EQ(svc.cache_hits(), 1u);
  EXPECT_EQ(svc.report(second.job_id), svc.report(first.job_id));

  // The event log records the cache hit instead of fabricating runs.
  bool saw_cache_hit = false;
  for (const auto& line : svc.events(second.job_id, 0)) {
    if (ode::parse_json(line).at("event").as_string() == "cache_hit") {
      saw_cache_hit = true;
    }
  }
  EXPECT_TRUE(saw_cache_hit);
}

TEST(Service, AdmissionRejectsOverCapsAndWhileDraining) {
  service::ServiceLimits limits;
  limits.max_runs_per_campaign = 4;
  service::CampaignService svc(limits);

  const auto too_big = svc.submit(tiny_submission("alpha", 3, /*runs=*/5));
  EXPECT_FALSE(too_big.accepted);
  EXPECT_EQ(too_big.reject_reason, "runs_cap");

  // One run priced past kMaxRunCost: 20,000 vehicles flying for 1e9 s, a
  // 2,000 km square area (1.6e11 coverage cells of 5 m), and the first
  // again with an inverted area that must not buy a discount.
  for (const char* config :
       {R"({"n_uavs": 20000, "max_time_s": 1e9})",
        R"({"area": {"east_min": 0, "east_max": 2e6,
                     "north_min": 0, "north_max": 2e6}})",
        R"({"n_uavs": 20000, "max_time_s": 1e9,
            "area": {"east_min": 0, "east_max": -1e12,
                     "north_min": 0, "north_max": 1e12}})"}) {
    service::Submission s;
    s.tenant = "alpha";
    s.preset = "baseline";
    s.runs = 1;
    s.config_json = config;
    EXPECT_GT(service::resolve(s).run_cost, service::kMaxRunCost) << config;
    const auto priced_out = svc.submit(s);
    EXPECT_FALSE(priced_out.accepted) << config;
    EXPECT_EQ(priced_out.reject_reason, "cost_cap") << config;
  }
  // Every preset stays far below the cap; fleet_1024 is the dearest.
  for (const auto& name : campaign::ScenarioFactory::preset_names()) {
    service::Submission s;
    s.preset = name;
    EXPECT_LE(service::resolve(s).run_cost, service::kMaxRunCost / 4) << name;
  }

  svc.drain();
  const auto while_drained = svc.submit(tiny_submission("alpha", 3));
  EXPECT_FALSE(while_drained.accepted);
  EXPECT_EQ(while_drained.reject_reason, "draining");
}

TEST(Service, DrainHandsBackEveryUnfinishedSubmission) {
  service::ServiceLimits limits;
  limits.executors = 1;
  service::CampaignService svc(limits);

  // One long campaign occupies the only executor; two more queue behind.
  std::vector<std::uint64_t> jobs;
  jobs.push_back(svc.submit(tiny_submission("alpha", 5, /*runs=*/400)).job_id);
  jobs.push_back(svc.submit(tiny_submission("alpha", 6)).job_id);
  jobs.push_back(svc.submit(tiny_submission("bravo", 7)).job_id);

  const auto spooled = svc.drain();

  // No orphans: every job either completed or came back for spooling, and
  // nothing is left queued or running.
  std::size_t completed = 0;
  for (const auto id : jobs) {
    const auto status = svc.status(id);
    ASSERT_TRUE(status.state == service::JobState::kCompleted ||
                status.state == service::JobState::kDrained)
        << job_state_name(status.state);
    if (status.state == service::JobState::kCompleted) ++completed;
  }
  EXPECT_EQ(spooled.size(), jobs.size() - completed);
  EXPECT_GE(spooled.size(), 2u);  // at most the running job finished

  // Spooled submissions survive the round trip to the spool directory.
  for (const auto& s : spooled) {
    const auto back =
        service::submission_from_json(service::submission_to_json(s));
    EXPECT_EQ(service::resolve(back).digest, service::resolve(s).digest);
  }
  // A second drain is a no-op.
  EXPECT_TRUE(svc.drain().empty());
}

TEST(Service, EventLogIsCursorPollable) {
  service::CampaignService svc;
  const auto outcome = svc.submit(tiny_submission("alpha", 31));
  ASSERT_TRUE(outcome.accepted);
  ASSERT_EQ(svc.wait(outcome.job_id).state, service::JobState::kCompleted);

  const auto all = svc.events(outcome.job_id, 0);
  ASSERT_GE(all.size(), 3u);  // queued, started, runs..., completed
  EXPECT_EQ(ode::parse_json(all.front()).at("event").as_string(), "queued");
  EXPECT_EQ(ode::parse_json(all.back()).at("event").as_string(), "completed");
  for (const auto& line : all) {
    EXPECT_NO_THROW(ode::parse_json(line)) << line;
  }
  // Cursor semantics: a caller that consumed N lines sees only the tail.
  EXPECT_EQ(svc.events(outcome.job_id, all.size()).size(), 0u);
  EXPECT_EQ(svc.events(outcome.job_id, all.size() - 1).size(), 1u);

  // Service-side metrics stay on their own surface, never in reports.
  const std::string prom = svc.metrics_prometheus();
  EXPECT_NE(prom.find("sesame_service_submissions_total"), std::string::npos);
  EXPECT_EQ(svc.report(outcome.job_id).find("sesame.service."),
            std::string::npos);
}

TEST(Http, IncrementalParserReassemblesSplitRequests) {
  const std::string raw =
      "POST /api/v1/campaigns?x=1 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Length: 11\r\n"
      "\r\n"
      "{\"runs\": 4}";
  service::HttpConnection conn;
  // Feed one byte at a time: the request must assemble exactly once.
  std::optional<service::HttpRequest> req;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    auto got = conn.feed(raw.data() + i, 1);
    if (got) {
      EXPECT_EQ(i, raw.size() - 1);
      req = std::move(got);
    }
  }
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "POST");
  EXPECT_EQ(req->path, "/api/v1/campaigns");
  EXPECT_EQ(req->query, "x=1");
  EXPECT_EQ(req->headers.at("content-length"), "11");
  EXPECT_EQ(req->body, "{\"runs\": 4}");

  service::HttpConnection bad;
  bad.feed("garbage\r\n\r\n", 11);
  EXPECT_TRUE(bad.failed());

  // Content-Length is plain ASCII digits up to the 1 MiB body bound; a
  // sign, trailing junk, an empty value or an oversize length fails the
  // connection before any body is buffered.
  for (const std::string length :
       {"-1", "12abc", "+5", "", "1048577", "1000000000",
        "99999999999999999999999"}) {
    const std::string head = "POST /api/v1/campaigns HTTP/1.1\r\n"
                             "Content-Length: " + length + "\r\n\r\n";
    service::HttpConnection conn_bad;
    EXPECT_FALSE(conn_bad.feed(head.data(), head.size()).has_value());
    EXPECT_TRUE(conn_bad.failed()) << "Content-Length: " << length;
  }
  // The bound itself is admitted, leading zeros included.
  for (const std::string length : {"1048576", "000"}) {
    const std::string head = "POST /api/v1/campaigns HTTP/1.1\r\n"
                             "Content-Length: " + length + "\r\n\r\n";
    service::HttpConnection conn_ok;
    conn_ok.feed(head.data(), head.size());
    EXPECT_FALSE(conn_ok.failed()) << "Content-Length: " << length;
  }
}

TEST(Http, RoutesTheFullJobLifecycle) {
  service::CampaignService svc;
  const service::Submission s = tiny_submission("alpha", 77);

  const auto respond = [&](const std::string& method, const std::string& path,
                           const std::string& body = "",
                           const std::string& query = "") {
    service::HttpRequest req;
    req.method = method;
    req.path = path;
    req.query = query;
    req.body = body;
    return service::handle_request(svc, req);
  };

  // Submit.
  const auto accepted =
      respond("POST", "/api/v1/campaigns", service::submission_to_json(s));
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  const auto job = static_cast<std::uint64_t>(
      ode::parse_json(accepted.body).at("job").as_number());
  const std::string base = "/api/v1/jobs/" + std::to_string(job);

  // Malformed and misrouted requests map to protocol errors.
  EXPECT_EQ(respond("POST", "/api/v1/campaigns", "{oops").status, 400);
  EXPECT_EQ(respond("GET", "/api/v1/campaigns").status, 405);
  EXPECT_EQ(respond("GET", "/api/v1/jobs/999999").status, 404);
  EXPECT_EQ(respond("GET", "/nope").status, 404);
  EXPECT_EQ(respond("GET", base + "/nope").status, 404);

  ASSERT_EQ(svc.wait(job).state, service::JobState::kCompleted);

  const auto status = respond("GET", base);
  EXPECT_EQ(status.status, 200);
  EXPECT_EQ(ode::parse_json(status.body).at("state").as_string(),
            "completed");

  const auto events = respond("GET", base + "/events", "", "cursor=0");
  EXPECT_EQ(events.status, 200);
  EXPECT_GE(ode::parse_json(events.body).at("events").as_array().size(), 3u);

  // The report route returns the byte-identity surface verbatim.
  const auto report = respond("GET", base + "/report");
  EXPECT_EQ(report.status, 200);
  EXPECT_EQ(report.body, svc.report(job));
  EXPECT_EQ(report.body, expected_report_bytes(s));

  const auto health = respond("GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  const auto metrics = respond("GET", "/metrics");
  EXPECT_NE(metrics.body.find("sesame_service_jobs_completed_total"),
            std::string::npos);

  svc.drain();
  EXPECT_EQ(
      respond("POST", "/api/v1/campaigns", service::submission_to_json(s))
          .status,
      503);
}

TEST(Wire, LoopbackSessionDeliversByteIdenticalReport) {
  // The 2-vehicle report fits one frame; the 128-vehicle one is over
  // 64 KiB, so it travels as several frames after its announcement.
  std::size_t largest_report = 0;
  for (const service::Submission& s :
       {tiny_submission("alpha", 55),
        tiny_submission("alpha", 56, /*runs=*/1, /*n_uavs=*/128)}) {
    SCOPED_TRACE("n_uavs " + ode::parse_json(s.config_json)
                                 .at("n_uavs")
                                 .to_json());
    service::CampaignService svc;
    sesame::mw::Bus alert_bus;
    service::WireSession server(svc, alert_bus, "test_link");
    service::WireClient client;
    server.start();
    client.start();

    client.submit(s);
    pump(server, client);

    ASSERT_TRUE(client.established());
    ASSERT_TRUE(client.has_response());
    const auto accepted = ode::parse_json(client.pop_response());
    ASSERT_EQ(accepted.at("type").as_string(), "accepted")
        << accepted.to_json();
    const auto job =
        static_cast<std::uint64_t>(accepted.at("job").as_number());

    ASSERT_EQ(svc.wait(job).state, service::JobState::kCompleted);

    client.poll_events(job, 0);
    pump(server, client);

    // The poll of a completed job streams the events, announces the
    // report, and ships its raw bytes.
    ASSERT_TRUE(client.has_response());
    const auto events = ode::parse_json(client.pop_response());
    EXPECT_EQ(events.at("type").as_string(), "events");
    EXPECT_GE(events.at("events").as_array().size(), 3u);
    ASSERT_TRUE(client.report_received());
    EXPECT_EQ(client.report(), expected_report_bytes(s));
    largest_report = std::max(largest_report, client.report().size());

    // A clean session raises no wire-security alerts.
    server.poll_security(1.0);
    EXPECT_EQ(server.counters().crc_errors, 0u);
    EXPECT_EQ(server.counters().replays_rejected, 0u);
  }
  EXPECT_GT(largest_report, std::size_t{1} << 16);
}

TEST(Wire, WindowOneClientReceivesAMultiFrameReport) {
  // The client lets the server have one reply frame outstanding, so every
  // frame after the first waits for the client to credit the one before.
  const service::Submission s =
      tiny_submission("alpha", 56, /*runs=*/1, /*n_uavs=*/128);
  service::CampaignService svc;
  sesame::mw::Bus alert_bus;
  service::WireSession server(svc, alert_bus, "test_link");
  sesame::mw::FramingConfig one;
  one.window = 1;
  service::WireClient client(one);
  server.start();
  client.start();
  client.submit(s);
  pump(server, client);
  ASSERT_TRUE(client.has_response());
  const auto accepted = ode::parse_json(client.pop_response());
  ASSERT_EQ(accepted.at("type").as_string(), "accepted") << accepted.to_json();
  const auto job = static_cast<std::uint64_t>(accepted.at("job").as_number());
  ASSERT_EQ(svc.wait(job).state, service::JobState::kCompleted);

  client.poll_events(job, 0);
  pump(server, client);
  ASSERT_TRUE(client.report_received());
  EXPECT_GT(client.report().size(), std::size_t{1} << 16);
  EXPECT_EQ(client.report(), expected_report_bytes(s));
  EXPECT_EQ(server.counters().window_violations, 0u);
}

TEST(Wire, BadRequestsGetStructuredErrors) {
  service::CampaignService svc;
  sesame::mw::Bus alert_bus;
  service::WireSession server(svc, alert_bus, "test_link");
  service::WireClient client;
  server.start();
  client.start();

  client.poll_events(404, 0);  // no such job
  pump(server, client);
  ASSERT_TRUE(client.has_response());
  const auto reply = ode::parse_json(client.pop_response());
  EXPECT_EQ(reply.at("type").as_string(), "error");
  EXPECT_NE(reply.at("error").as_string().find("no such job"),
            std::string::npos);

  // A submission over the cost cap is a structured rejection, as runs_cap.
  service::Submission priced_out;
  priced_out.preset = "baseline";
  priced_out.runs = 1;
  priced_out.config_json = R"({"n_uavs": 20000, "max_time_s": 1e9})";
  client.submit(priced_out);
  pump(server, client);
  ASSERT_TRUE(client.has_response());
  const auto rejected = ode::parse_json(client.pop_response());
  EXPECT_EQ(rejected.at("type").as_string(), "rejected");
  EXPECT_EQ(rejected.at("reason").as_string(), "cost_cap");
}

// --- Daemon connections over a socketpair ----------------------------------

namespace {

/// The shared state of one daemon's connections.
struct Daemon {
  service::CampaignService svc;
  sesame::mw::Bus alert_bus;
  sesame::obs::Observability wire_obs;
  service::ConnectionContext context{svc, alert_bus, wire_obs};
};

/// Both ends of an AF_UNIX stream pair.
std::pair<int, int> socket_pair() {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  return {sv[0], sv[1]};
}

/// A wire peer writing hand-built frames: unlike mw::Framing it sends
/// whatever it likes, whatever window credit the server granted.
struct RawWirePeer {
  std::uint64_t seq = 0;

  std::vector<std::uint8_t> frame(sesame::mw::Framing::FrameType type,
                                  std::span<const std::uint8_t> body) {
    std::vector<std::uint8_t> plain{static_cast<std::uint8_t>(type)};
    ++seq;
    for (int i = 0; i < 8; ++i) {
      plain.push_back(static_cast<std::uint8_t>(seq >> (8 * i)));
    }
    plain.insert(plain.end(), body.begin(), body.end());
    const std::uint32_t crc = sesame::mw::crc32_ieee(plain);
    for (int i = 0; i < 4; ++i) {
      plain.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
    }
    std::vector<std::uint8_t> wire;
    sesame::mw::cobs_encode(plain, wire);
    return wire;
  }
  std::vector<std::uint8_t> init(std::uint16_t window) {
    const std::uint8_t body[] = {static_cast<std::uint8_t>(window),
                                 static_cast<std::uint8_t>(window >> 8), 1, 0};
    return frame(sesame::mw::Framing::FrameType::kInit, body);
  }
  std::vector<std::uint8_t> release(std::uint16_t count) {
    const std::uint8_t body[] = {static_cast<std::uint8_t>(count),
                                 static_cast<std::uint8_t>(count >> 8)};
    return frame(sesame::mw::Framing::FrameType::kReleaseWindow, body);
  }
  std::vector<std::uint8_t> message(const std::string& text) {
    return frame(sesame::mw::Framing::FrameType::kMessage,
                 {reinterpret_cast<const std::uint8_t*>(text.data()),
                  text.size()});
  }
};

/// Runs a job whose report is about 800 bytes per vehicle (50 KB, one
/// frame, for the default 64) and returns it with a poll request for it.
/// Polling past the last event keeps each events reply small.
std::pair<std::string, std::string> flood_target(Daemon& daemon,
                                                 std::size_t n_uavs = 64) {
  const auto submitted =
      daemon.svc.submit(tiny_submission("flood", 7, /*runs=*/1, n_uavs));
  EXPECT_TRUE(submitted.accepted);
  const std::uint64_t job = submitted.job_id;
  EXPECT_EQ(daemon.svc.wait(job).state, service::JobState::kCompleted);
  const std::size_t cursor = daemon.svc.events(job, 0).size();
  return {daemon.svc.report(job),
          R"({"cursor":)" + std::to_string(cursor) + R"(,"job":)" +
              std::to_string(job) + R"(,"type":"poll"})"};
}

}  // namespace

TEST(Connection, PeerThatNeverReadsStallsReadsInsteadOfGrowingMemory) {
  Daemon daemon;
  const auto [report, poll] = flood_target(daemon);
  ASSERT_GT(report.size(), 40000u);
  ASSERT_LT(report.size(), 65000u);
  // Wire bytes one poll's replies can take: events, announcement, report.
  const std::size_t reply_bytes = report.size() + report.size() / 100 + 1024;
  constexpr int kPolls = 3000;

  // The peer sends 3,000 polls whatever credit the server granted. Window
  // 65535: the peer grants the server credit, so each request is handled
  // and credited, its replies wait unsent, and reads stop at the
  // high-water mark. Window 1: the peer grants none, so replies wait in
  // the session for credit, later requests are held uncredited, and the
  // first request beyond the server's window closes the connection.
  for (const std::uint16_t window : {std::uint16_t{65535}, std::uint16_t{1}}) {
    SCOPED_TRACE("peer window " + std::to_string(window));
    const auto [server_fd, peer_fd] = socket_pair();
    service::ServiceConnection conn(server_fd, daemon.context, 0.0, "flood");
    sesame::mw::SocketPump peer(peer_fd);
    RawWirePeer raw;
    peer.queue(raw.init(window));
    std::size_t poll_frame_bytes = 0;
    for (int i = 0; i < kPolls; ++i) {
      const auto frame = raw.message(poll);
      poll_frame_bytes = frame.size();
      peer.queue(frame);
    }

    // The peer writes and never reads, until nothing moves any more. A
    // round can read requests that are held, which nothing here counts;
    // 65 such rounds read more requests than the server's window.
    std::size_t max_held = 0;
    for (int round = 0, quiet = 0;
         round < 100000 && quiet < 65 && !conn.finished(0.0); ++round) {
      const std::size_t peer_before = peer.owed();
      const std::size_t conn_before = conn.held_bytes();
      peer.flush();
      conn.service(POLLIN | POLLOUT, 0.0);
      max_held = std::max(max_held, conn.held_bytes());
      const bool moved =
          peer.owed() != peer_before || conn.held_bytes() != conn_before;
      quiet = moved ? 0 : quiet + 1;
    }
    // One read's requests may land after the mark is reached.
    const std::size_t polls_per_read =
        service::kReadChunkBytes / poll_frame_bytes + 1;
    EXPECT_LE(max_held,
              service::kHighWaterBytes + polls_per_read * reply_bytes);
    EXPECT_LE(max_held, std::size_t{8} << 20);
    if (window == 1) {
      EXPECT_STREQ(conn.finished(0.0), "window_violation");
      continue;
    }
    EXPECT_FALSE(conn.finished(0.0));
    EXPECT_GE(conn.held_bytes(), service::kHighWaterBytes);  // it stalled

    // The peer reads and grants credit: every reply arrives, in order.
    sesame::mw::Framing decoder;  // its own outbound frames are unused
    std::size_t replies = 0;
    std::size_t misplaced = 0;
    std::size_t credited = 0;
    for (int round = 0; round < 1000000 && replies < 3 * kPolls; ++round) {
      peer.flush();
      peer.read([&](std::span<const std::uint8_t> bytes) {
        decoder.feed(bytes, [&](std::span<const std::uint8_t> payload,
                                std::uint64_t) {
          const std::string text(
              reinterpret_cast<const char*>(payload.data()), payload.size());
          bool ok = false;
          if (replies % 3 == 2) {
            ok = text == report;
          } else {
            const auto doc = ode::parse_json(text);
            ok = doc.at("type").as_string() ==
                 (replies % 3 == 0 ? "events" : "report_follows");
          }
          misplaced += ok ? 0 : 1;
          ++replies;
          decoder.release(1);
        });
      });
      if (replies > credited) {
        peer.queue(raw.release(static_cast<std::uint16_t>(replies - credited)));
        credited = replies;
      }
      conn.service(POLLIN | POLLOUT, 0.0);
      max_held = std::max(max_held, conn.held_bytes());
    }
    EXPECT_EQ(replies, 3u * kPolls);
    EXPECT_EQ(misplaced, 0u);
    EXPECT_LE(max_held, std::size_t{8} << 20);
    EXPECT_EQ(decoder.counters().crc_errors, 0u);
    EXPECT_FALSE(conn.finished(0.0));
  }
}

TEST(Connection, OneReadOfPipelinedPollsHoldsAtMostTwoMarks) {
  // A peer granting credit pipelines 24 polls for a report over 256 KB in
  // one write. The credit lets each reply out as soon as it is made, so
  // the session counts the bytes nobody has taken yet against the mark:
  // one read handles polls only until a mark of replies waits. The rest
  // are held, and resume as the peer reads even when it sends nothing
  // more (its window covers every reply, so it owes no credit).
  Daemon daemon;
  const auto [report, poll] = flood_target(daemon, /*n_uavs=*/384);
  ASSERT_GE(report.size(), std::size_t{256} * 1024);
  const std::size_t reply_bytes = report.size() + report.size() / 100 + 1024;
  constexpr std::size_t kPolls = 24;

  for (const bool credits : {true, false}) {
    SCOPED_TRACE(credits ? "peer credits as it reads" : "peer only reads");
    const auto [server_fd, peer_fd] = socket_pair();
    service::ServiceConnection conn(server_fd, daemon.context, 0.0,
                                    "pipeline");
    sesame::mw::SocketPump peer(peer_fd);
    RawWirePeer raw;
    std::vector<std::uint8_t> burst = raw.init(65535);
    for (std::size_t i = 0; i < kPolls; ++i) {
      const auto frame = raw.message(poll);
      burst.insert(burst.end(), frame.begin(), frame.end());
    }
    peer.queue(std::move(burst));
    peer.flush();
    ASSERT_EQ(peer.owed(), 0u);  // one write

    conn.service(POLLIN | POLLOUT, 0.0);  // the first read
    EXPECT_LE(conn.held_bytes(), 2 * service::kHighWaterBytes + reply_bytes);

    // The peer reads: every poll is answered, in order.
    sesame::mw::Framing decoder;  // its own outbound frames are unused
    std::size_t answered = 0;
    std::size_t misplaced = 0;
    std::size_t frames = 0;
    std::size_t credited = 0;
    std::size_t announced = 0;  // report bytes still to come
    std::string partial;
    for (int round = 0; round < 100000 && answered < kPolls; ++round) {
      peer.read([&](std::span<const std::uint8_t> bytes) {
        decoder.feed(bytes, [&](std::span<const std::uint8_t> payload,
                                std::uint64_t) {
          ++frames;
          decoder.release(1);
          const std::string text(
              reinterpret_cast<const char*>(payload.data()), payload.size());
          if (announced > 0) {
            partial += text;
            if (partial.size() < announced) return;
            misplaced += partial == report ? 0 : 1;
            ++answered;
            partial.clear();
            announced = 0;
            return;
          }
          const auto doc = ode::parse_json(text);
          if (doc.at("type").as_string() == "report_follows") {
            announced = doc.at("bytes").as_integer<std::size_t>();
          } else {
            misplaced += doc.at("type").as_string() == "events" ? 0 : 1;
          }
        });
      });
      if (credits && frames > credited) {
        peer.queue(
            raw.release(static_cast<std::uint16_t>(frames - credited)));
        credited = frames;
      }
      peer.flush();
      conn.service(POLLIN | POLLOUT, 0.0);
    }
    EXPECT_EQ(answered, kPolls);
    EXPECT_EQ(misplaced, 0u);
    EXPECT_EQ(decoder.counters().crc_errors, 0u);
    EXPECT_FALSE(conn.finished(0.0));
  }
}

TEST(Connection, PipelinedClientWithSmallWindowCompletes) {
  // A well-behaved client pipelines 1.3 MB of requests inside the
  // server's window and reads and credits the replies as they come, one
  // (or four) outstanding at a time. Every reply must arrive without the
  // idle timeout: the server's held requests may not stop it reading the
  // client's credit.
  Daemon daemon;
  const auto [report, poll] = flood_target(daemon);
  const std::string padded = poll.substr(0, poll.size() - 1) +
                             R"(,"pad":")" + std::string(16 * 1024, 'x') +
                             R"("})";
  constexpr std::size_t kPolls = 40 + 80;  // the last 80 padded
  for (const std::uint16_t window : {1, 4, 64}) {
    SCOPED_TRACE("client window " + std::to_string(window));
    const auto [server_fd, client_fd] = socket_pair();
    service::ServiceConnection conn(server_fd, daemon.context, 0.0, "client");
    sesame::mw::SocketPump socket(client_fd);
    sesame::mw::FramingConfig config;
    config.window = window;
    sesame::mw::Framing client(config);
    client.start();
    for (std::size_t i = 0; i < kPolls; ++i) {
      const std::string& text = i < 40 ? poll : padded;
      client.send_message({reinterpret_cast<const std::uint8_t*>(text.data()),
                           text.size()});
    }

    std::size_t replies = 0;
    std::size_t misplaced = 0;
    for (int round = 0; round < 20000 && replies < 3 * kPolls; ++round) {
      socket.queue(client.take_outbound());
      socket.flush();
      conn.service(POLLIN | POLLOUT, 0.0);
      socket.read([&](std::span<const std::uint8_t> bytes) {
        client.feed(bytes, [&](std::span<const std::uint8_t> payload,
                               std::uint64_t) {
          const std::string text(
              reinterpret_cast<const char*>(payload.data()), payload.size());
          misplaced += replies % 3 == 2 ? (text == report ? 0 : 1) : 0;
          ++replies;
          client.release(1);
        });
      });
    }
    EXPECT_EQ(replies, 3 * kPolls);
    EXPECT_EQ(misplaced, 0u);
    EXPECT_EQ(client.counters().window_violations, 0u);
    EXPECT_FALSE(conn.finished(0.0));
  }
}

TEST(Connection, HungUpPeerFinishesWhileItsReadsAreStalled) {
  Daemon daemon;
  const auto [report, poll] = flood_target(daemon);
  const auto [server_fd, peer_fd] = socket_pair();
  service::ServiceConnection conn(server_fd, daemon.context, 0.0, "flood");
  {
    // The peer grants credit but never reads: replies wait unsent until
    // the connection stops reading, with more of the peer's (padded)
    // requests still queued behind them.
    sesame::mw::SocketPump peer(peer_fd);
    RawWirePeer raw;
    peer.queue(raw.init(65535));
    const std::string padded =
        poll.substr(0, poll.size() - 1) + R"(,"pad":")" +
        std::string(16 * 1024, 'x') + R"("})";
    for (std::size_t queued = 0; queued < 2 * service::kHighWaterBytes;) {
      const auto frame = raw.message(padded);
      queued += frame.size();
      peer.queue(frame);
    }
    for (int round = 0; round < 100000 && (conn.poll_events() & POLLIN) != 0;
         ++round) {
      peer.flush();
      conn.service(POLLIN | POLLOUT, 0.0);
    }
    ASSERT_EQ(conn.poll_events(), POLLOUT);  // stalled on unsent bytes
    ASSERT_GT(peer.owed(), 0u);              // and the peer still had more
  }  // the peer hangs up

  // poll() reports the hang-up even though no read is asked for; each
  // wake-up must make progress until the connection finishes.
  int wakeups = 0;
  const char* end = nullptr;
  for (; wakeups < 10000 && !(end = conn.finished(0.0)); ++wakeups) {
    pollfd p{server_fd, conn.poll_events(), 0};
    ASSERT_EQ(::poll(&p, 1, 1000), 1);
    conn.service(p.revents, 0.0);
  }
  EXPECT_STREQ(end, "peer_reset");  // its replies were lost
  EXPECT_LT(wakeups, 10000);
}

TEST(Connection, HttpRequestFollowedByHalfCloseGetsTheWholeResponse) {
  Daemon daemon;
  const auto [server_fd, client_fd] = socket_pair();
  std::optional<service::ServiceConnection> conn;
  conn.emplace(server_fd, daemon.context, 0.0);
  sesame::mw::SocketPump client(client_fd);
  client.queue(std::string_view("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n"));
  client.flush();
  ::shutdown(client_fd, SHUT_WR);  // FIN right after the request

  std::string response;
  for (int round = 0; round < 1000 && !client.eof(); ++round) {
    if (conn) {
      conn->service(POLLIN | POLLOUT, 0.0);
      if (conn->finished(0.0)) conn.reset();  // closes the server end
    }
    client.read([&](std::span<const std::uint8_t> bytes) {
      response.append(reinterpret_cast<const char*>(bytes.data()),
                      bytes.size());
    });
  }
  EXPECT_FALSE(conn.has_value());
  ASSERT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
  const std::size_t head_end = response.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos);
  const std::string length = "Content-Length: " +
                             std::to_string(response.size() - head_end - 4);
  EXPECT_NE(response.find(length), std::string::npos) << response;
}

TEST(Connection, IdleAndMalformedConnectionsAreClosed) {
  Daemon daemon;
  const auto [idle_fd, idle_peer] = socket_pair();
  service::ServiceConnection idle(idle_fd, daemon.context, 10.0, "idle");
  idle.service(POLLOUT, 10.0);  // sends the handshake: a byte moved
  EXPECT_FALSE(idle.finished(10.0 + service::kIdleTimeoutS));
  EXPECT_STREQ(idle.finished(10.0 + service::kIdleTimeoutS + 1.0), "idle");
  ::close(idle_peer);

  const auto [bad_fd, bad_peer] = socket_pair();
  service::ServiceConnection bad(bad_fd, daemon.context, 0.0);
  sesame::mw::SocketPump peer(bad_peer);
  peer.queue(std::string_view("POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n"));
  peer.flush();
  EXPECT_FALSE(bad.finished(0.0));
  bad.service(POLLIN, 0.0);
  EXPECT_STREQ(bad.finished(0.0), "malformed");
}

TEST(Drain, SignalLatchTripsOnceAndIsExclusive) {
  {
    service::DrainSignal drain;
    EXPECT_FALSE(drain.requested());
    EXPECT_FALSE(drain.flag()->load());

    // Only one latch may own the process-wide handlers at a time.
    EXPECT_THROW(service::DrainSignal(), std::logic_error);

    std::raise(SIGTERM);  // the installed handler only flips the latch
    EXPECT_TRUE(drain.requested());
    EXPECT_TRUE(drain.flag()->load());
  }
  // A new latch installs un-tripped.
  service::DrainSignal again;
  EXPECT_FALSE(again.requested());
}
