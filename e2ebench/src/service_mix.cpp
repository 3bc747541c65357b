// service_mix: an in-process CampaignService (2 executors x 1 job) driven
// as an open loop from one generator thread. Four tenants submit 4-run
// campaigns: two through the HTTP adapter, two through an in-memory
// WireClient <-> WireSession loopback. A light phase (about a third of
// capacity) gives the latency figures, an overload phase (above capacity)
// the delivered throughput and goodput. Every report is compared after the
// timed window with campaign_json of the same resolved submission.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "load.hpp"
#include "sesame/campaign/report.hpp"
#include "sesame/eddi/ode.hpp"
#include "sesame/mw/bus.hpp"
#include "sesame/service/http.hpp"
#include "sesame/service/service.hpp"
#include "sesame/service/submission.hpp"
#include "sesame/service/wire.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace e2ebench {

namespace service = sesame::service;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kRunsPerSubmission = 4;
/// Offered rates, fixed so that every commit sees the same load. The mix
/// (load.hpp) saturates 2 executors at about 90 submissions/s on a 4-core
/// x86-64 host.
constexpr double kLightRatePerS = 24.0;
constexpr double kOverloadRatePerS = 130.0;
/// Share of the measured window spent in the light phase.
constexpr double kLightShare = 0.6;
/// A submission counts toward goodput when its report is in hand within
/// this long of its due time.
constexpr double kLatencyLimitMs = 500.0;
constexpr auto kPollInterval = std::chrono::microseconds(200);
constexpr const char* kTenants[] = {"http-a", "http-b", "wire-a", "wire-b"};
constexpr double kFailed = std::numeric_limits<double>::infinity();

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

LoadShape load_shape(double seconds) {
  LoadShape shape;
  shape.light_rate_per_s = kLightRatePerS;
  shape.light_s = kLightShare * seconds;
  shape.overload_rate_per_s = kOverloadRatePerS;
  shape.overload_s = (1.0 - kLightShare) * seconds;
  shape.tenants = std::size(kTenants);
  return shape;
}

service::Submission submission_for(const Arrival& a) {
  service::Submission s;
  s.tenant = kTenants[a.tenant];
  s.preset = a.preset;
  s.runs = kRunsPerSubmission;
  s.seed = a.campaign_seed;
  return s;
}

bool is_http(std::size_t tenant) { return tenant < 2; }

/// The service plus one wire session/client pair per wire tenant (null for
/// the HTTP tenants). Member order matters: sessions borrow the service and
/// the alert bus.
struct Stack {
  sesame::mw::Bus alert_bus;
  service::CampaignService service;
  std::vector<std::unique_ptr<service::WireSession>> sessions;
  std::vector<std::unique_ptr<service::WireClient>> clients;

  static service::ServiceLimits limits() {
    service::ServiceLimits l;
    l.executors = 2;
    l.jobs_per_campaign = 1;
    // The overload phase must queue, not refuse: a refusal is a failure.
    l.max_queued = 1u << 20;
    l.max_queued_per_tenant = 1u << 20;
    return l;
  }

  Stack() : service(limits()) {
    for (std::size_t t = 0; t < std::size(kTenants); ++t) {
      sessions.emplace_back();
      clients.emplace_back();
      if (is_http(t)) continue;
      sessions[t] = std::make_unique<service::WireSession>(service, alert_bus,
                                                           kTenants[t]);
      clients[t] = std::make_unique<service::WireClient>();
      sessions[t]->start();
      clients[t]->start();
      pump(t);
      if (!clients[t]->established()) {
        throw std::runtime_error("wire handshake failed");
      }
    }
  }

  /// Moves bytes both ways until neither side has anything to send.
  void pump(std::size_t t) {
    service::WireSession& s = *sessions[t];
    service::WireClient& c = *clients[t];
    for (int i = 0; i < 256; ++i) {
      bool moved = false;
      if (c.has_outbound()) {
        s.feed(c.take_outbound());
        moved = true;
      }
      if (s.has_outbound()) {
        c.feed(s.take_outbound());
        moved = true;
      }
      if (!moved) return;
    }
    throw std::runtime_error("wire pump did not quiesce");
  }

  /// One HTTP exchange through the adapter: parse, route, serialize.
  std::string http(const std::string& raw) {
    service::HttpConnection conn;
    const auto req = conn.feed(raw.data(), raw.size());
    if (!req) throw std::runtime_error("incomplete HTTP request");
    return service::serialize_response(service::handle_request(service, *req));
  }
};

std::string http_body(const std::string& response) {
  const auto head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos) throw std::runtime_error("bad response");
  return response.substr(head_end + 4);
}

bool http_status_is(const std::string& response, const char* code) {
  return response.compare(9, 3, code) == 0;
}

/// Per-arrival record of the measured window.
struct Outcome {
  double late_ms = 0.0;       ///< submit time minus due time
  double latency_ms = kFailed;  ///< due time -> report bytes in hand
  double done_s = kFailed;    ///< report in hand, seconds since window start
  std::uint64_t digest = 0;
  std::string error;
};

struct PassResult {
  std::vector<Outcome> outcomes;
  std::size_t cache_hits = 0;
  std::size_t accepted = 0;
  double first_result_ms = 0.0;  ///< mean submit -> first result
};

/// Mean of the service's submit-to-first-result histogram, from its
/// Prometheus text.
double mean_first_result_ms(const std::string& prometheus) {
  double sum = 0.0, count = 0.0;
  std::istringstream lines(prometheus);
  std::string line;
  const std::string base = "sesame_service_submit_to_first_result_seconds";
  while (std::getline(lines, line)) {
    const auto value = [&] { return std::stod(line.substr(line.rfind(' ') + 1)); };
    if (line.rfind(base + "_sum", 0) == 0) sum += value();
    if (line.rfind(base + "_count", 0) == 0) count += value();
  }
  return count > 0.0 ? 1000.0 * sum / count : 0.0;
}

/// Drives one pass of the schedule. With a span log, every adapter
/// exchange is a span under its job's span.
PassResult drive(Stack& stack, const std::vector<Arrival>& schedule,
                 SpanLog* log) {
  PassResult pass;
  pass.outcomes.resize(schedule.size());
  struct Pending {
    std::size_t arrival;
    std::uint64_t job;
    std::uint64_t span;
  };
  std::vector<Pending> pending;

  const auto t0 = Clock::now();
  const auto due = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(schedule[i].due_s));
  };
  // Runs one adapter exchange, as a span when tracing.
  const auto exchange = [&](const char* layer, std::uint64_t parent,
                            std::size_t i, const auto& fn) {
    const double s0 = log != nullptr ? log->now_us() : 0.0;
    auto out = fn();
    if (log != nullptr) {
      log->add(layer, parent, "submission " + std::to_string(i), s0,
               log->now_us());
    }
    return out;
  };

  // Sends submission i through its tenant's adapter. Returns the job id,
  // or nullopt with the refusal recorded.
  const auto send = [&](std::size_t i,
                        std::uint64_t span) -> std::optional<std::uint64_t> {
    const Arrival& a = schedule[i];
    Outcome& o = pass.outcomes[i];
    const service::Submission s = submission_for(a);
    std::optional<std::uint64_t> job;
    if (is_http(a.tenant)) {
      const std::string body = service::submission_to_json(s);
      const std::string response =
          exchange("service.http", span, i, [&] {
            return stack.http(
                "POST /api/v1/campaigns HTTP/1.1\r\nHost: e2ebench\r\n"
                "Content-Length: " + std::to_string(body.size()) +
                "\r\n\r\n" + body);
          });
      if (http_status_is(response, "202")) {
        job = static_cast<std::uint64_t>(
            sesame::eddi::ode::parse_json(http_body(response))
                .at("job")
                .as_number());
      } else {
        o.error = "refused: " + http_body(response);
      }
    } else {
      service::WireClient& client = *stack.clients[a.tenant];
      const std::string reply = exchange("service.wire", span, i, [&] {
        client.submit(s);
        stack.pump(a.tenant);
        return client.has_response() ? client.pop_response() : std::string();
      });
      const auto doc = sesame::eddi::ode::parse_json(reply);
      if (doc.at("type").as_string() == "accepted") {
        job = static_cast<std::uint64_t>(doc.at("job").as_number());
      } else {
        o.error = "refused: " + reply;
      }
    }
    return job;
  };

  const auto submit = [&](std::size_t i) {
    Outcome& o = pass.outcomes[i];
    o.late_ms = ms_between(due(i), Clock::now());
    const std::uint64_t span = log != nullptr ? log->reserve() : 0;
    try {
      if (const auto job = send(i, span)) {
        ++pass.accepted;
        pending.push_back({i, *job, span});
      }
    } catch (const std::exception& e) {
      o.error = std::string("submit: ") + e.what();
    }
  };

  const auto fetch = [&](const Pending& p) -> std::optional<std::string> {
    const Arrival& a = schedule[p.arrival];
    if (is_http(a.tenant)) {
      const std::string response = exchange("service.http", p.span, p.arrival, [&] {
        return stack.http("GET /api/v1/jobs/" + std::to_string(p.job) +
                          "/report HTTP/1.1\r\nHost: e2ebench\r\n\r\n");
      });
      if (!http_status_is(response, "200")) return std::nullopt;
      return http_body(response);
    }
    service::WireClient& client = *stack.clients[a.tenant];
    return exchange("service.wire", p.span, p.arrival,
                    [&]() -> std::optional<std::string> {
      client.poll_events(p.job, 0);
      stack.pump(a.tenant);
      bool follows = false;
      while (client.has_response()) {
        const auto doc = sesame::eddi::ode::parse_json(client.pop_response());
        follows |= doc.at("type").as_string() == "report_follows" &&
                   static_cast<std::uint64_t>(doc.at("job").as_number()) ==
                       p.job;
      }
      if (!follows || !client.report_received()) return std::nullopt;
      return client.report();
    });
  };

  std::size_t next = 0;
  while (next < schedule.size() || !pending.empty()) {
    while (next < schedule.size() && due(next) <= Clock::now()) submit(next++);
    for (auto it = pending.begin(); it != pending.end();) {
      const service::JobStatus st = stack.service.status(it->job);
      if (st.state == service::JobState::kQueued ||
          st.state == service::JobState::kRunning) {
        ++it;
        continue;
      }
      Outcome& o = pass.outcomes[it->arrival];
      if (st.state == service::JobState::kCompleted) {
        std::optional<std::string> report;
        try {
          report = fetch(*it);
        } catch (const std::exception& e) {
          o.error = std::string("fetch: ") + e.what();
        }
        const auto now = Clock::now();
        if (report) {
          o.latency_ms = ms_between(due(it->arrival), now);
          o.done_s = std::chrono::duration<double>(now - t0).count();
          o.digest = service::fnv1a64(*report);
        } else if (o.error.empty()) {
          o.error = "report fetch failed";
        }
      } else {
        o.error = std::string("job ") + service::job_state_name(st.state) +
                  ": " + st.error;
      }
      if (log != nullptr) {
        log->add_with_id(it->span, "service.job", 0,
                         "submission " + std::to_string(it->arrival),
                         log->us(due(it->arrival)), log->now_us());
      }
      it = pending.erase(it);
    }
    auto wake = Clock::now() + kPollInterval;
    if (next < schedule.size()) wake = std::min(wake, due(next));
    std::this_thread::sleep_until(wake);
  }
  pass.cache_hits = stack.service.cache_hits();
  pass.first_result_ms = mean_first_result_ms(stack.service.metrics_prometheus());
  return pass;
}

/// campaign_json digest of every distinct submission in the schedule,
/// computed directly (not through the service), on 4 threads.
std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> expected_digests(
    const std::vector<Arrival>& schedule) {
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> expected;
  std::vector<const Arrival*> distinct;
  for (const auto& a : schedule) {
    if (expected.emplace(std::make_pair(a.preset, a.campaign_seed), 0).second) {
      distinct.push_back(&a);
    }
  }
  std::vector<std::uint64_t> digests(distinct.size());
  parallel_for(distinct.size(), [&](std::size_t i) {
    const service::ResolvedCampaign r =
        service::resolve(submission_for(*distinct[i]));
    digests[i] = service::fnv1a64(sesame::campaign::campaign_json(
        sesame::campaign::run_campaign(r.factory, r.config)));
  });
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    expected[{distinct[i]->preset, distinct[i]->campaign_seed}] = digests[i];
  }
  return expected;
}

/// Counts every refused, failed or wrong-bytes submission as a failure.
void check(const std::vector<Arrival>& schedule, const PassResult& pass,
           const std::map<std::pair<std::string, std::uint64_t>, std::uint64_t>&
               expected,
           WorkloadResult& result) {
  result.attempted += schedule.size();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Outcome& o = pass.outcomes[i];
    const std::string who = "submission " + std::to_string(i) + " (" +
                            kTenants[schedule[i].tenant] + ")";
    if (!o.error.empty()) {
      result.fail(who + ": " + o.error);
    } else if (o.digest !=
               expected.at({schedule[i].preset, schedule[i].campaign_seed})) {
      result.fail(who + ": report bytes differ from campaign_json");
    }
  }
}

std::vector<double> latencies(const std::vector<Arrival>& schedule,
                              const PassResult& pass, bool overload) {
  std::vector<double> out;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (schedule[i].overload == overload) {
      out.push_back(pass.outcomes[i].latency_ms);
    }
  }
  return out;
}

double tail_or_zero(const std::vector<double>& v, double q) {
  return tail_percentile(v, q).value_or(0.0);
}

}  // namespace

WorkloadResult run_service_mix(const RunOptions& options) {
  WorkloadResult result;
  const double seconds = options.trace ? options.seconds / 2.0 : options.seconds;
  const LoadShape shape = load_shape(seconds);

  // Set-up is the program's: service start-up and the wire handshakes.
  const std::vector<Arrival> schedule = arrival_schedule(options.seed, shape);
  std::unique_ptr<Stack> stack;
  const double setup_s = median_setup_s(
      [&] { stack.reset(); }, [&] { stack = std::make_unique<Stack>(); }, 1);

  const PassResult pass = drive(*stack, schedule, nullptr);
  const double rss_mb = peak_rss_mb();
  stack.reset();
  const auto expected = expected_digests(schedule);
  check(schedule, pass, expected, result);

  const std::vector<double> light = latencies(schedule, pass, false);
  // Delivered throughput: reports in hand from the start of the overload
  // phase until its backlog has cleared, while the executors are saturated.
  std::vector<double> late;
  std::size_t good = 0, delivered = 0;
  double backlog_cleared_s = shape.light_s;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Outcome& o = pass.outcomes[i];
    late.push_back(o.late_ms);
    if (schedule[i].overload && o.latency_ms <= kLatencyLimitMs) ++good;
    if (std::isfinite(o.done_s) && o.done_s >= shape.light_s) {
      ++delivered;
      backlog_cleared_s = std::max(backlog_cleared_s, o.done_s);
    }
  }
  const double light_p50 = light.empty() ? kFailed : median(light);

  if (!options.trace) {
    const double goodput = static_cast<double>(good) / shape.overload_s;
    result.metrics = {
        {"setup_s", setup_s, "s"},
        {"runs_per_s",
         delivered == 0 ? 0.0
                        : static_cast<double>(kRunsPerSubmission * delivered) /
                              (backlog_cleared_s - shape.light_s),
         "runs/s"},
        {"latency_p50_ms", light_p50, "ms"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    char line[256];
    std::snprintf(line, sizeof line,
                  "light %.0f/s: latency p50 %.4f ms, %s", kLightRatePerS,
                  light_p50, describe_percentile(light, 0.95, "ms").c_str());
    result.notes.push_back(line);
    std::snprintf(line, sizeof line,
                  "overload %.0f/s: goodput_per_s %.4f submissions/s within "
                  "%.0f ms (%zu of %zu)",
                  kOverloadRatePerS, goodput, kLatencyLimitMs, good,
                  latencies(schedule, pass, true).size());
    result.notes.push_back(line);
    std::snprintf(line, sizeof line,
                  "cache hits %zu of %zu accepted; generator late %s",
                  pass.cache_hits, pass.accepted,
                  describe_percentile(late, 0.95, "ms").c_str());
    result.notes.push_back(line);
    return result;
  }

  // Traced run: the same schedule again on a fresh stack, with spans.
  SpanLog log;
  Stack traced_stack;
  const PassResult traced = drive(traced_stack, schedule, &log);
  check(schedule, traced, expected, result);

  const auto http_us = log.durations_us("service.http");
  const auto wire_us = log.durations_us("service.wire");
  const double jobs_ms = log.total_ms("service.job");
  const double http_ms = log.total_ms("service.http");
  const double wire_ms = log.total_ms("service.wire");
  std::vector<double> traced_late;
  for (const auto& o : traced.outcomes) traced_late.push_back(o.late_ms);
  const std::vector<double> traced_light = latencies(schedule, traced, false);
  const double overhead_pct =
      traced_light.empty() ? 0.0
                           : 100.0 * (median(traced_light) - light_p50) / light_p50;

  print_layer_table(
      "service_mix per-layer self time (traced pass, " +
          std::to_string(schedule.size()) + " submissions)",
      {{0, "service.job", jobs_ms, static_cast<double>(log.count("service.job")),
        jobs_ms - http_ms - wire_ms},
       {1, "service.http", http_ms, static_cast<double>(http_us.size()), http_ms},
       {1, "service.wire", wire_ms, static_cast<double>(wire_us.size()), wire_ms}},
      jobs_ms);
  char line[160];
  std::snprintf(line, sizeof line,
                "light-phase latency p50: untraced pass %.4f ms, traced pass "
                "%.4f ms",
                light_p50, traced_light.empty() ? 0.0 : median(traced_light));
  result.notes.push_back(line);
  const std::string spans_path = options.out_dir + "/service_mix-seed" +
                                 std::to_string(options.seed) + "-spans.jsonl";
  log.write_jsonl(spans_path);
  result.notes.push_back("spans: " + spans_path);

  const double lookups = static_cast<double>(std::max<std::size_t>(1, traced.accepted));
  result.metrics = layer_metrics({
      {"service.http_us_p50", http_us.empty() ? 0.0 : median(http_us)},
      {"service.http_us_p95", tail_or_zero(http_us, 0.95)},
      {"service.wire_us_p50", wire_us.empty() ? 0.0 : median(wire_us)},
      {"service.wire_us_p95", tail_or_zero(wire_us, 0.95)},
      {"service.cache_hit_ratio",
       static_cast<double>(traced.cache_hits) / lookups},
      {"service.cache_lookups", lookups},
      {"service.rejections",
       static_cast<double>(schedule.size() - traced.accepted)},
      {"service.first_result_ms", traced.first_result_ms},
      {"load.late_ms_p95", tail_or_zero(traced_late, 0.95)},
      {"load.late_ms_max",
       *std::max_element(traced_late.begin(), traced_late.end())},
      {"obs.trace_overhead_pct", overhead_pct},
  });
  return result;
}

}  // namespace e2ebench
