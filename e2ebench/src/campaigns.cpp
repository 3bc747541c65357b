// paper_campaigns and fleet_1024: closed-loop batches of campaigns at
// --jobs 1, each report checked against its pinned digest.
//
// The campaigns a run executes come from a fixed pool per preset (campaign
// seeds 1..pool) whose report digests are pinned in data/digests.txt; the
// benchmark seed decides the order in which the pool is visited.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "load.hpp"
#include "sesame/campaign/campaign.hpp"
#include "sesame/campaign/report.hpp"
#include "sesame/campaign/scenario_factory.hpp"
#include "sesame/obs/observability.hpp"
#include "sesame/service/submission.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace e2ebench {

namespace campaign = sesame::campaign;
namespace obs = sesame::obs;
using Clock = std::chrono::steady_clock;

namespace {

struct CampaignWorkload {
  std::vector<std::string> presets;
  std::uint64_t pool;  ///< campaign seeds 1..pool per preset
  std::size_t runs;    ///< runs per campaign
};

const std::map<std::string, CampaignWorkload>& campaign_workloads() {
  static const std::map<std::string, CampaignWorkload> kWorkloads = {
      {"paper_campaigns",
       {{"nominal", "battery_fault", "spoofing", "spoofing_lossy", "chaos"},
        40,
        8}},
      {"fleet_1024", {{"fleet_1024"}, 32, 1}},
  };
  return kWorkloads;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string digest_key(const std::string& preset, std::uint64_t seed,
                       std::size_t runs) {
  return preset + " " + std::to_string(seed) + " " + std::to_string(runs);
}

/// Pinned digests, keyed by digest_key. Lines: "<workload> <preset>
/// <campaign seed> <runs> <fnv1a64 hex>"; '#' starts a comment.
std::map<std::string, std::uint64_t> load_digests(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digest table " + path);
  std::map<std::string, std::uint64_t> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, preset, hex;
    std::uint64_t seed = 0;
    std::size_t runs = 0;
    if (!(fields >> workload >> preset >> seed >> runs >> hex)) {
      throw std::runtime_error("bad digest line: " + line);
    }
    out[digest_key(preset, seed, runs)] = std::stoull(hex, nullptr, 16);
  }
  return out;
}

struct CampaignKey {
  std::size_t preset = 0;  ///< index into the workload's presets
  std::uint64_t seed = 0;
};

/// The seed-ordered walk over the pool: campaign k is preset k % P, and
/// each preset visits its pool in a seed-drawn permutation.
class CampaignOrder {
 public:
  CampaignOrder(const CampaignWorkload& w, std::uint64_t bench_seed) {
    SplitMix64 rng(bench_seed);
    for (std::size_t p = 0; p < w.presets.size(); ++p) {
      std::vector<std::uint64_t> seeds;
      for (std::uint64_t s = 1; s <= w.pool; ++s) seeds.push_back(s);
      for (std::size_t i = seeds.size(); i > 1; --i) {
        std::swap(seeds[i - 1], seeds[rng.below(i)]);
      }
      perms_.push_back(std::move(seeds));
    }
  }
  CampaignKey at(std::size_t k) const {
    const std::size_t p = k % perms_.size();
    const auto& perm = perms_[p];
    return {p, perm[(k / perms_.size()) % perm.size()]};
  }

 private:
  std::vector<std::vector<std::uint64_t>> perms_;
};

/// What the campaigns run from: the program's factories (its set-up) and
/// the benchmark's own inputs and expected outputs.
struct Setup {
  std::vector<campaign::ScenarioFactory> factories;
  std::map<std::string, std::uint64_t> digests;
  CampaignOrder order;
};

/// The untraced campaigns: what the end-to-end metrics are measured on.
struct CampaignPass {
  std::vector<CampaignKey> keys;       ///< completed campaigns, in order
  std::vector<std::uint64_t> digests;  ///< their report digests
  std::vector<double> run_ms;          ///< per-run latency
  std::size_t runs = 0;
  double wall_s = 0.0;  ///< Σ (run_campaign + campaign_json)
};

/// Runs one campaign untraced through run_campaign + campaign_json and
/// checks its runs and report. Returns false when it threw.
bool run_untraced(const CampaignWorkload& w, const Setup& setup,
                  const CampaignKey& key, CampaignPass& pass,
                  WorkloadResult& result) {
  const std::string& preset = w.presets[key.preset];
  const std::string label = preset + " seed " + std::to_string(key.seed);
  result.attempted += w.runs;

  campaign::CampaignConfig config;
  config.runs = w.runs;
  config.jobs = 1;
  config.seed = key.seed;
  config.collect_metrics = true;
  std::size_t violations = 0;
  auto last = Clock::now();
  config.on_run_complete = [&](const campaign::RunOutcome& o,
                               const obs::MetricsSnapshot*) {
    const auto now = Clock::now();
    pass.run_ms.push_back(1000.0 * seconds_between(last, now));
    last = now;
    if (o.invariant_violations != 0) ++violations;
  };

  const auto t0 = Clock::now();
  last = t0;
  std::string report;
  try {
    const campaign::CampaignResult r =
        campaign::run_campaign(setup.factories[key.preset], config);
    report = campaign::campaign_json(r);
  } catch (const std::exception& e) {
    result.fail(label + ": " + e.what(), w.runs);
    return false;
  }
  pass.wall_s += seconds_between(t0, Clock::now());
  pass.runs += w.runs;

  if (violations != 0) {
    result.fail(label + ": runs with invariant violations", violations);
  }
  const auto pinned = setup.digests.find(digest_key(preset, key.seed, w.runs));
  if (pinned == setup.digests.end()) {
    result.fail(label + ": no pinned digest", w.runs);
  } else if (!digest_matches(report, pinned->second)) {
    result.fail(label + ": report digest differs from the pinned one", w.runs);
  }
  pass.keys.push_back(key);
  pass.digests.push_back(sesame::service::fnv1a64(report));
  return true;
}

double sample_value(const obs::MetricsSnapshot& snap, const std::string& name) {
  double sum = 0.0;
  for (const auto& s : snap.samples) {
    if (s.name == name) sum += s.value;  // counter value or histogram sum
  }
  return sum;
}

/// Per-layer totals of the traced replay.
struct LayerTotals {
  double step_ms = 0.0, deliver_ms = 0.0, eval_ms = 0.0;
  double ticks = 0.0, steps = 0.0, publishes = 0.0, deliveries = 0.0,
         evals = 0.0;
  double report_bytes = 0.0;
};

/// Replays campaign `k` of the pass run by run, with spans around each
/// layer call, and checks the rebuilt report against the untraced one.
void run_traced(const CampaignWorkload& w, const Setup& setup,
                const CampaignPass& pass, std::size_t k, SpanLog& log,
                LayerTotals& t, WorkloadResult& result) {
  const CampaignKey& key = pass.keys[k];
  const campaign::ScenarioFactory& factory = setup.factories[key.preset];
  const std::string owner = "campaign " + std::to_string(k);
  const std::uint64_t campaign_id = log.reserve();
  const double c0 = log.now_us();

  const bool attack_scheduled = factory.base().spoofing.has_value();
  const double attack_time_s =
      attack_scheduled ? factory.base().spoofing->time_s : 0.0;
  campaign::CampaignResult r;
  r.seed = key.seed;
  r.runs = w.runs;
  std::vector<obs::MetricsSnapshot> snapshots;
  for (std::size_t i = 0; i < w.runs; ++i) {
    const std::string run_owner = owner + " run " + std::to_string(i);
    const std::uint64_t run_id = log.reserve();
    const double r0 = log.now_us();
    SpanTotals runtime_spans;

    // Same construction and destruction order as run_campaign's worker, so
    // both see the same allocator behaviour.
    const double s0 = log.now_us();
    auto runner = factory.make_runner(key.seed, i);
    const double s1 = log.now_us();
    log.add("platform.setup", run_id, run_owner, s0, s1);
    obs::Observability o;
    o.tracer.set_sink(&runtime_spans);
    runner->attach_observability(o);
    const double x0 = log.now_us();
    const sesame::platform::RunnerResult run_result = runner->run();
    const double x1 = log.now_us();
    log.add("platform.run", run_id, run_owner, x0, x1);

    r.outcomes.push_back(campaign::extract_outcome(
        i, campaign::derive_run_seed(key.seed, i), run_result,
        runner->world().bus(), attack_scheduled, attack_time_s));
    if (r.outcomes.back().invariant_violations != 0) {
      result.fail(run_owner + ": invariant violations (traced)");
    }
    snapshots.push_back(o.metrics.snapshot());
    const obs::MetricsSnapshot& snap = snapshots.back();
    t.ticks += sample_value(snap, "sesame.mission.ticks_total");
    t.steps += sample_value(snap, "sesame.sim.steps_total");
    t.step_ms += 1000.0 * sample_value(snap, "sesame.sim.step_duration_seconds");
    t.deliver_ms +=
        1000.0 * sample_value(snap, "sesame.mw.delivery_latency_seconds");
    t.publishes += sample_value(snap, "sesame.mw.publish_total");
    t.deliveries += sample_value(snap, "sesame.mw.deliver_total");
    t.eval_ms += runtime_spans.total_ms("sesame.mission.consert_eval");
    t.evals += static_cast<double>(
        runtime_spans.count("sesame.mission.consert_eval"));
    log.add_with_id(run_id, "campaign.run", campaign_id, run_owner, r0,
                    log.now_us());
  }
  r.completed_runs = w.runs;

  double m0 = log.now_us();
  r.summaries = campaign::summarize(r.outcomes);
  log.add("campaign.summarize", campaign_id, owner, m0, log.now_us());
  m0 = log.now_us();
  obs::MetricsRegistry merged;
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    merged.merge(snapshots[i], i + 1);
  }
  r.metrics = merged.snapshot();
  log.add("campaign.merge", campaign_id, owner, m0, log.now_us());
  m0 = log.now_us();
  const std::string report = campaign::campaign_json(r);
  log.add("campaign.report_json", campaign_id, owner, m0, log.now_us());
  log.add_with_id(campaign_id, "campaign", 0, owner, c0, log.now_us());

  t.report_bytes += static_cast<double>(report.size());
  if (sesame::service::fnv1a64(report) != pass.digests[k]) {
    result.fail(owner + ": traced outcomes differ from the untraced campaign",
                w.runs);
  }
}

}  // namespace

bool is_campaign_workload(const std::string& name) {
  return campaign_workloads().count(name) != 0;
}

WorkloadResult run_campaign_workload(const std::string& name,
                                     const RunOptions& options) {
  const CampaignWorkload& w = campaign_workloads().at(name);
  WorkloadResult result;

  // Set-up is the program's: resolving the presets into factories. It
  // takes well under a microsecond, so samples are timed in batches, each
  // call re-resolving into the same slots.
  std::vector<campaign::ScenarioFactory> factories;
  for (const auto& preset : w.presets) {
    factories.push_back(campaign::ScenarioFactory::preset(preset));
  }
  const double setup_s = median_setup_s(
      [] {},
      [&] {
        for (std::size_t p = 0; p < w.presets.size(); ++p) {
          factories[p] = campaign::ScenarioFactory::preset(w.presets[p]);
        }
      },
      64);
  const Setup setup{std::move(factories), load_digests(options.digests_path),
                    CampaignOrder(w, options.seed)};

  CampaignPass pass;
  SpanLog log;
  LayerTotals t;
  const auto start = Clock::now();
  for (std::size_t k = 0; seconds_between(start, Clock::now()) < options.seconds;
       ++k) {
    // Traced run: each campaign is replayed with spans right after its
    // untraced run, so both see the same host state.
    if (run_untraced(w, setup, setup.order.at(k), pass, result) &&
        options.trace) {
      run_traced(w, setup, pass, pass.keys.size() - 1, log, t, result);
    }
  }

  if (!options.trace) {
    const double runs_per_s =
        pass.wall_s > 0.0 ? static_cast<double>(pass.runs) / pass.wall_s : 0.0;
    result.metrics = {
        {"setup_s", setup_s, "s"},
        {"runs_per_s", runs_per_s, "runs/s"},
        {"latency_p50_ms", pass.run_ms.empty() ? 0.0 : median(pass.run_ms),
         "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    result.notes.push_back(
        "runs " + std::to_string(pass.runs) + " in " +
        std::to_string(pass.keys.size()) + " campaigns of " +
        std::to_string(w.runs) + ", per-run latency " +
        describe_percentile(pass.run_ms, 0.95, "ms"));
    return result;
  }

  const double runs = std::max<double>(1.0, static_cast<double>(pass.runs));
  const double campaigns =
      std::max<double>(1.0, static_cast<double>(pass.keys.size()));
  const double setup_ms = log.total_ms("platform.setup");
  const double run_ms = log.total_ms("platform.run");
  const double summarize_ms = log.total_ms("campaign.summarize");
  const double merge_ms = log.total_ms("campaign.merge");
  const double json_ms = log.total_ms("campaign.report_json");
  const double traced_wall_ms = log.total_ms("campaign");
  const double untraced_wall_ms = 1000.0 * pass.wall_s;
  const double accounted_ms = setup_ms + run_ms + summarize_ms + json_ms;
  const double gap_pct =
      100.0 * (accounted_ms - untraced_wall_ms) / untraced_wall_ms;
  const double overhead_pct =
      100.0 * (traced_wall_ms - untraced_wall_ms) / untraced_wall_ms;
  if (!(std::abs(gap_pct) <= kReconcileBoundPct)) {
    result.fail("layer reconciliation: traced layers differ from the "
                "untraced wall by " + std::to_string(gap_pct) + "%");
  }

  const double self_ms = run_ms - t.step_ms - t.eval_ms;
  std::vector<LayerRow> rows = {
      {0, "campaign", traced_wall_ms, campaigns,
       traced_wall_ms - setup_ms - run_ms - summarize_ms - merge_ms - json_ms},
      {1, "platform.setup", setup_ms, runs, setup_ms},
      {1, "platform.run", run_ms, runs, self_ms},
      {2, "sim.step", t.step_ms, t.steps, t.step_ms - t.deliver_ms},
      {3, "mw.deliver", t.deliver_ms, t.deliveries, t.deliver_ms},
      {2, "conserts.eval", t.eval_ms, t.evals, t.eval_ms},
      {1, "campaign.summarize", summarize_ms, campaigns, summarize_ms},
      {1, "campaign.merge", merge_ms, campaigns, merge_ms},
      {1, "campaign.report_json", json_ms, campaigns, json_ms},
  };
  print_layer_table(name + " per-layer self time (traced replay of " +
                        std::to_string(pass.runs) + " runs)",
                    rows, traced_wall_ms);
  char line[256];
  std::snprintf(line, sizeof line,
                "reconciliation: setup+run+summarize+report_json = %.1f ms vs "
                "untraced wall %.1f ms (gap %+.2f%%, bound %.0f%%); tracing "
                "overhead %+.2f%%",
                accounted_ms, untraced_wall_ms, gap_pct, kReconcileBoundPct,
                overhead_pct);
  result.notes.push_back(line);
  const std::string spans_path =
      options.out_dir + "/" + name + "-seed" + std::to_string(options.seed) +
      "-spans.jsonl";
  log.write_jsonl(spans_path);
  result.notes.push_back("spans: " + spans_path);

  result.metrics = layer_metrics({
      {"platform.setup_ms", setup_ms / runs},
      {"platform.run_ms", run_ms / runs},
      {"platform.ticks", t.ticks / runs},
      {"platform.self_ms", self_ms / runs},
      {"sim.step_ms", t.step_ms / runs},
      {"sim.steps", t.steps / runs},
      {"mw.deliver_ms", t.deliver_ms / runs},
      {"mw.publishes", t.publishes / runs},
      {"mw.deliveries", t.deliveries / runs},
      {"conserts.eval_ms", t.eval_ms / runs},
      {"conserts.evals", t.evals / runs},
      {"campaign.summarize_ms", summarize_ms / campaigns},
      {"campaign.report_json_ms", json_ms / campaigns},
      {"campaign.report_bytes", t.report_bytes / campaigns},
      {"obs.trace_overhead_pct", overhead_pct},
      {"obs.reconcile_gap_pct", gap_pct},
  });
  return result;
}

std::size_t pin_digests(const std::string& path) {
  struct Job {
    std::string workload, preset;
    std::uint64_t seed;
    std::size_t runs;
    std::uint64_t digest = 0;
  };
  std::vector<Job> jobs;
  for (const auto& [name, w] : campaign_workloads()) {
    for (const auto& preset : w.presets) {
      for (std::uint64_t s = 1; s <= w.pool; ++s) {
        jobs.push_back({name, preset, s, w.runs});
      }
    }
  }
  parallel_for(jobs.size(), [&](std::size_t i) {
    Job& j = jobs[i];
    campaign::CampaignConfig config;
    config.runs = j.runs;
    config.jobs = 1;
    config.seed = j.seed;
    j.digest = sesame::service::fnv1a64(campaign::campaign_json(
        campaign::run_campaign(campaign::ScenarioFactory::preset(j.preset),
                               config)));
  });

  std::ofstream out(path);
  out << "# FNV-1a 64 digests of campaign_json for every campaign the\n"
         "# campaign workloads can run: workload preset campaign_seed runs "
         "digest.\n# Regenerate with: python3 e2ebench/run.py --pin\n";
  char hex[24];
  for (const Job& j : jobs) {
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(j.digest));
    out << j.workload << ' ' << j.preset << ' ' << j.seed << ' ' << j.runs
        << ' ' << hex << '\n';
  }
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
  return jobs.size();
}

}  // namespace e2ebench
