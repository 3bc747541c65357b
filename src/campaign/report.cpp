#include "sesame/campaign/report.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "sesame/obs/metrics.hpp"

namespace sesame::campaign {

namespace {

using eddi::ode::Value;

/// CSV cell: the Prometheus renderer's number form. Undefined statistics
/// (NaN, e.g. stddev of a single run) become an empty cell, mirroring the
/// JSON writer's null.
std::string fmt_double(double v) {
  return std::isnan(v) ? std::string() : obs::format_double(v);
}

Value labels_to_json(const obs::Labels& labels) {
  Value::Object o;
  for (const auto& [k, v] : labels) o[k] = v;
  return Value(std::move(o));
}

Value outcome_to_json(const RunOutcome& o) {
  Value::Object run;
  run["run"] = o.run_index;
  run["seed"] = std::to_string(o.seed);  // exact: uint64 > double mantissa
  run["mission_complete"] = o.mission_complete;
  run["mission_complete_time_s"] = o.mission_complete_time_s;
  run["total_time_s"] = o.total_time_s;
  run["availability"] = o.availability;
  run["area_coverage"] = o.area_coverage;
  run["persons_found"] = o.persons_found;
  run["persons_total"] = o.persons_total;
  run["min_soc"] = o.min_soc;
  run["soc_at_rth"] = o.soc_at_rth;
  run["attack_detected"] = o.attack_detected;
  run["attack_detection_latency_s"] = o.attack_detection_latency_s;
  run["waypoints_redistributed"] = o.waypoints_redistributed;
  run["descended"] = o.descended;
  run["final_decision"] = o.final_decision;
  run["faults_dropped"] = static_cast<std::size_t>(o.faults_dropped);
  run["faults_delayed"] = static_cast<std::size_t>(o.faults_delayed);
  run["faults_duplicated"] = static_cast<std::size_t>(o.faults_duplicated);
  run["rejected_publications"] =
      static_cast<std::size_t>(o.rejected_publications);
  run["uavs_lost"] = o.uavs_lost;
  run["invariant_violations"] = o.invariant_violations;
  run["recovery_pings"] = o.recovery_pings;
  run["recovery_demotions"] = o.recovery_demotions;
  run["recovery_rth_commands"] = o.recovery_rth_commands;
  run["recovery_replans"] = o.recovery_replans;
  run["time_to_detect_loss_s"] = o.time_to_detect_loss_s;
  run["time_to_replan_s"] = o.time_to_replan_s;
  return Value(std::move(run));
}

Value summary_to_json(const StatSummary& s) {
  Value::Object row;
  row["metric"] = s.metric;
  row["count"] = s.count;
  row["mean"] = s.mean;
  row["stddev"] = s.stddev;
  row["ci95_lo"] = s.ci95_lo;
  row["ci95_hi"] = s.ci95_hi;
  row["min"] = s.min;
  row["p50"] = s.p50;
  row["p90"] = s.p90;
  row["max"] = s.max;
  return Value(std::move(row));
}

Value sample_to_json(const obs::MetricSample& s) {
  Value::Object m;
  m["name"] = s.name;
  m["labels"] = labels_to_json(s.labels);
  switch (s.kind) {
    case obs::MetricKind::kCounter:
      m["kind"] = "counter";
      m["value"] = s.value;
      break;
    case obs::MetricKind::kGauge:
      m["kind"] = "gauge";
      m["value"] = s.value;
      break;
    case obs::MetricKind::kHistogram: {
      m["kind"] = "histogram";
      m["count"] = s.observations;
      m["sum"] = s.value;
      m["min"] = s.min_observed;
      m["max"] = s.max_observed;
      Value::Array bounds;
      for (const double b : s.bucket_bounds) bounds.emplace_back(b);
      m["bucket_bounds"] = Value(std::move(bounds));
      Value::Array counts;
      for (const std::size_t c : s.bucket_counts) counts.emplace_back(c);
      m["bucket_counts"] = Value(std::move(counts));
      break;
    }
  }
  return Value(std::move(m));
}

}  // namespace

Value metrics_to_json(const obs::MetricsSnapshot& snapshot) {
  Value::Array metrics;
  for (const auto& s : snapshot.samples) {
    if (!deterministic_metric(s.name)) continue;  // wall-clock: excluded
    metrics.push_back(sample_to_json(s));
  }
  return Value(std::move(metrics));
}

bool deterministic_metric(const std::string& name) {
  static const std::string kWallClockSuffix = "_seconds";
  return name.size() < kWallClockSuffix.size() ||
         name.compare(name.size() - kWallClockSuffix.size(),
                      kWallClockSuffix.size(), kWallClockSuffix) != 0;
}

void write_campaign_json(const CampaignResult& result, std::ostream& out) {
  Value::Object doc;
  {
    Value::Object campaign;
    // /3: undefined summary statistics (stddev/ci95 of n=1 runs, every
    // stat of an empty column) serialize as null instead of a bare "nan"
    // token, and the metrics section may carry wire-security evidence
    // (sesame.security.wire_* families). /2 added the recovery and
    // invariant columns; readers of older schemas ignore unknown keys but
    // must now accept null in summary rows.
    campaign["schema"] = "sesame.campaign.report/3";
    campaign["seed"] = std::to_string(result.seed);
    campaign["runs"] = result.runs;
    doc["campaign"] = Value(std::move(campaign));
  }
  {
    Value::Array rows;
    for (const auto& s : result.summaries) rows.push_back(summary_to_json(s));
    doc["summary"] = Value(std::move(rows));
  }
  {
    Value::Array runs;
    for (const auto& o : result.outcomes) runs.push_back(outcome_to_json(o));
    doc["runs"] = Value(std::move(runs));
  }
  doc["metrics"] = metrics_to_json(result.metrics);
  out << Value(std::move(doc)).to_json() << '\n';
}

std::string campaign_json(const CampaignResult& result) {
  std::ostringstream out;
  write_campaign_json(result, out);
  return out.str();
}

void write_runs_csv(const CampaignResult& result, std::ostream& out) {
  out << "run,seed,mission_complete,mission_complete_time_s,total_time_s,"
         "availability,area_coverage,persons_found,persons_total,min_soc,"
         "soc_at_rth,attack_detected,attack_detection_latency_s,"
         "waypoints_redistributed,descended,final_decision,faults_dropped,"
         "faults_delayed,faults_duplicated,rejected_publications,"
         "uavs_lost,invariant_violations,recovery_pings,recovery_demotions,"
         "recovery_rth_commands,recovery_replans,time_to_detect_loss_s,"
         "time_to_replan_s\n";
  for (const auto& o : result.outcomes) {
    out << o.run_index << ',' << o.seed << ',' << (o.mission_complete ? 1 : 0)
        << ',' << fmt_double(o.mission_complete_time_s) << ','
        << fmt_double(o.total_time_s) << ',' << fmt_double(o.availability)
        << ',' << fmt_double(o.area_coverage) << ',' << o.persons_found << ','
        << o.persons_total << ',' << fmt_double(o.min_soc) << ','
        << fmt_double(o.soc_at_rth) << ',' << (o.attack_detected ? 1 : 0)
        << ',' << fmt_double(o.attack_detection_latency_s) << ','
        << o.waypoints_redistributed << ',' << (o.descended ? 1 : 0) << ','
        << o.final_decision << ',' << o.faults_dropped << ','
        << o.faults_delayed << ',' << o.faults_duplicated << ','
        << o.rejected_publications << ',' << o.uavs_lost << ','
        << o.invariant_violations << ',' << o.recovery_pings << ','
        << o.recovery_demotions << ',' << o.recovery_rth_commands << ','
        << o.recovery_replans << ',' << fmt_double(o.time_to_detect_loss_s)
        << ',' << fmt_double(o.time_to_replan_s) << '\n';
  }
}

void write_summary_csv(const CampaignResult& result, std::ostream& out) {
  out << "metric,count,mean,stddev,ci95_lo,ci95_hi,min,p50,p90,max\n";
  for (const auto& s : result.summaries) {
    out << s.metric << ',' << s.count << ',' << fmt_double(s.mean) << ','
        << fmt_double(s.stddev) << ',' << fmt_double(s.ci95_lo) << ','
        << fmt_double(s.ci95_hi) << ',' << fmt_double(s.min) << ','
        << fmt_double(s.p50) << ',' << fmt_double(s.p90) << ','
        << fmt_double(s.max) << '\n';
  }
}

void export_campaign(const CampaignResult& result, const std::string& json_path,
                     const std::string& csv_prefix) {
  // Atomic publication: each report is written to a `.tmp` sibling and
  // renamed into place, so a crash or signal mid-write never leaves a
  // truncated file under the requested name (the drain contract —
  // docs/SERVICE.md — relies on this).
  const auto write_atomic = [](const std::string& path, const auto& writer) {
    const std::string tmp = path + ".tmp";
    {
      std::ofstream f(tmp);
      if (!f) {
        throw std::runtime_error("campaign report: cannot open " + tmp);
      }
      writer(f);
      f.flush();
      if (!f) {
        f.close();
        std::remove(tmp.c_str());
        throw std::runtime_error("campaign report: write failed: " + tmp);
      }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
      throw std::runtime_error("campaign report: cannot rename " + tmp +
                               " -> " + path);
    }
  };
  if (!json_path.empty()) {
    write_atomic(json_path, [&](std::ostream& f) {
      write_campaign_json(result, f);
    });
  }
  if (!csv_prefix.empty()) {
    write_atomic(csv_prefix + "_runs.csv", [&](std::ostream& f) {
      write_runs_csv(result, f);
    });
    write_atomic(csv_prefix + "_summary.csv", [&](std::ostream& f) {
      write_summary_csv(result, f);
    });
  }
}

}  // namespace sesame::campaign
