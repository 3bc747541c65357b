// Campaign report writers: one JSON document plus two CSV tables.
//
// The report surface is *deterministic by construction*: it contains only
// simulation-derived values, so the same (scenario, campaign seed, runs)
// produces byte-identical files no matter how many worker threads executed
// the campaign. Two result fields are therefore excluded on purpose —
// `jobs_used` / `wall_seconds`, and every metric family carrying the
// wall-clock `_seconds` unit suffix (step/delivery latency histograms);
// mission-time metrics use the `_s` suffix and stay in. Schema reference:
// docs/CAMPAIGN.md.
#pragma once

#include <iosfwd>
#include <string>

#include "sesame/campaign/campaign.hpp"
#include "sesame/eddi/ode.hpp"

namespace sesame::campaign {

/// True when a metric family belongs in the deterministic report (i.e. it
/// does not measure wall-clock time: name does not end in "_seconds").
bool deterministic_metric(const std::string& name);

/// The deterministic subset of a metrics snapshot as the JSON array used
/// in the report's "metrics" section (wall-clock families filtered out).
/// Exposed so progress streams — the campaign service — embed interim
/// snapshots with the exact same encoding as the final report.
eddi::ode::Value metrics_to_json(const obs::MetricsSnapshot& snapshot);

/// The full campaign report as a JSON document: campaign identity,
/// summary table, per-run outcomes, and the merged deterministic metrics.
/// 64-bit seeds are emitted as decimal strings (JSON numbers are doubles).
void write_campaign_json(const CampaignResult& result, std::ostream& out);
std::string campaign_json(const CampaignResult& result);

/// One row per run: the RunOutcome scalars.
void write_runs_csv(const CampaignResult& result, std::ostream& out);

/// One row per summary metric: count,mean,stddev,ci95,min,p50,p90,max.
void write_summary_csv(const CampaignResult& result, std::ostream& out);

/// File convenience: writes `<json_path>` (when non-empty) and
/// `<csv_prefix>_runs.csv` / `<csv_prefix>_summary.csv` (when non-empty).
/// Throws std::runtime_error when a file cannot be opened.
void export_campaign(const CampaignResult& result, const std::string& json_path,
                     const std::string& csv_prefix);

}  // namespace sesame::campaign
