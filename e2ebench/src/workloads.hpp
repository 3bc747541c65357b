// The benchmark's workloads. Each drives the SESAME stack only through its
// public calls and returns its metrics; main() prints them.
#pragma once

#include <cstdint>
#include <string>

#include "layers.hpp"

namespace e2ebench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;          ///< per-layer run instead of end-to-end
  std::string digests_path;    ///< pinned campaign report digests
  std::string out_dir;         ///< where the traced run writes its spans
};

/// Bound on |Σ traced layers − untraced campaign wall| as a share of the
/// untraced wall, in percent (the traced run's reconciliation check). The
/// sum leaves out outcome extraction and the metrics merge (about 4% of a
/// fleet_1024 campaign), and paired runs differ by a few percent on a
/// shared host.
inline constexpr double kReconcileBoundPct = 15.0;

bool is_campaign_workload(const std::string& name);

/// "paper_campaigns" or "fleet_1024".
WorkloadResult run_campaign_workload(const std::string& name,
                                     const RunOptions& options);

/// Recomputes the digest of every campaign the campaign workloads can run
/// and writes the table to `path`. Returns the number of campaigns.
std::size_t pin_digests(const std::string& path);

WorkloadResult run_service_mix(const RunOptions& options);

}  // namespace e2ebench
