// CampaignService: the campaign-as-a-service execution core.
//
// ROADMAP item 2 ("mission server"): many operators drive the simulator
// concurrently, so campaign execution becomes a long-lived, multi-tenant
// service instead of a one-shot CLI. This class is the transport-agnostic
// core — the HTTP listener and the framed wire sessions (http.hpp,
// wire.hpp) are thin adapters over it, and tests drive it directly.
//
// Responsibilities:
//  - Admission control: global and per-tenant queue caps, a runs-per-
//    campaign ceiling, a per-run cost ceiling (kMaxRunCost, priced by
//    resolve()), and a hard stop while draining. Rejections are
//    structured (SubmitOutcome), never exceptions, so transports map them
//    to protocol errors trivially.
//  - Per-tenant fair scheduling: executors pick the oldest queued job of
//    the tenant with the fewest campaigns currently running (ties: oldest
//    job wins). A tenant flooding the queue delays itself, not others.
//  - Progress streaming: every job keeps an append-only event log (JSON
//    lines — queued/started/run/metrics/completed/failed) that clients
//    poll with a cursor; metric snapshots are merged run-stamped (see
//    obs::MetricsRegistry::merge) so the stream converges on the exact
//    merged bits of the final report regardless of completion order.
//  - Result cache: completed report bytes keyed by the submission's
//    resolved digest (submission.hpp), LRU-bounded. Repeat submissions
//    complete at submit time without touching an executor.
//  - Graceful drain: stop claiming queued work, interrupt running
//    campaigns at run granularity (campaign::CampaignConfig::stop), join
//    executors, and hand every unfinished submission back for spooling.
//
// Byte-identity contract: a completed job's report() is exactly
// campaign::campaign_json() of the same (scenario, runs, seed) — the
// bytes campaign_cli --json writes for that campaign. The service never
// rewrites, reformats or annotates report bytes; service-side metrics
// live in a separate registry exposed via metrics_prometheus().
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sesame/obs/metrics.hpp"
#include "sesame/service/submission.hpp"

namespace sesame::service {

struct ServiceLimits {
  std::size_t executors = 2;          ///< concurrent campaigns
  std::size_t jobs_per_campaign = 1;  ///< worker threads inside a campaign
  std::size_t max_queued = 64;        ///< global admission cap
  std::size_t max_queued_per_tenant = 16;
  std::size_t max_runs_per_campaign = 4096;
  std::size_t cache_entries = 32;  ///< completed-report LRU size (0 = off)
  /// Emit a "metrics" stream event every this many completed runs (and
  /// always at completion). 0 disables interim metric streaming.
  std::size_t metrics_stride = 8;
};

enum class JobState {
  kQueued,     ///< admitted, waiting for an executor
  kRunning,    ///< on an executor
  kCompleted,  ///< report bytes available
  kFailed,     ///< scenario raised; see JobStatus::error
  kDrained,    ///< interrupted by drain; submission handed back for spool
};

const char* job_state_name(JobState s) noexcept;

struct SubmitOutcome {
  bool accepted = false;
  std::uint64_t job_id = 0;      ///< valid when accepted
  std::string reject_reason;     ///< "draining" | "queue_full" |
                                 ///< "tenant_quota" | "runs_cap" |
                                 ///< "cost_cap"
};

struct JobStatus {
  std::uint64_t id = 0;
  std::string tenant;
  JobState state = JobState::kQueued;
  std::size_t runs_total = 0;
  std::size_t runs_completed = 0;
  bool cache_hit = false;
  std::uint64_t digest = 0;
  std::string error;  ///< non-empty iff kFailed
};

class CampaignService {
 public:
  explicit CampaignService(ServiceLimits limits = {});
  /// Drains (discarding the returned spool — daemons call drain() first).
  ~CampaignService();

  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Admission + enqueue. A digest already in the result cache completes
  /// the job synchronously (cache_hit). Throws only what resolve() throws
  /// — i.e. the submission itself is malformed; capacity problems are
  /// reported in the outcome.
  SubmitOutcome submit(const Submission& submission);

  /// Throws std::out_of_range for an unknown id.
  JobStatus status(std::uint64_t job_id) const;

  /// Event-log lines from index `cursor` on (pass the previous call's
  /// cursor + lines consumed). Never blocks.
  std::vector<std::string> events(std::uint64_t job_id,
                                  std::size_t cursor) const;

  /// Completed report bytes; empty until kCompleted.
  std::string report(std::uint64_t job_id) const;

  /// Blocks until the job leaves kQueued/kRunning (test + CLI helper).
  JobStatus wait(std::uint64_t job_id);

  /// Service-side metrics (per-tenant submission/run counters, queue
  /// gauges, latency histograms) in Prometheus text format.
  std::string metrics_prometheus() const;

  /// Graceful drain: reject new work, stop queued jobs from starting,
  /// interrupt running campaigns at run granularity, join all executors,
  /// and return the submissions of every job that did not complete —
  /// queued and interrupted alike, in job-id order — for spooling.
  /// Idempotent; later calls return an empty list.
  std::vector<Submission> drain();

  bool draining() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }
  const ServiceLimits& limits() const noexcept { return limits_; }
  std::size_t cache_hits() const;

 private:
  struct Job {
    std::uint64_t id = 0;
    Submission submission;
    ResolvedCampaign resolved;
    JobState state = JobState::kQueued;
    std::size_t runs_completed = 0;
    bool cache_hit = false;
    std::string error;
    std::string report;             ///< campaign_json bytes when completed
    std::deque<std::string> events; ///< append-only JSON lines
    obs::MetricsRegistry live;      ///< run-stamped merged stream state
    std::chrono::steady_clock::time_point submitted_at;
    bool first_result_seen = false;
  };

  void executor_loop();
  Job* next_ready_job_locked();
  /// Appends {"event": event, "job": id, ...fields} to the job's log.
  void emit_locked(Job& job, const char* event,
                   eddi::ode::Value::Object fields = {});
  void finish_cached_locked(Job& job, const std::string& report);
  void run_job(std::unique_lock<std::mutex>& lock, Job& job);
  void cache_insert_locked(std::uint64_t digest, const std::string& report);
  const std::string* cache_find_locked(std::uint64_t digest);
  void refresh_queue_gauges_locked();

  ServiceLimits limits_;
  mutable std::mutex mutex_;
  std::condition_variable cv_work_;   ///< executors wait here
  std::condition_variable cv_state_;  ///< wait() callers wait here
  std::atomic<bool> stop_{false};     ///< drain latch; campaigns poll it
  bool drained_ = false;              ///< executors joined
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::map<std::string, std::size_t> queued_per_tenant_;
  std::map<std::string, std::size_t> running_per_tenant_;
  std::size_t queued_total_ = 0;
  // LRU result cache: digest -> report bytes; recency list front = oldest.
  std::map<std::uint64_t, std::pair<std::string, std::list<std::uint64_t>::iterator>>
      cache_;
  std::list<std::uint64_t> cache_order_;
  std::size_t cache_hits_ = 0;
  obs::MetricsRegistry metrics_;
  std::vector<std::thread> executors_;
};

/// The job-status document both adapters reply with (the wire adds
/// "type"). 64-bit digests travel as decimal strings.
eddi::ode::Value status_to_json(const JobStatus& s);

/// The event-poll document both adapters reply with: {"events": [...],
/// "next": cursor + n} (the wire adds "type" and "job").
eddi::ode::Value events_to_json(const CampaignService& service,
                                std::uint64_t job_id, std::size_t cursor);

}  // namespace sesame::service
