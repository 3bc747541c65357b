#include "sesame/service/service.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <stdexcept>
#include <utility>

#include "sesame/campaign/report.hpp"
#include "sesame/eddi/ode.hpp"

namespace sesame::service {

namespace {

using eddi::ode::Value;

}  // namespace

const char* job_state_name(JobState s) noexcept {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kCompleted: return "completed";
    case JobState::kFailed: return "failed";
    case JobState::kDrained: return "drained";
  }
  return "unknown";
}

CampaignService::CampaignService(ServiceLimits limits) : limits_(limits) {
  if (limits_.executors == 0) limits_.executors = 1;
  if (limits_.jobs_per_campaign == 0) limits_.jobs_per_campaign = 1;
  executors_.reserve(limits_.executors);
  for (std::size_t i = 0; i < limits_.executors; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
}

CampaignService::~CampaignService() { drain(); }

SubmitOutcome CampaignService::submit(const Submission& submission) {
  // Resolution (and its validation errors) happens outside the lock.
  ResolvedCampaign resolved = resolve(submission);

  std::unique_lock<std::mutex> lock(mutex_);
  SubmitOutcome out;
  const auto reject = [&](const char* reason) {
    out.reject_reason = reason;
    metrics_
        .counter("sesame.service.rejections_total",
                 {{"reason", reason}, {"tenant", submission.tenant}})
        .inc();
    return out;
  };
  if (stop_.load(std::memory_order_relaxed)) return reject("draining");
  if (submission.runs > limits_.max_runs_per_campaign) {
    return reject("runs_cap");
  }
  // Negated so a NaN cost is refused too.
  if (!(resolved.run_cost <= kMaxRunCost)) return reject("cost_cap");
  metrics_
      .counter("sesame.service.submissions_total",
               {{"tenant", submission.tenant}})
      .inc();

  const std::string* cached = cache_find_locked(resolved.digest);
  if (cached == nullptr) {
    // Admission caps only gate work that needs an executor.
    if (queued_total_ >= limits_.max_queued) return reject("queue_full");
    if (queued_per_tenant_[submission.tenant] >=
        limits_.max_queued_per_tenant) {
      return reject("tenant_quota");
    }
  }

  auto job = std::make_unique<Job>();
  job->id = next_id_++;
  job->submission = submission;
  job->resolved = std::move(resolved);
  job->submitted_at = std::chrono::steady_clock::now();
  Job& j = *job;
  jobs_.emplace(j.id, std::move(job));

  emit_locked(j, "queued",
              {{"tenant", j.submission.tenant},
               {"digest", std::to_string(j.resolved.digest)},
               {"runs", j.submission.runs}});

  if (cached != nullptr) {
    finish_cached_locked(j, *cached);
  } else {
    ++queued_total_;
    ++queued_per_tenant_[j.submission.tenant];
    refresh_queue_gauges_locked();
    cv_work_.notify_one();
  }
  out.accepted = true;
  out.job_id = j.id;
  return out;
}

CampaignService::Job* CampaignService::next_ready_job_locked() {
  Job* best = nullptr;
  std::size_t best_running = std::numeric_limits<std::size_t>::max();
  for (auto& [id, job] : jobs_) {  // ascending id: FIFO within a tenant
    if (job->state != JobState::kQueued) continue;
    const auto it = running_per_tenant_.find(job->submission.tenant);
    const std::size_t running =
        it == running_per_tenant_.end() ? 0 : it->second;
    if (running < best_running) {
      best = job.get();
      best_running = running;
    }
  }
  return best;
}

void CampaignService::executor_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_work_.wait(lock, [&] {
      return stop_.load(std::memory_order_relaxed) ||
             next_ready_job_locked() != nullptr;
    });
    if (stop_.load(std::memory_order_relaxed)) return;
    Job* job = next_ready_job_locked();
    if (job == nullptr) continue;
    run_job(lock, *job);
  }
}

void CampaignService::run_job(std::unique_lock<std::mutex>& lock, Job& job) {
  job.state = JobState::kRunning;
  --queued_total_;
  --queued_per_tenant_[job.submission.tenant];
  ++running_per_tenant_[job.submission.tenant];
  refresh_queue_gauges_locked();
  emit_locked(job, "started");

  campaign::CampaignConfig config = job.resolved.config;
  config.jobs = limits_.jobs_per_campaign;
  config.stop = &stop_;
  config.on_run_complete = [this, &job](const campaign::RunOutcome& outcome,
                                        const obs::MetricsSnapshot* snap) {
    std::unique_lock<std::mutex> cb_lock(mutex_);
    ++job.runs_completed;
    metrics_
        .counter("sesame.service.runs_completed_total",
                 {{"tenant", job.submission.tenant}})
        .inc();
    if (!job.first_result_seen) {
      job.first_result_seen = true;
      const double s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - job.submitted_at)
                           .count();
      metrics_
          .histogram("sesame.service.submit_to_first_result_seconds",
                     {{"tenant", job.submission.tenant}},
                     obs::duration_buckets_s())
          .observe(s);
    }
    // Run-index stamps make this completion-order merge land on the same
    // gauge bits as the report's run-order merge.
    if (snap != nullptr) job.live.merge(*snap, outcome.run_index + 1);
    emit_locked(job, "run",
                {{"run", outcome.run_index},
                 {"completed", job.runs_completed},
                 {"total", job.submission.runs},
                 {"mission_complete", outcome.mission_complete}});
    if (limits_.metrics_stride != 0 && snap != nullptr &&
        job.runs_completed % limits_.metrics_stride == 0) {
      emit_locked(
          job, "metrics",
          {{"completed", job.runs_completed},
           {"metrics", campaign::metrics_to_json(job.live.snapshot())}});
    }
  };

  lock.unlock();
  campaign::CampaignResult result;
  std::string error;
  try {
    result = campaign::run_campaign(job.resolved.factory, config);
  } catch (const std::exception& e) {
    error = e.what();
  } catch (...) {
    error = "unknown error";
  }
  lock.lock();

  --running_per_tenant_[job.submission.tenant];
  refresh_queue_gauges_locked();
  if (!error.empty()) {
    job.state = JobState::kFailed;
    job.error = error;
    metrics_
        .counter("sesame.service.jobs_failed_total",
                 {{"tenant", job.submission.tenant}})
        .inc();
    emit_locked(job, "failed", {{"error", error}});
  } else if (result.interrupted) {
    // Drain fired mid-campaign: the partial result is discarded (it is
    // not part of the byte-identity surface) and the submission goes back
    // to the spool via drain().
    job.state = JobState::kDrained;
    emit_locked(job, "drained", {{"completed_runs", result.completed_runs}});
  } else {
    job.state = JobState::kCompleted;
    job.report = campaign::campaign_json(result);
    if (config.collect_metrics) {
      emit_locked(job, "metrics",
                  {{"completed", job.runs_completed},
                   {"metrics", campaign::metrics_to_json(result.metrics)}});
    }
    cache_insert_locked(job.resolved.digest, job.report);
    metrics_
        .counter("sesame.service.jobs_completed_total",
                 {{"tenant", job.submission.tenant}})
        .inc();
    emit_locked(job, "completed",
                {{"digest", std::to_string(job.resolved.digest)},
                 {"report_bytes", job.report.size()}});
  }
  cv_state_.notify_all();
}

void CampaignService::emit_locked(Job& job, const char* event,
                                  Value::Object fields) {
  fields["event"] = event;
  fields["job"] = job.id;
  job.events.push_back(Value(std::move(fields)).to_json());
}

void CampaignService::finish_cached_locked(Job& job,
                                           const std::string& report) {
  job.state = JobState::kCompleted;
  job.cache_hit = true;
  job.report = report;
  job.runs_completed = job.submission.runs;
  ++cache_hits_;
  metrics_
      .counter("sesame.service.cache_hits_total",
               {{"tenant", job.submission.tenant}})
      .inc();
  {
    emit_locked(job, "cache_hit",
                {{"digest", std::to_string(job.resolved.digest)}});
  }
  emit_locked(job, "completed",
              {{"digest", std::to_string(job.resolved.digest)},
               {"report_bytes", job.report.size()}});
  cv_state_.notify_all();
}

void CampaignService::cache_insert_locked(std::uint64_t digest,
                                          const std::string& report) {
  if (limits_.cache_entries == 0) return;
  if (const auto it = cache_.find(digest); it != cache_.end()) {
    cache_order_.erase(it->second.second);
    it->second.second = cache_order_.insert(cache_order_.end(), digest);
    return;  // identical bytes by the determinism contract
  }
  while (cache_.size() >= limits_.cache_entries) {
    cache_.erase(cache_order_.front());
    cache_order_.pop_front();
  }
  const auto pos = cache_order_.insert(cache_order_.end(), digest);
  cache_.emplace(digest, std::make_pair(report, pos));
  metrics_.gauge("sesame.service.cache_entries")
      .set(static_cast<double>(cache_.size()));
}

const std::string* CampaignService::cache_find_locked(std::uint64_t digest) {
  const auto it = cache_.find(digest);
  if (it == cache_.end()) return nullptr;
  cache_order_.erase(it->second.second);
  it->second.second = cache_order_.insert(cache_order_.end(), digest);
  return &it->second.first;
}

void CampaignService::refresh_queue_gauges_locked() {
  std::size_t running = 0;
  for (const auto& [tenant, n] : running_per_tenant_) running += n;
  metrics_.gauge("sesame.service.jobs_queued")
      .set(static_cast<double>(queued_total_));
  metrics_.gauge("sesame.service.jobs_running")
      .set(static_cast<double>(running));
}

Value status_to_json(const JobStatus& s) {
  Value doc;
  doc["job"] = s.id;
  doc["tenant"] = s.tenant;
  doc["state"] = job_state_name(s.state);
  doc["runs_total"] = s.runs_total;
  doc["runs_completed"] = s.runs_completed;
  doc["cache_hit"] = s.cache_hit;
  doc["digest"] = std::to_string(s.digest);
  if (!s.error.empty()) doc["error"] = s.error;
  return doc;
}

Value events_to_json(const CampaignService& service, std::uint64_t job_id,
                     std::size_t cursor) {
  const std::vector<std::string> lines = service.events(job_id, cursor);
  Value::Array events;
  for (const auto& line : lines) events.push_back(eddi::ode::parse_json(line));
  return Value::Object{{"events", Value(std::move(events))},
                       {"next", cursor + lines.size()}};
}

JobStatus CampaignService::status(std::uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    throw std::out_of_range("campaign service: no job " +
                            std::to_string(job_id));
  }
  const Job& j = *it->second;
  JobStatus s;
  s.id = j.id;
  s.tenant = j.submission.tenant;
  s.state = j.state;
  s.runs_total = j.submission.runs;
  s.runs_completed = j.runs_completed;
  s.cache_hit = j.cache_hit;
  s.digest = j.resolved.digest;
  s.error = j.error;
  return s;
}

std::vector<std::string> CampaignService::events(std::uint64_t job_id,
                                                 std::size_t cursor) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    throw std::out_of_range("campaign service: no job " +
                            std::to_string(job_id));
  }
  const auto& events = it->second->events;
  std::vector<std::string> out;
  for (std::size_t i = cursor; i < events.size(); ++i) {
    out.push_back(events[i]);
  }
  return out;
}

std::string CampaignService::report(std::uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    throw std::out_of_range("campaign service: no job " +
                            std::to_string(job_id));
  }
  return it->second->report;
}

JobStatus CampaignService::wait(std::uint64_t job_id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    throw std::out_of_range("campaign service: no job " +
                            std::to_string(job_id));
  }
  Job& j = *it->second;
  cv_state_.wait(lock, [&] {
    return j.state != JobState::kQueued && j.state != JobState::kRunning;
  });
  lock.unlock();
  return status(job_id);
}

std::string CampaignService::metrics_prometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return metrics_.render_prometheus();
}

std::size_t CampaignService::cache_hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_hits_;
}

std::vector<Submission> CampaignService::drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_.store(true, std::memory_order_relaxed);
    cv_work_.notify_all();
  }
  for (auto& t : executors_) {
    if (t.joinable()) t.join();
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (drained_) return {};
  drained_ = true;
  std::vector<Submission> spool;
  for (auto& [id, job] : jobs_) {  // ascending id: stable spool order
    if (job->state == JobState::kQueued) {
      job->state = JobState::kDrained;
      --queued_total_;
      --queued_per_tenant_[job->submission.tenant];
      emit_locked(*job, "drained", {{"completed_runs", std::size_t{0}}});
    }
    if (job->state == JobState::kDrained) {
      spool.push_back(job->submission);
    }
  }
  refresh_queue_gauges_locked();
  cv_state_.notify_all();
  return spool;
}

}  // namespace sesame::service
