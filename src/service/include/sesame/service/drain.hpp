// Graceful-drain signal latch shared by campaign_cli and the campaign
// service daemon.
//
// SIGINT/SIGTERM must not kill a campaign mid-run and leave a truncated
// report on disk (the old campaign_cli behaviour) or orphan queued service
// jobs. Both executables instead install a DrainSignal: the handler only
// flips a lock-free atomic (the sole thing async-signal-safe code may do),
// and the worker loops poll it through campaign::CampaignConfig::stop /
// CampaignService::drain — runs finish at run granularity, reports are
// either complete or absent, never partial.
#pragma once

#include <atomic>

namespace sesame::service {

/// RAII SIGINT/SIGTERM latch. Installs handlers on construction, restores
/// the previous handlers on destruction. A second signal while draining
/// re-raises the default action, so a stuck drain can still be killed by
/// pressing Ctrl-C twice.
///
/// The latch is process-global (signal handlers cannot carry state), so
/// only one DrainSignal may be live at a time; a second concurrent
/// instance throws std::logic_error.
class DrainSignal {
 public:
  DrainSignal();
  ~DrainSignal();

  DrainSignal(const DrainSignal&) = delete;
  DrainSignal& operator=(const DrainSignal&) = delete;

  /// True once SIGINT or SIGTERM has been received.
  bool requested() const noexcept;

  /// The latch itself, in the shape campaign::CampaignConfig::stop wants.
  const std::atomic<bool>* flag() const noexcept;
};

}  // namespace sesame::service
