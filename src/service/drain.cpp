#include "sesame/service/drain.hpp"

#include <csignal>
#include <stdexcept>

namespace sesame::service {

namespace {

std::atomic<bool> g_drain_requested{false};
std::atomic<bool> g_installed{false};

// std::signal handlers may only write lock-free atomics; a second signal
// after the latch is set restores the default disposition and re-raises,
// so an operator can still force-kill a wedged drain.
void on_signal(int signum) {
  if (g_drain_requested.exchange(true, std::memory_order_relaxed)) {
    std::signal(signum, SIG_DFL);
    std::raise(signum);
    return;
  }
}

static_assert(std::atomic<bool>::is_always_lock_free,
              "signal handler requires a lock-free latch");

using Handler = void (*)(int);
Handler g_prev_int = SIG_DFL;
Handler g_prev_term = SIG_DFL;

}  // namespace

DrainSignal::DrainSignal() {
  if (g_installed.exchange(true, std::memory_order_acq_rel)) {
    throw std::logic_error("DrainSignal already installed in this process");
  }
  g_drain_requested.store(false, std::memory_order_relaxed);
  g_prev_int = std::signal(SIGINT, &on_signal);
  g_prev_term = std::signal(SIGTERM, &on_signal);
}

DrainSignal::~DrainSignal() {
  std::signal(SIGINT, g_prev_int);
  std::signal(SIGTERM, g_prev_term);
  g_installed.store(false, std::memory_order_release);
}

bool DrainSignal::requested() const noexcept {
  return g_drain_requested.load(std::memory_order_relaxed);
}

const std::atomic<bool>* DrainSignal::flag() const noexcept {
  return &g_drain_requested;
}

}  // namespace sesame::service
