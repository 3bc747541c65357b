// Security EDDI: the runtime attack monitor.
//
// Each Security EDDI is bound to one attack tree (paper: "a Python script
// tailored to a specific attack tree"). It subscribes to the IDS alert
// topic, maps each alert's CAPEC id onto tree leaves, and when the root
// goal becomes achieved raises a critical security event carrying the
// traced attack path and the tree's mitigations — the hook ConSerts use to
// trigger Collaborative Localization and the safe landing.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sesame/mw/bus.hpp"
#include "sesame/security/attack_tree.hpp"
#include "sesame/security/ids.hpp"

namespace sesame::security {

/// Raised when an attack tree's root goal is achieved.
struct SecurityEvent {
  std::string tree;                 ///< attack-tree name
  double time_s = 0.0;              ///< time of the completing alert
  Severity severity = Severity::kHigh;
  std::vector<std::string> attack_path;  ///< root-to-leaf achieved titles
  std::vector<std::string> mitigations;
  /// Sources implicated by contributing alerts (e.g. the spoofing node).
  std::vector<std::string> suspicious_sources;
};

/// Topic critical security events are published on.
inline const char* security_event_topic() { return "security/events"; }

class SecurityEddi {
 public:
  /// Attaches to the bus and starts monitoring IDS alerts against `tree`.
  SecurityEddi(mw::Bus& bus, AttackTree tree);

  const AttackTree& tree() const noexcept { return tree_; }

  /// Number of alerts consumed / events raised so far.
  std::size_t alerts_consumed() const noexcept { return alerts_consumed_; }
  std::size_t events_raised() const noexcept { return events_raised_; }

  /// True once the goal was reached at least once (sticky).
  bool attack_detected() const noexcept { return events_raised_ > 0; }

  /// Optional direct callback in addition to the bus publication.
  void on_event(std::function<void(const SecurityEvent&)> callback);

 private:
  mw::Bus* bus_;
  AttackTree tree_;
  mw::Subscription alert_subscription_;
  std::vector<std::string> suspicious_sources_;
  std::function<void(const SecurityEvent&)> callback_;
  std::size_t alerts_consumed_ = 0;
  std::size_t events_raised_ = 0;
  bool goal_reported_ = false;

  void handle_alert(const IdsAlert& alert);
};

}  // namespace sesame::security
