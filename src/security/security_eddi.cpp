#include "sesame/security/security_eddi.hpp"

#include <algorithm>

namespace sesame::security {

SecurityEddi::SecurityEddi(mw::Bus& bus, AttackTree tree)
    : bus_(&bus), tree_(std::move(tree)) {
  alert_subscription_ = bus_->subscribe<IdsAlert>(
      ids_alert_topic(),
      [this](const mw::MessageHeader&, const IdsAlert& alert) {
        handle_alert(alert);
      });
}

void SecurityEddi::on_event(std::function<void(const SecurityEvent&)> callback) {
  callback_ = std::move(callback);
}

void SecurityEddi::handle_alert(const IdsAlert& alert) {
  ++alerts_consumed_;
  if (!tree_.trigger(alert.capec_id)) return;  // alert not in this tree

  // CAPEC-594 injection implies the attacker already has bus access; fire
  // the access leaf too so the AND branch reflects the full path.
  if (alert.capec_id == "CAPEC-594") tree_.trigger("CAPEC-151");

  if (std::find(suspicious_sources_.begin(), suspicious_sources_.end(),
                alert.source) == suspicious_sources_.end()) {
    suspicious_sources_.push_back(alert.source);
  }

  if (tree_.goal_achieved() && !goal_reported_) {
    goal_reported_ = true;
    ++events_raised_;
    SecurityEvent ev;
    ev.tree = tree_.name();
    ev.time_s = alert.time_s;
    ev.severity = tree_.max_triggered_severity().value_or(Severity::kHigh);
    ev.attack_path = tree_.active_path();
    ev.mitigations = tree_.mitigations();
    ev.suspicious_sources = suspicious_sources_;
    bus_->publish(security_event_topic(), ev, "security_eddi", alert.time_s);
    if (callback_) callback_(ev);
  }
}

}  // namespace sesame::security
