// The paper's hierarchical UAV ConSert network (Fig. 1), built from the
// generic engine in consert.hpp.
//
// Per UAV:
//   - GPS-based localization ConSert: accurate GPS demands good receiver
//     quality AND no active security attack (Security EDDI).
//   - Vision-based localization ConSert: healthy vision sensor AND high
//     SafeML confidence in the perception model.
//   - Communication-based localization ConSert: healthy links to nearby
//     UAVs (the Collaborative Localization channel).
//   - Navigation ConSert: grades achievable navigation accuracy
//     (<0.5 m / <0.75 m / <1 m) from the localization guarantees.
//   - Safety EDDI ConSert: reliability level from SafeDrones.
//   - UAV ConSert: maps navigation + reliability onto the action lattice
//     Continue-and-take-over / Continue / Hold / Return-to-base, with
//     Emergency Land as the default when nothing is satisfied.
// Mission level:
//   - a decider combines the per-UAV outputs into mission as planned /
//     task redistribution / mission cannot be completed.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "sesame/conserts/consert.hpp"
#include "sesame/conserts/plan.hpp"

namespace sesame::conserts {

/// Runtime-evidence flags for one UAV. The adapter in the EDDI layer fills
/// this from the live technologies; tests set fields directly.
struct UavEvidence {
  // GPS-based localization ConSert inputs.
  bool gps_quality_good = false;     ///< receiver metrics nominal
  bool no_security_attack = false;   ///< Security EDDI reports no attack
  // Vision-based localization ConSert inputs.
  bool vision_sensor_healthy = false;
  bool safeml_confidence_high = false;
  // Communication-based localization ConSert inputs.
  bool comm_link_good = false;
  bool nearby_uav_available = false;  ///< an assistant UAV is in range
  // Safety EDDI (SafeDrones) reliability level — exactly one should hold.
  bool reliability_high = false;
  bool reliability_medium = false;
  bool reliability_low = false;
};

/// The evidence fields of one UAV, in a fixed order. The network names
/// each flag "<uav>/<field>", e.g. "uav1/gps_quality_good".
struct UavEvidenceField {
  const char* name;
  bool UavEvidence::*flag;
};
extern const std::array<UavEvidenceField, 9> kUavEvidenceFields;

/// ConSert names for one UAV (all prefixed "<uav>/").
struct UavConsertNames {
  std::string gps_localization;
  std::string vision_localization;
  std::string comm_localization;
  std::string navigation;
  std::string safety;
  std::string uav;
};
UavConsertNames uav_consert_names(const std::string& uav);

/// Well-known guarantee names.
namespace guarantees {
inline const char* kGpsAccurate = "gps_localization_accurate";
inline const char* kVisionAvailable = "vision_localization_available";
inline const char* kCommAvailable = "comm_localization_available";
inline const char* kNavHighPerformance = "navigation_accuracy_0_5m";
inline const char* kNavCollaborative = "navigation_accuracy_0_75m";
inline const char* kNavVision = "navigation_accuracy_1m_vision";
inline const char* kNavAssistant = "navigation_accuracy_1m_assistant";
inline const char* kReliabilityHigh = "reliability_high";
inline const char* kReliabilityMedium = "reliability_medium";
inline const char* kReliabilityLow = "reliability_low";
inline const char* kContinueExtended = "continue_mission_take_over_tasks";
inline const char* kContinue = "continue_mission";
inline const char* kHold = "hold_position";
inline const char* kReturnToBase = "return_to_base";
}  // namespace guarantees

/// Adds the six ConSerts of one UAV to `network`.
void add_uav_conserts(ConSertNetwork& network, const std::string& uav);

/// The UAV-level action lattice (Fig. 1), ordered strongest to weakest.
enum class UavAction {
  kContinueExtended,  ///< continue; can take over additional tasks
  kContinue,
  kHold,
  kReturnToBase,
  kEmergencyLand,  ///< default when no UAV-ConSert guarantee holds
};

std::string uav_action_name(UavAction a);

/// One UAV's place in a compiled plan, resolved once: the ids of its
/// evidence flags, its UAV ConSert, and the action each guarantee of that
/// ConSert stands for.
class UavBinding {
 public:
  /// Throws std::out_of_range when the plan lacks the UAV's ConSerts.
  UavBinding(const Plan& plan, const std::string& uav);

  /// Writes the UAV's evidence flags into the plan.
  void apply(Plan& plan, const UavEvidence& evidence) const;

  /// The action for the UAV after plan.evaluate().
  UavAction action(const Plan& plan) const {
    const int best = plan.best(consert_);
    return best == Plan::kNone ? UavAction::kEmergencyLand
                               : actions_[static_cast<std::size_t>(best)];
  }

 private:
  std::array<std::size_t, kUavEvidenceFields.size()> evidence_{};
  std::size_t consert_ = 0;
  std::vector<UavAction> actions_;  ///< by guarantee declaration index
};

/// Mission-level decision (Fig. 1 top).
enum class MissionDecision {
  kCompleteAsPlanned,
  kRedistributeTasks,
  kCannotComplete,
};

std::string mission_decision_name(MissionDecision d);

/// The mission decider: all UAVs continuing -> as planned; at least one
/// drops out but some remaining UAV can take over its tasks ->
/// redistribution; otherwise the mission cannot be fully completed.
MissionDecision decide_mission(const std::vector<UavAction>& uav_actions);

}  // namespace sesame::conserts
