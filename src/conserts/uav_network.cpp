#include "sesame/conserts/uav_network.hpp"

#include <algorithm>
#include <stdexcept>

namespace sesame::conserts {

namespace g = guarantees;

const std::array<UavEvidenceField, 9> kUavEvidenceFields = {{
    {"gps_quality_good", &UavEvidence::gps_quality_good},
    {"no_security_attack", &UavEvidence::no_security_attack},
    {"vision_sensor_healthy", &UavEvidence::vision_sensor_healthy},
    {"safeml_confidence_high", &UavEvidence::safeml_confidence_high},
    {"comm_link_good", &UavEvidence::comm_link_good},
    {"nearby_uav_available", &UavEvidence::nearby_uav_available},
    {"reliability_high", &UavEvidence::reliability_high},
    {"reliability_medium", &UavEvidence::reliability_medium},
    {"reliability_low", &UavEvidence::reliability_low},
}};

namespace {

std::string evidence_name(const std::string& uav, const char* field) {
  return uav + "/" + field;
}

}  // namespace

UavConsertNames uav_consert_names(const std::string& uav) {
  UavConsertNames n;
  n.gps_localization = uav + "/gps_localization";
  n.vision_localization = uav + "/vision_localization";
  n.comm_localization = uav + "/comm_localization";
  n.navigation = uav + "/navigation";
  n.safety = uav + "/safety_eddi";
  n.uav = uav + "/uav";
  return n;
}

void add_uav_conserts(ConSertNetwork& network, const std::string& uav) {
  const UavConsertNames names = uav_consert_names(uav);
  const auto ev = [&](const char* field) {
    return Condition::evidence(evidence_name(uav, field));
  };

  // GPS-based localization: quality metrics nominal AND no active attack
  // flagged by the Security EDDI.
  ConSert gps(names.gps_localization);
  gps.add_guarantee(g::kGpsAccurate, 0,
                    Condition::all_of({ev("gps_quality_good"),
                                       ev("no_security_attack")}));
  network.add(std::move(gps));

  // Vision-based localization: healthy sensor AND SafeML confidence.
  ConSert vision(names.vision_localization);
  vision.add_guarantee(g::kVisionAvailable, 0,
                       Condition::all_of({ev("vision_sensor_healthy"),
                                          ev("safeml_confidence_high")}));
  network.add(std::move(vision));

  // Communication-based localization: link health AND a nearby assistant.
  ConSert comm(names.comm_localization);
  comm.add_guarantee(g::kCommAvailable, 0,
                     Condition::all_of({ev("comm_link_good"),
                                        ev("nearby_uav_available")}));
  network.add(std::move(comm));

  // Navigation ConSert (Fig. 1 middle): grades accuracy from localization
  // guarantees.
  ConSert nav(names.navigation);
  nav.add_guarantee(
      g::kNavHighPerformance, 0,
      Condition::demand(names.gps_localization, g::kGpsAccurate));
  nav.add_guarantee(
      g::kNavCollaborative, 1,
      Condition::demand(names.comm_localization, g::kCommAvailable));
  nav.add_guarantee(
      g::kNavVision, 2,
      Condition::demand(names.vision_localization, g::kVisionAvailable));
  nav.add_guarantee(
      g::kNavAssistant, 2,
      Condition::all_of(
          {Condition::demand(names.comm_localization, g::kCommAvailable),
           Condition::demand(names.vision_localization, g::kVisionAvailable)}));
  network.add(std::move(nav));

  // Safety EDDI ConSert: SafeDrones reliability levels.
  ConSert safety(names.safety);
  safety.add_guarantee(g::kReliabilityHigh, 0, ev("reliability_high"));
  safety.add_guarantee(g::kReliabilityMedium, 1, ev("reliability_medium"));
  safety.add_guarantee(g::kReliabilityLow, 2, ev("reliability_low"));
  network.add(std::move(safety));

  // UAV ConSert (Fig. 1 bottom): action lattice.
  ConSert top(names.uav);
  const auto nav_high =
      Condition::demand(names.navigation, g::kNavHighPerformance);
  const auto nav_collab =
      Condition::demand(names.navigation, g::kNavCollaborative);
  const auto nav_vision = Condition::demand(names.navigation, g::kNavVision);
  const auto nav_any = Condition::any_of({nav_high, nav_collab, nav_vision});
  const auto rel_high = Condition::demand(names.safety, g::kReliabilityHigh);
  const auto rel_medium =
      Condition::demand(names.safety, g::kReliabilityMedium);
  const auto rel_low = Condition::demand(names.safety, g::kReliabilityLow);
  const auto rel_at_least_medium = Condition::any_of({rel_high, rel_medium});
  const auto rel_any = Condition::any_of({rel_high, rel_medium, rel_low});

  // Continue and take over extra tasks: best navigation + high reliability.
  top.add_guarantee(g::kContinueExtended, 0,
                    Condition::all_of({nav_high, rel_high}));
  // Continue: navigation good enough (<0.75 m) + reliability >= medium.
  top.add_guarantee(
      g::kContinue, 1,
      Condition::all_of({Condition::any_of({nav_high, nav_collab}),
                         rel_at_least_medium}));
  // Hold: some navigation, any reliability estimate — wait out transients.
  top.add_guarantee(g::kHold, 2, Condition::all_of({nav_any, rel_any}));
  // Return to base: a degraded-navigation route home is still possible.
  top.add_guarantee(g::kReturnToBase, 3, nav_any);
  // Default (no guarantee): Emergency Land — implicit.
  network.add(std::move(top));
}

std::string uav_action_name(UavAction a) {
  switch (a) {
    case UavAction::kContinueExtended: return "ContinueMission+TakeOverTasks";
    case UavAction::kContinue: return "ContinueMission";
    case UavAction::kHold: return "HoldPosition";
    case UavAction::kReturnToBase: return "ReturnToBase";
    case UavAction::kEmergencyLand: return "EmergencyLand";
  }
  return "unknown";
}

UavBinding::UavBinding(const Plan& plan, const std::string& uav)
    : consert_(plan.consert_id(uav_consert_names(uav).uav)) {
  for (std::size_t f = 0; f < kUavEvidenceFields.size(); ++f) {
    evidence_[f] =
        plan.evidence_id(evidence_name(uav, kUavEvidenceFields[f].name));
  }
  for (std::size_t i = 0; i < plan.guarantee_count(consert_); ++i) {
    const std::string& name = plan.guarantee_name(consert_, i);
    if (name == g::kContinueExtended) {
      actions_.push_back(UavAction::kContinueExtended);
    } else if (name == g::kContinue) {
      actions_.push_back(UavAction::kContinue);
    } else if (name == g::kHold) {
      actions_.push_back(UavAction::kHold);
    } else if (name == g::kReturnToBase) {
      actions_.push_back(UavAction::kReturnToBase);
    } else {
      throw std::logic_error("UavBinding: unexpected guarantee " + name);
    }
  }
}

void UavBinding::apply(Plan& plan, const UavEvidence& evidence) const {
  for (std::size_t f = 0; f < kUavEvidenceFields.size(); ++f) {
    plan.set_evidence(evidence_[f], evidence.*kUavEvidenceFields[f].flag);
  }
}

std::string mission_decision_name(MissionDecision d) {
  switch (d) {
    case MissionDecision::kCompleteAsPlanned: return "CompleteAsPlanned";
    case MissionDecision::kRedistributeTasks: return "RedistributeTasks";
    case MissionDecision::kCannotComplete: return "CannotComplete";
  }
  return "unknown";
}

MissionDecision decide_mission(const std::vector<UavAction>& uav_actions) {
  if (uav_actions.empty()) return MissionDecision::kCannotComplete;
  const auto continuing = [](UavAction a) {
    return a == UavAction::kContinueExtended || a == UavAction::kContinue;
  };
  if (std::all_of(uav_actions.begin(), uav_actions.end(), continuing)) {
    return MissionDecision::kCompleteAsPlanned;
  }
  // Some UAV drops out; redistribution needs at least one remaining UAV
  // able to take over additional tasks.
  const bool taker = std::any_of(
      uav_actions.begin(), uav_actions.end(),
      [](UavAction a) { return a == UavAction::kContinueExtended; });
  return taker ? MissionDecision::kRedistributeTasks
               : MissionDecision::kCannotComplete;
}

}  // namespace sesame::conserts
