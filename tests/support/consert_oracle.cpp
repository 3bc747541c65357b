#include "consert_oracle.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace sesame::conserts::oracle {

void EvaluationContext::set_evidence(const std::string& name, bool value) {
  evidence_[name] = value;
}

bool EvaluationContext::evidence(const std::string& name) const {
  const auto it = evidence_.find(name);
  return it != evidence_.end() && it->second;
}

void EvaluationContext::grant(const std::string& consert,
                              const std::string& guarantee) {
  grants_.insert({consert, guarantee});
}

bool EvaluationContext::granted(const std::string& consert,
                                const std::string& guarantee) const {
  return grants_.count({consert, guarantee}) > 0;
}

void EvaluationContext::clear_grants() { grants_.clear(); }

bool evaluate(const Condition& c, const EvaluationContext& ctx) {
  const auto holds = [&](const ConditionPtr& child) {
    return evaluate(*child, ctx);
  };
  const auto& children = c.children();
  switch (c.kind()) {
    case Condition::Kind::kEvidence: return ctx.evidence(c.name());
    case Condition::Kind::kDemand: return ctx.granted(c.name(), c.guarantee());
    case Condition::Kind::kConstant: return c.value();
    case Condition::Kind::kAllOf:
      return std::all_of(children.begin(), children.end(), holds);
    case Condition::Kind::kAnyOf:
      return std::any_of(children.begin(), children.end(), holds);
    case Condition::Kind::kNot: return !holds(children.front());
  }
  throw std::logic_error("oracle: unknown condition kind");
}

namespace {

std::vector<std::string> satisfied(const ConSert& consert,
                                   const EvaluationContext& ctx) {
  std::vector<std::string> out;
  for (const auto& g : consert.guarantees()) {
    if (evaluate(*g.condition, ctx)) out.push_back(g.name);
  }
  return out;
}

std::optional<std::string> best(const ConSert& consert,
                                const EvaluationContext& ctx) {
  const Guarantee* best_g = nullptr;
  for (const auto& g : consert.guarantees()) {
    if (!evaluate(*g.condition, ctx)) continue;
    if (!best_g || g.rank < best_g->rank) best_g = &g;
  }
  if (!best_g) return std::nullopt;
  return best_g->name;
}

}  // namespace

NetworkEvaluation evaluate(const ConSertNetwork& network,
                           EvaluationContext& ctx) {
  ctx.clear_grants();
  NetworkEvaluation result;
  result.order = network.evaluation_order();
  for (const auto& name : result.order) {
    const ConSert& c = network.at(name);
    for (const auto& g : satisfied(c, ctx)) {
      ctx.grant(name, g);
      result.grants.insert({name, g});
    }
    if (const auto b = best(c, ctx); b.has_value()) result.best[name] = *b;
  }
  return result;
}

GuaranteeExplanation explain_guarantee(const ConSert& consert,
                                       const std::string& guarantee,
                                       const EvaluationContext& ctx) {
  const auto& gs = consert.guarantees();
  const auto target = std::find_if(
      gs.begin(), gs.end(), [&](const Guarantee& g) { return g.name == guarantee; });
  if (target == gs.end()) {
    throw std::invalid_argument("explain_guarantee: unknown guarantee " +
                                guarantee + " of " + consert.name());
  }
  GuaranteeExplanation out;
  out.consert = consert.name();
  out.guarantee = guarantee;
  out.satisfied = evaluate(*target->condition, ctx);

  std::set<std::string> evidence;
  target->condition->collect_evidence(evidence);
  for (const auto& e : evidence) {
    if (!ctx.evidence(e)) out.missing_evidence.push_back(e);
  }
  std::set<std::pair<std::string, std::string>> demands;
  target->condition->collect_demands(demands);
  for (const auto& [c, g] : demands) {
    if (!ctx.granted(c, g)) out.missing_demands.push_back({c, g});
  }
  return out;
}

void apply_evidence(EvaluationContext& ctx, const std::string& uav,
                    const UavEvidence& evidence) {
  for (const auto& field : kUavEvidenceFields) {
    ctx.set_evidence(uav + "/" + field.name, evidence.*field.flag);
  }
}

UavAction uav_action(const NetworkEvaluation& eval, const std::string& uav) {
  namespace g = guarantees;
  const auto it = eval.best.find(uav_consert_names(uav).uav);
  if (it == eval.best.end()) return UavAction::kEmergencyLand;
  const std::string& best = it->second;
  if (best == g::kContinueExtended) return UavAction::kContinueExtended;
  if (best == g::kContinue) return UavAction::kContinue;
  if (best == g::kHold) return UavAction::kHold;
  if (best == g::kReturnToBase) return UavAction::kReturnToBase;
  throw std::logic_error("uav_action: unexpected guarantee " + best);
}

NetworkEvaluation Trace::evaluate(EvaluationContext& ctx, double time_s) {
  NetworkEvaluation eval = oracle::evaluate(*network_, ctx);
  for (const auto& name : network_->names()) {
    const auto it = eval.best.find(name);
    const std::string now = it == eval.best.end() ? std::string{} : it->second;
    auto& prev = current_[name];
    if (prev != now) {
      transitions_.push_back({time_s, name, prev, now});
      prev = now;
    }
  }
  return eval;
}

}  // namespace sesame::conserts::oracle
