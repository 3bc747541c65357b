// Reference interpreter for ConSert networks, kept for differential tests.
//
// This is the string-keyed tree walker the runtime used before networks
// were compiled to conserts::Plan: evidence and grants live in ordered
// string maps, every condition node is visited on every evaluation, and
// the assurance trace compares guarantee names. It is slow on purpose —
// each step is the definition, written out — so tests can hold the plan
// to it bit for bit.
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sesame/conserts/assurance_trace.hpp"
#include "sesame/conserts/consert.hpp"
#include "sesame/conserts/uav_network.hpp"

namespace sesame::conserts::oracle {

/// Runtime-evidence values plus the guarantees granted so far.
class EvaluationContext {
 public:
  /// Sets a runtime-evidence value (unset evidence evaluates to false).
  void set_evidence(const std::string& name, bool value);
  bool evidence(const std::string& name) const;

  /// Records that `consert` currently provides `guarantee`.
  void grant(const std::string& consert, const std::string& guarantee);
  bool granted(const std::string& consert, const std::string& guarantee) const;
  void clear_grants();

 private:
  std::map<std::string, bool> evidence_;
  std::set<std::pair<std::string, std::string>> grants_;
};

/// Evaluates a condition tree against the context.
bool evaluate(const Condition& condition, const EvaluationContext& ctx);

struct NetworkEvaluation {
  /// Every granted (consert, guarantee) pair.
  std::set<std::pair<std::string, std::string>> grants;
  /// Best guarantee per ConSert (absent = only the implicit default).
  std::map<std::string, std::string> best;
  /// Evaluation order used.
  std::vector<std::string> order;
};

/// Evaluates the whole network against the evidence in `ctx` (grants in
/// `ctx` are cleared first): every satisfied guarantee is granted, and the
/// best is the lowest rank, first declared on a tie. Throws like
/// ConSertNetwork::evaluation_order.
NetworkEvaluation evaluate(const ConSertNetwork& network,
                           EvaluationContext& ctx);

/// Explains one guarantee against a context (typically the context after
/// an evaluation, so grants are populated). Throws std::invalid_argument
/// when the guarantee does not exist.
GuaranteeExplanation explain_guarantee(const ConSert& consert,
                                       const std::string& guarantee,
                                       const EvaluationContext& ctx);

/// Writes all evidence flags of one UAV into the context.
void apply_evidence(EvaluationContext& ctx, const std::string& uav,
                    const UavEvidence& evidence);

/// The action of one UAV after an evaluation.
UavAction uav_action(const NetworkEvaluation& eval, const std::string& uav);

/// Best-guarantee transitions keyed by name, in ascending ConSert name
/// order per evaluation.
class Trace {
 public:
  explicit Trace(const ConSertNetwork& network) : network_(&network) {}

  NetworkEvaluation evaluate(EvaluationContext& ctx, double time_s);
  const std::vector<GuaranteeTransition>& transitions() const noexcept {
    return transitions_;
  }

 private:
  const ConSertNetwork* network_;
  std::map<std::string, std::string> current_;
  std::vector<GuaranteeTransition> transitions_;
};

}  // namespace sesame::conserts::oracle
