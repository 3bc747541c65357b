// Runtime assurance trace.
//
// Shifting assurance to runtime (the ConSerts premise) obliges the system
// to keep an evidence trail: which guarantees were in force when, and what
// evidence changes moved them. The recorder owns the compiled plan, stores
// a transition whenever a ConSert's best guarantee changes, and produces
// the audit timeline a post-mission safety review replays.
#pragma once

#include <string>
#include <vector>

#include "sesame/conserts/plan.hpp"

namespace sesame::conserts {

/// One best-guarantee transition of one ConSert.
struct GuaranteeTransition {
  double time_s = 0.0;
  std::string consert;
  /// Empty = no guarantee held (the implicit default applied).
  std::string from;
  std::string to;
};

class AssuranceTrace {
 public:
  explicit AssuranceTrace(Plan plan);

  /// The plan evaluate() runs: set its evidence before each call.
  Plan& plan() noexcept { return plan_; }

  /// Evaluates the plan at `time_s` and records the best-guarantee
  /// transitions, in ascending ConSert name order.
  void evaluate(double time_s);

  const std::vector<GuaranteeTransition>& transitions() const noexcept {
    return transitions_;
  }

  /// Transitions of one ConSert only (copy).
  std::vector<GuaranteeTransition> transitions_of(
      const std::string& consert) const;

  /// The guarantee currently in force for a ConSert (empty = default).
  std::string current(const std::string& consert) const;

  std::size_t evaluations() const noexcept { return evaluations_; }

 private:
  Plan plan_;
  std::vector<int> current_;  ///< best guarantee index by ConSert id
  std::vector<GuaranteeTransition> transitions_;
  std::size_t evaluations_ = 0;

  std::string guarantee_name(std::size_t consert, int guarantee) const;
};

}  // namespace sesame::conserts
