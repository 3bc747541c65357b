#include "sesame/conserts/assurance_trace.hpp"

#include <algorithm>

namespace sesame::conserts {

AssuranceTrace::AssuranceTrace(Plan plan)
    : plan_(std::move(plan)), current_(plan_.consert_count(), Plan::kNone) {}

std::string AssuranceTrace::guarantee_name(std::size_t consert,
                                           int guarantee) const {
  if (guarantee == Plan::kNone) return {};
  return plan_.guarantee_name(consert, static_cast<std::size_t>(guarantee));
}

void AssuranceTrace::evaluate(double time_s) {
  plan_.evaluate();
  ++evaluations_;
  for (std::size_t c = 0; c < current_.size(); ++c) {
    const int now = plan_.best(c);
    if (current_[c] != now) {
      transitions_.push_back({time_s, plan_.consert_name(c),
                              guarantee_name(c, current_[c]),
                              guarantee_name(c, now)});
      current_[c] = now;
    }
  }
}

std::vector<GuaranteeTransition> AssuranceTrace::transitions_of(
    const std::string& consert) const {
  std::vector<GuaranteeTransition> out;
  for (const auto& t : transitions_) {
    if (t.consert == consert) out.push_back(t);
  }
  return out;
}

std::string AssuranceTrace::current(const std::string& consert) const {
  for (std::size_t c = 0; c < current_.size(); ++c) {
    if (plan_.consert_name(c) == consert) return guarantee_name(c, current_[c]);
  }
  return {};
}

}  // namespace sesame::conserts
