#include "sesame/conserts/consert.hpp"

#include <algorithm>
#include <stdexcept>

namespace sesame::conserts {

void Condition::collect_evidence(std::set<std::string>& out) const {
  if (kind_ == Kind::kEvidence) out.insert(name_);
  for (const auto& c : children_) c->collect_evidence(out);
}

void Condition::collect_demands(
    std::set<std::pair<std::string, std::string>>& out) const {
  if (kind_ == Kind::kDemand) out.insert({name_, guarantee_});
  for (const auto& c : children_) c->collect_demands(out);
}

ConditionPtr Condition::evidence(std::string name) {
  std::shared_ptr<Condition> c(new Condition(Kind::kEvidence));
  c->name_ = std::move(name);
  return c;
}

ConditionPtr Condition::demand(std::string consert, std::string guarantee) {
  std::shared_ptr<Condition> c(new Condition(Kind::kDemand));
  c->name_ = std::move(consert);
  c->guarantee_ = std::move(guarantee);
  return c;
}

ConditionPtr Condition::constant(bool value) {
  std::shared_ptr<Condition> c(new Condition(Kind::kConstant));
  c->value_ = value;
  return c;
}

ConditionPtr Condition::gate(Kind kind, std::vector<ConditionPtr> children) {
  if (children.empty()) {
    throw std::invalid_argument("ConSert gate condition without children");
  }
  for (const auto& c : children) {
    if (!c) throw std::invalid_argument("ConSert gate: null child");
  }
  std::shared_ptr<Condition> c(new Condition(kind));
  c->children_ = std::move(children);
  return c;
}

ConditionPtr Condition::all_of(std::vector<ConditionPtr> children) {
  return gate(Kind::kAllOf, std::move(children));
}

ConditionPtr Condition::any_of(std::vector<ConditionPtr> children) {
  return gate(Kind::kAnyOf, std::move(children));
}

ConditionPtr Condition::negate(ConditionPtr child) {
  if (!child) throw std::invalid_argument("ConSert not: null child");
  return gate(Kind::kNot, {std::move(child)});
}

ConSert::ConSert(std::string name) : name_(std::move(name)) {
  if (name_.empty()) throw std::invalid_argument("ConSert: empty name");
}

ConSert& ConSert::add_guarantee(std::string name, int rank,
                                ConditionPtr condition) {
  if (!condition) throw std::invalid_argument("add_guarantee: null condition");
  if (has_guarantee(name)) {
    throw std::invalid_argument("add_guarantee: duplicate guarantee " + name);
  }
  guarantees_.push_back({std::move(name), rank, std::move(condition)});
  return *this;
}

bool ConSert::has_guarantee(const std::string& name) const {
  return std::any_of(guarantees_.begin(), guarantees_.end(),
                     [&](const Guarantee& g) { return g.name == name; });
}

std::set<std::string> ConSert::demanded_conserts() const {
  std::set<std::pair<std::string, std::string>> demands;
  for (const auto& g : guarantees_) g.condition->collect_demands(demands);
  std::set<std::string> out;
  for (const auto& [consert, guarantee] : demands) {
    (void)guarantee;
    out.insert(consert);
  }
  return out;
}

void ConSertNetwork::add(ConSert consert) {
  const std::string name = consert.name();
  if (!conserts_.emplace(name, std::move(consert)).second) {
    throw std::invalid_argument("ConSertNetwork::add: duplicate " + name);
  }
}

std::vector<std::string> ConSertNetwork::names() const {
  std::vector<std::string> out;
  out.reserve(conserts_.size());
  for (const auto& [name, consert] : conserts_) {
    (void)consert;
    out.push_back(name);
  }
  return out;
}

const ConSert& ConSertNetwork::at(const std::string& name) const {
  const auto it = conserts_.find(name);
  if (it == conserts_.end()) {
    throw std::out_of_range("ConSertNetwork::at: " + name);
  }
  return it->second;
}

std::vector<std::string> ConSertNetwork::evaluation_order() const {
  // Kahn's algorithm over the demand graph (dependencies first).
  std::map<std::string, std::set<std::string>> deps;
  for (const auto& [name, consert] : conserts_) {
    std::set<std::string> demanded = consert.demanded_conserts();
    for (const auto& d : demanded) {
      if (!conserts_.count(d)) {
        throw std::runtime_error("ConSertNetwork: '" + name +
                                 "' demands unknown ConSert '" + d + "'");
      }
    }
    deps[name] = std::move(demanded);
  }
  std::vector<std::string> order;
  while (order.size() < conserts_.size()) {
    bool progressed = false;
    for (auto& [name, remaining] : deps) {
      if (std::find(order.begin(), order.end(), name) != order.end()) continue;
      const bool ready =
          std::all_of(remaining.begin(), remaining.end(), [&](const auto& d) {
            return std::find(order.begin(), order.end(), d) != order.end();
          });
      if (ready) {
        order.push_back(name);
        progressed = true;
      }
    }
    if (!progressed) {
      throw std::runtime_error("ConSertNetwork: demand cycle detected");
    }
  }
  return order;
}

}  // namespace sesame::conserts
