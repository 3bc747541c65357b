// Conditional Safety Certificates (ConSerts): the model builder.
//
// ConSerts (Reich et al., SAFECOMP 2020) shift part of the safety argument
// to runtime: each component ships a certificate whose *guarantees* are
// conditional on *runtime evidence* (monitored boolean conditions) and on
// *demands* — guarantees that other components' ConSerts must currently
// provide. At runtime the network is evaluated bottom-up; every ConSert
// offers its highest-priority satisfied guarantee, and the top level maps
// to safe actions (Continue Mission / Hold / Return to Base / Emergency
// Land — paper Fig. 1).
//
// This header builds the model: condition trees, ConSerts and the network.
// plan.hpp compiles a network into the indexed program the runtime
// evaluates; the ODE export reads the model directly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace sesame::conserts {

class Condition;
using ConditionPtr = std::shared_ptr<const Condition>;

/// Boolean condition tree over runtime evidence and demands. Unset
/// evidence and ungranted demands read false.
class Condition {
 public:
  enum class Kind : std::uint8_t {
    kEvidence,  ///< a runtime-evidence flag, named by name()
    kDemand,    ///< guarantee() of the ConSert name() is granted
    kConstant,  ///< value()
    kAllOf,     ///< every child holds
    kAnyOf,     ///< some child holds
    kNot,       ///< the single child does not hold
  };

  Kind kind() const noexcept { return kind_; }
  /// Evidence name (kEvidence) or demanded ConSert (kDemand).
  const std::string& name() const noexcept { return name_; }
  /// Demanded guarantee (kDemand).
  const std::string& guarantee() const noexcept { return guarantee_; }
  /// Constant value (kConstant).
  bool value() const noexcept { return value_; }
  /// Operands of kAllOf / kAnyOf / kNot.
  const std::vector<ConditionPtr>& children() const noexcept {
    return children_;
  }

  /// Names of runtime evidence referenced beneath this node.
  void collect_evidence(std::set<std::string>& out) const;
  /// (consert, guarantee) demands referenced beneath this node.
  void collect_demands(
      std::set<std::pair<std::string, std::string>>& out) const;

  /// Leaf: a runtime-evidence flag.
  static ConditionPtr evidence(std::string name);
  /// Leaf: a demand on another ConSert's guarantee.
  static ConditionPtr demand(std::string consert, std::string guarantee);
  /// Constant (used for unconditional/default guarantees).
  static ConditionPtr constant(bool value);
  /// Conjunction / disjunction (at least one child) / negation.
  static ConditionPtr all_of(std::vector<ConditionPtr> children);
  static ConditionPtr any_of(std::vector<ConditionPtr> children);
  static ConditionPtr negate(ConditionPtr child);

 private:
  explicit Condition(Kind kind) : kind_(kind) {}
  static ConditionPtr gate(Kind kind, std::vector<ConditionPtr> children);

  Kind kind_;
  bool value_ = false;
  std::string name_;
  std::string guarantee_;
  std::vector<ConditionPtr> children_;
};

/// A conditional guarantee. Lower `rank` = stronger/preferred guarantee;
/// the ConSert provides the satisfied guarantee with the smallest rank,
/// and on a tied rank the one declared first.
struct Guarantee {
  std::string name;
  int rank = 0;
  ConditionPtr condition;
};

/// One component's conditional safety certificate.
class ConSert {
 public:
  explicit ConSert(std::string name);

  const std::string& name() const noexcept { return name_; }

  /// Adds a guarantee; names must be unique within the ConSert, and the
  /// condition must be non-null.
  ConSert& add_guarantee(std::string name, int rank, ConditionPtr condition);

  const std::vector<Guarantee>& guarantees() const noexcept {
    return guarantees_;
  }
  bool has_guarantee(const std::string& name) const;

  /// All demands referenced by any guarantee: the ConSerts this one
  /// depends on — used for topological evaluation order.
  std::set<std::string> demanded_conserts() const;

 private:
  std::string name_;
  std::vector<Guarantee> guarantees_;
};

/// Why a guarantee is currently not provided: the referenced runtime
/// evidence that evaluates false and the demands that are not granted,
/// each sorted by name. For monotone (negation-free) conditions — all the
/// Fig. 1 models — the guarantee is satisfiable exactly when both lists
/// are empty.
struct GuaranteeExplanation {
  std::string consert;
  std::string guarantee;
  bool satisfied = false;
  std::vector<std::string> missing_evidence;
  std::vector<std::pair<std::string, std::string>> missing_demands;
};

/// A hierarchical network of ConSerts evaluated bottom-up.
class ConSertNetwork {
 public:
  /// Adds a ConSert; names must be unique.
  void add(ConSert consert);

  const ConSert& at(const std::string& name) const;
  std::size_t size() const noexcept { return conserts_.size(); }

  /// Names of all ConSerts in the network (sorted).
  std::vector<std::string> names() const;

  /// Topological (dependencies-first) evaluation order. Throws
  /// std::runtime_error on demand cycles or demands on unknown ConSerts.
  std::vector<std::string> evaluation_order() const;

 private:
  std::map<std::string, ConSert> conserts_;
};

}  // namespace sesame::conserts
