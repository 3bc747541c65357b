// Attack trees with runtime state.
//
// Each Security EDDI is bound to one attack tree describing how an
// adversary reaches a goal (root) through attack steps (leaves) combined
// by AND/OR gates. Leaves carry the CAPEC-style metadata the paper lists
// (capecId, title, description, severity, likelihood, mitigation). At
// runtime, IDS alerts trigger leaves; when enough leaves fire for the root
// to evaluate true, the adversary's end goal is considered achieved and a
// critical security event is raised.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace sesame::security {

enum class Severity { kLow, kMedium, kHigh, kCritical };

std::string severity_name(Severity s);

/// CAPEC-style attack-step metadata (paper Section III-B).
struct AttackStepInfo {
  std::string capec_id;     ///< e.g. "CAPEC-627" (counterfeit GPS signals)
  std::string title;
  std::string description;
  Severity severity = Severity::kMedium;
  double likelihood = 0.5;  ///< a-priori likelihood in [0, 1]
  std::string mitigation;
};

/// Tree node kinds.
enum class AttackNodeKind { kLeaf, kAnd, kOr };

/// A node in the attack tree. Trees are built once (immutable structure)
/// while trigger state is mutable at runtime.
class AttackNode {
 public:
  static std::shared_ptr<AttackNode> leaf(AttackStepInfo info);
  static std::shared_ptr<AttackNode> and_node(
      std::string title, std::vector<std::shared_ptr<AttackNode>> children);
  static std::shared_ptr<AttackNode> or_node(
      std::string title, std::vector<std::shared_ptr<AttackNode>> children);

  AttackNodeKind kind() const noexcept { return kind_; }
  const std::string& title() const noexcept { return info_.title; }
  const AttackStepInfo& info() const noexcept { return info_; }
  const std::vector<std::shared_ptr<AttackNode>>& children() const noexcept {
    return children_;
  }

  /// Leaf trigger state.
  bool triggered() const noexcept { return triggered_; }
  void set_triggered(bool t);

  /// Evaluates whether this subtree's goal is currently achieved.
  bool achieved() const;

  /// Collects the titles of triggered leaves that contribute to an
  /// achieved subtree (the attack path for reporting).
  void collect_active_path(std::vector<std::string>& out) const;

 private:
  AttackNode(AttackNodeKind kind, AttackStepInfo info,
             std::vector<std::shared_ptr<AttackNode>> children);

  AttackNodeKind kind_;
  AttackStepInfo info_;
  std::vector<std::shared_ptr<AttackNode>> children_;
  bool triggered_ = false;
};

/// A named attack tree with leaf lookup.
class AttackTree {
 public:
  AttackTree(std::string name, std::shared_ptr<AttackNode> root);

  const std::string& name() const noexcept { return name_; }
  const std::shared_ptr<AttackNode>& root() const noexcept { return root_; }

  /// Finds a leaf by CAPEC id; nullptr when absent.
  std::shared_ptr<AttackNode> find_leaf(const std::string& capec_id) const;

  /// Triggers the leaf with the given CAPEC id; returns false when absent.
  bool trigger(const std::string& capec_id);

  /// True when the root goal is achieved.
  bool goal_achieved() const { return root_->achieved(); }

  /// Active (triggered) attack path titles, root-goal context included.
  std::vector<std::string> active_path() const;

  /// Highest severity among triggered leaves; nullopt when none triggered.
  std::optional<Severity> max_triggered_severity() const;

  /// Mitigations of all triggered leaves.
  std::vector<std::string> mitigations() const;

 private:
  std::string name_;
  std::shared_ptr<AttackNode> root_;

  template <typename Fn>
  void for_each_leaf(const std::shared_ptr<AttackNode>& node, Fn&& fn) const;
};

/// The ROS message-spoofing attack tree of the paper's use case:
///   goal: manipulate area mapping (root, AND)
///     - gain bus access (OR: open network / insider)
///     - inject falsified messages (leaf, CAPEC-594)
///     - evade detection (leaf)
/// plus a GPS-spoofing branch (CAPEC-627).
AttackTree make_spoofing_attack_tree();

}  // namespace sesame::security
