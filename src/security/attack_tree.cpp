#include "sesame/security/attack_tree.hpp"

#include <algorithm>
#include <stdexcept>

namespace sesame::security {

std::string severity_name(Severity s) {
  switch (s) {
    case Severity::kLow: return "Low";
    case Severity::kMedium: return "Medium";
    case Severity::kHigh: return "High";
    case Severity::kCritical: return "Critical";
  }
  return "unknown";
}

AttackNode::AttackNode(AttackNodeKind kind, AttackStepInfo info,
                       std::vector<std::shared_ptr<AttackNode>> children)
    : kind_(kind), info_(std::move(info)), children_(std::move(children)) {
  if (kind_ != AttackNodeKind::kLeaf && children_.empty()) {
    throw std::invalid_argument("AttackNode: gate without children");
  }
  for (const auto& c : children_) {
    if (!c) throw std::invalid_argument("AttackNode: null child");
  }
}

std::shared_ptr<AttackNode> AttackNode::leaf(AttackStepInfo info) {
  if (info.title.empty()) {
    throw std::invalid_argument("AttackNode::leaf: empty title");
  }
  return std::shared_ptr<AttackNode>(
      new AttackNode(AttackNodeKind::kLeaf, std::move(info), {}));
}

std::shared_ptr<AttackNode> AttackNode::and_node(
    std::string title, std::vector<std::shared_ptr<AttackNode>> children) {
  AttackStepInfo info;
  info.title = std::move(title);
  return std::shared_ptr<AttackNode>(
      new AttackNode(AttackNodeKind::kAnd, std::move(info), std::move(children)));
}

std::shared_ptr<AttackNode> AttackNode::or_node(
    std::string title, std::vector<std::shared_ptr<AttackNode>> children) {
  AttackStepInfo info;
  info.title = std::move(title);
  return std::shared_ptr<AttackNode>(
      new AttackNode(AttackNodeKind::kOr, std::move(info), std::move(children)));
}

void AttackNode::set_triggered(bool t) {
  if (kind_ != AttackNodeKind::kLeaf) {
    throw std::logic_error("AttackNode::set_triggered: not a leaf");
  }
  triggered_ = t;
}

bool AttackNode::achieved() const {
  switch (kind_) {
    case AttackNodeKind::kLeaf:
      return triggered_;
    case AttackNodeKind::kAnd:
      return std::all_of(children_.begin(), children_.end(),
                         [](const auto& c) { return c->achieved(); });
    case AttackNodeKind::kOr:
      return std::any_of(children_.begin(), children_.end(),
                         [](const auto& c) { return c->achieved(); });
  }
  return false;
}

void AttackNode::collect_active_path(std::vector<std::string>& out) const {
  if (!achieved()) return;
  out.push_back(info_.title);
  for (const auto& c : children_) {
    if (c->achieved()) c->collect_active_path(out);
  }
}

AttackTree::AttackTree(std::string name, std::shared_ptr<AttackNode> root)
    : name_(std::move(name)), root_(std::move(root)) {
  if (!root_) throw std::invalid_argument("AttackTree: null root");
}

template <typename Fn>
void AttackTree::for_each_leaf(const std::shared_ptr<AttackNode>& node,
                               Fn&& fn) const {
  if (node->kind() == AttackNodeKind::kLeaf) {
    fn(node);
    return;
  }
  for (const auto& c : node->children()) for_each_leaf(c, fn);
}

std::shared_ptr<AttackNode> AttackTree::find_leaf(
    const std::string& capec_id) const {
  std::shared_ptr<AttackNode> found;
  for_each_leaf(root_, [&](const std::shared_ptr<AttackNode>& leaf) {
    if (!found && leaf->info().capec_id == capec_id) found = leaf;
  });
  return found;
}

bool AttackTree::trigger(const std::string& capec_id) {
  const auto leaf = find_leaf(capec_id);
  if (!leaf) return false;
  leaf->set_triggered(true);
  return true;
}

std::vector<std::string> AttackTree::active_path() const {
  std::vector<std::string> out;
  root_->collect_active_path(out);
  return out;
}

std::optional<Severity> AttackTree::max_triggered_severity() const {
  std::optional<Severity> best;
  for_each_leaf(root_, [&](const std::shared_ptr<AttackNode>& leaf) {
    if (!leaf->triggered()) return;
    if (!best || static_cast<int>(leaf->info().severity) >
                     static_cast<int>(*best)) {
      best = leaf->info().severity;
    }
  });
  return best;
}

std::vector<std::string> AttackTree::mitigations() const {
  std::vector<std::string> out;
  for_each_leaf(root_, [&](const std::shared_ptr<AttackNode>& leaf) {
    if (leaf->triggered() && !leaf->info().mitigation.empty()) {
      out.push_back(leaf->info().mitigation);
    }
  });
  return out;
}

AttackTree make_spoofing_attack_tree() {
  AttackStepInfo access;
  access.capec_id = "CAPEC-151";
  access.title = "Gain publish access to the robot message bus";
  access.description =
      "The ROS-style bus accepts publications from any reachable node; an "
      "attacker joins the network and assumes a publisher identity.";
  access.severity = Severity::kMedium;
  access.likelihood = 0.6;
  access.mitigation = "Authenticate publishers (e.g. SROS2 / TLS identities).";

  AttackStepInfo inject;
  inject.capec_id = "CAPEC-594";
  inject.title = "Inject falsified traffic on trusted topics";
  inject.description =
      "Falsified position-fix/waypoint messages are published on topics the "
      "navigation stack trusts, steering the area-mapping trajectory.";
  inject.severity = Severity::kHigh;
  inject.likelihood = 0.5;
  inject.mitigation =
      "Cross-validate navigation inputs; trigger Collaborative Localization.";

  AttackStepInfo gps;
  gps.capec_id = "CAPEC-627";
  gps.title = "Counterfeit GPS signals walk the position estimate";
  gps.description =
      "The receiver tracks counterfeit signals whose solution drifts from "
      "the true position at the attacker's chosen rate.";
  gps.severity = Severity::kCritical;
  gps.likelihood = 0.3;
  gps.mitigation =
      "Disable GPS input, switch to collaborative localization, safe-land.";

  AttackStepInfo flood;
  flood.capec_id = "CAPEC-125";
  flood.title = "Flood the command channel";
  flood.description =
      "High-rate bogus publications starve legitimate command traffic.";
  flood.severity = Severity::kMedium;
  flood.likelihood = 0.4;
  flood.mitigation = "Rate-limit per-source publications.";

  AttackStepInfo wire;
  wire.capec_id = "CAPEC-94";
  wire.title = "Tamper with the framed companion-computer link";
  wire.description =
      "An adversary in the middle of the serial/socket link mangles or "
      "replays authenticated frames; the framing layer rejects them (CRC, "
      "auth, replay counters) and the wire monitor raises the evidence.";
  wire.severity = Severity::kHigh;
  wire.likelihood = 0.3;
  wire.mitigation =
      "Authenticated framing with replay windows; re-key and fail over to "
      "a redundant link.";

  auto root = AttackNode::or_node(
      "Manipulate UAV area-mapping mission",
      {AttackNode::and_node("Spoof ROS messages",
                            {AttackNode::leaf(access), AttackNode::leaf(inject)}),
       AttackNode::leaf(gps), AttackNode::leaf(flood),
       AttackNode::leaf(wire)});
  return AttackTree("ros_message_spoofing", std::move(root));
}

}  // namespace sesame::security
