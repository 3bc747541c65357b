#include "sesame/conserts/plan.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace sesame::conserts {

namespace {

std::size_t sorted_index(const std::vector<std::string>& sorted,
                         std::string_view name, const char* what) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), name);
  if (it == sorted.end() || *it != name) {
    throw std::out_of_range(std::string("Plan: unknown ") + what + " '" +
                            std::string(name) + "'");
  }
  return static_cast<std::size_t>(it - sorted.begin());
}

}  // namespace

Plan::Plan(const ConSertNetwork& network)
    : consert_names_(network.names()) {
  const std::vector<std::string> order = network.evaluation_order();

  std::set<std::string> evidence;
  for (const auto& name : consert_names_) {
    for (const auto& g : network.at(name).guarantees()) {
      g.condition->collect_evidence(evidence);
    }
  }
  evidence_names_.assign(evidence.begin(), evidence.end());

  // Granted bits, dependencies first.
  first_bit_.resize(consert_names_.size());
  end_bit_.resize(consert_names_.size());
  for (const auto& name : order) {
    const auto c = static_cast<std::uint32_t>(consert_id(name));
    order_.push_back(c);
    first_bit_[c] = static_cast<std::uint32_t>(guarantee_names_.size());
    for (const auto& g : network.at(name).guarantees()) {
      bit_consert_.push_back(c);
      guarantee_names_.push_back(g.name);
      rank_.push_back(g.rank);
    }
    end_bit_[c] = static_cast<std::uint32_t>(guarantee_names_.size());
  }
  const std::size_t declared_bits = guarantee_names_.size();
  const auto demand_bit = [&](const Condition& d) {
    const auto c = static_cast<std::uint32_t>(consert_id(d.name()));
    for (std::uint32_t b = first_bit_[c]; b < end_bit_[c]; ++b) {
      if (guarantee_names_[b] == d.guarantee()) return b;
    }
    for (std::size_t b = declared_bits; b < guarantee_names_.size(); ++b) {
      if (bit_consert_[b] == c && guarantee_names_[b] == d.guarantee()) {
        return static_cast<std::uint32_t>(b);
      }
    }
    bit_consert_.push_back(c);
    guarantee_names_.push_back(d.guarantee());
    return static_cast<std::uint32_t>(guarantee_names_.size() - 1);
  };

  // One postfix program per bit. emit() returns the stack depth its
  // subtree needs: child i runs with i operands already pushed.
  const auto emit = [&](const auto& self, const Condition& c) -> std::size_t {
    switch (c.kind()) {
      case Condition::Kind::kEvidence:
        code_.push_back({Op::kEvidence,
                         static_cast<std::uint32_t>(evidence_id(c.name()))});
        return 1;
      case Condition::Kind::kDemand:
        code_.push_back({Op::kDemand, demand_bit(c)});
        return 1;
      case Condition::Kind::kConstant:
        code_.push_back({Op::kConstant, c.value() ? 1u : 0u});
        return 1;
      case Condition::Kind::kAllOf:
      case Condition::Kind::kAnyOf:
      case Condition::Kind::kNot: {
        std::size_t depth = 0;
        const auto& children = c.children();
        for (std::size_t i = 0; i < children.size(); ++i) {
          depth = std::max(depth, i + self(self, *children[i]));
        }
        const Op op = c.kind() == Condition::Kind::kAllOf   ? Op::kAll
                      : c.kind() == Condition::Kind::kAnyOf ? Op::kAny
                                                            : Op::kNot;
        code_.push_back({op, static_cast<std::uint32_t>(children.size())});
        return depth;
      }
    }
    return 0;
  };
  std::size_t depth = 1;
  for (const std::uint32_t c : order_) {
    for (const auto& g : network.at(consert_names_[c]).guarantees()) {
      code_begin_.push_back(static_cast<std::uint32_t>(code_.size()));
      depth = std::max(depth, emit(emit, *g.condition));
    }
  }
  code_begin_.push_back(static_cast<std::uint32_t>(code_.size()));

  evidence_.assign(evidence_names_.size(), 0);
  granted_.assign(guarantee_names_.size(), 0);
  best_.assign(consert_names_.size(), kNone);
  stack_.assign(depth, 0);
}

std::size_t Plan::evidence_id(std::string_view name) const {
  return sorted_index(evidence_names_, name, "evidence");
}

std::size_t Plan::consert_id(std::string_view name) const {
  return sorted_index(consert_names_, name, "ConSert");
}

std::size_t Plan::bit(std::size_t consert, std::size_t guarantee) const {
  if (guarantee >= guarantee_count(consert)) {
    throw std::out_of_range("Plan: guarantee index out of range");
  }
  return first_bit_[consert] + guarantee;
}

bool Plan::run(std::size_t bit, std::uint8_t* stack) const {
  std::size_t sp = 0;
  for (std::uint32_t i = code_begin_[bit]; i < code_begin_[bit + 1]; ++i) {
    const Instr in = code_[i];
    switch (in.op) {
      case Op::kEvidence: stack[sp++] = evidence_[in.arg]; break;
      case Op::kDemand: stack[sp++] = granted_[in.arg]; break;
      case Op::kConstant: stack[sp++] = static_cast<std::uint8_t>(in.arg); break;
      case Op::kAll: {
        sp -= in.arg;
        std::uint8_t v = 1;
        for (std::uint32_t k = 0; k < in.arg; ++k) v &= stack[sp + k];
        stack[sp++] = v;
        break;
      }
      case Op::kAny: {
        sp -= in.arg;
        std::uint8_t v = 0;
        for (std::uint32_t k = 0; k < in.arg; ++k) v |= stack[sp + k];
        stack[sp++] = v;
        break;
      }
      case Op::kNot: stack[sp - 1] ^= 1; break;
    }
  }
  return stack[0] != 0;
}

void Plan::evaluate() {
  for (const std::uint32_t c : order_) {
    const std::uint32_t first = first_bit_[c];
    int best = kNone;
    for (std::uint32_t b = first; b < end_bit_[c]; ++b) {
      const bool holds = run(b, stack_.data());
      granted_[b] = holds;
      if (holds && (best == kNone || rank_[b] < rank_[first + best])) {
        best = static_cast<int>(b - first);
      }
    }
    best_[c] = best;
  }
}

GuaranteeExplanation Plan::explain(const std::string& consert,
                                   const std::string& guarantee) const {
  const auto it = std::lower_bound(consert_names_.begin(),
                                   consert_names_.end(), consert);
  std::size_t b = guarantee_names_.size();
  if (it != consert_names_.end() && *it == consert) {
    const auto c = static_cast<std::size_t>(it - consert_names_.begin());
    for (std::size_t i = first_bit_[c]; i < end_bit_[c]; ++i) {
      if (guarantee_names_[i] == guarantee) b = i;
    }
  }
  if (b == guarantee_names_.size()) {
    throw std::invalid_argument("Plan::explain: unknown guarantee " +
                                guarantee + " of " + consert);
  }
  GuaranteeExplanation out;
  out.consert = consert;
  out.guarantee = guarantee;
  std::vector<std::uint8_t> stack(stack_.size());
  out.satisfied = run(b, stack.data());

  // Evidence ids follow name order, so sorting ids sorts names.
  std::vector<std::uint32_t> evidence;
  for (std::uint32_t i = code_begin_[b]; i < code_begin_[b + 1]; ++i) {
    const Instr in = code_[i];
    if (in.op == Op::kEvidence && evidence_[in.arg] == 0) {
      evidence.push_back(in.arg);
    } else if (in.op == Op::kDemand && granted_[in.arg] == 0) {
      out.missing_demands.emplace_back(consert_names_[bit_consert_[in.arg]],
                                       guarantee_names_[in.arg]);
    }
  }
  std::sort(evidence.begin(), evidence.end());
  evidence.erase(std::unique(evidence.begin(), evidence.end()),
                 evidence.end());
  for (const std::uint32_t id : evidence) {
    out.missing_evidence.push_back(evidence_names_[id]);
  }
  auto& demands = out.missing_demands;
  std::sort(demands.begin(), demands.end());
  demands.erase(std::unique(demands.begin(), demands.end()), demands.end());
  return out;
}

}  // namespace sesame::conserts
