// A ConSert network compiled for the runtime tick.
//
// The plan resolves every name once, when it is compiled:
//   - evidence gets a dense id (ascending name order);
//   - every (ConSert, guarantee) gets one granted bit, laid out in
//     topological order, so evaluation writes the bit vector front to back;
//   - every condition tree becomes a flat postfix program over those ids.
// ConSert ids follow ascending ConSert name, the order of
// ConSertNetwork::names().
//
// The tick then writes evidence flags by id, calls evaluate(), and reads
// the granted bits and the best guarantee of each ConSert by index. It
// touches no string and allocates nothing: every buffer is sized at
// compile time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sesame/conserts/consert.hpp"

namespace sesame::conserts {

class Plan {
 public:
  /// best() of a ConSert none of whose guarantees holds.
  static constexpr int kNone = -1;

  /// Compiles `network`. Throws std::runtime_error on demand cycles and on
  /// demands on unknown ConSerts, like ConSertNetwork::evaluation_order().
  /// A demand on an unknown guarantee of a known ConSert is never granted.
  explicit Plan(const ConSertNetwork& network);

  std::size_t evidence_count() const noexcept { return evidence_.size(); }
  /// Id of an evidence name referenced by some condition; throws
  /// std::out_of_range for any other name.
  std::size_t evidence_id(std::string_view name) const;
  const std::string& evidence_name(std::size_t id) const {
    return evidence_names_.at(id);
  }

  std::size_t consert_count() const noexcept { return consert_names_.size(); }
  /// Id of a ConSert; throws std::out_of_range for an unknown name.
  std::size_t consert_id(std::string_view name) const;
  const std::string& consert_name(std::size_t consert) const {
    return consert_names_.at(consert);
  }
  std::size_t guarantee_count(std::size_t consert) const {
    return end_bit_.at(consert) - first_bit_.at(consert);
  }
  /// Name of a ConSert's guarantee by declaration index.
  const std::string& guarantee_name(std::size_t consert,
                                    std::size_t guarantee) const {
    return guarantee_names_.at(bit(consert, guarantee));
  }

  /// Evidence not set since compilation reads false.
  void set_evidence(std::size_t id, bool value) { evidence_[id] = value; }

  /// Evaluates every ConSert, dependencies first.
  void evaluate();

  /// Results of the last evaluate().
  bool granted(std::size_t consert, std::size_t guarantee) const {
    return granted_[bit(consert, guarantee)] != 0;
  }
  /// Declaration index of the best granted guarantee (lowest rank, first
  /// declared on a tie), or kNone.
  int best(std::size_t consert) const { return best_[consert]; }

  /// Why a guarantee holds or not, read from its program against the
  /// current evidence and the grants of the last evaluate(). Throws
  /// std::invalid_argument for an unknown ConSert or guarantee.
  GuaranteeExplanation explain(const std::string& consert,
                               const std::string& guarantee) const;

 private:
  enum class Op : std::uint8_t { kEvidence, kDemand, kConstant, kAll, kAny,
                                 kNot };
  struct Instr {
    Op op;
    std::uint32_t arg;  ///< evidence id, granted bit, value or arity
  };

  // Names, sorted; the index is the id.
  std::vector<std::string> evidence_names_;
  std::vector<std::string> consert_names_;
  /// ConSert id and guarantee name per granted bit, then one per demand on
  /// an unknown guarantee (bits no ConSert writes, so they stay false).
  std::vector<std::uint32_t> bit_consert_;
  std::vector<std::string> guarantee_names_;

  // The program.
  std::vector<std::uint32_t> order_;      ///< consert ids, dependencies first
  std::vector<std::uint32_t> first_bit_;  ///< by consert id
  std::vector<std::uint32_t> end_bit_;    ///< by consert id
  std::vector<int> rank_;                 ///< by bit
  std::vector<std::uint32_t> code_begin_; ///< by bit; one past the last too
  std::vector<Instr> code_;

  // Tick state.
  std::vector<std::uint8_t> evidence_;  ///< by evidence id
  std::vector<std::uint8_t> granted_;   ///< by bit
  std::vector<int> best_;               ///< by consert id
  std::vector<std::uint8_t> stack_;     ///< deepest program's operand stack

  std::size_t bit(std::size_t consert, std::size_t guarantee) const;
  bool run(std::size_t bit, std::uint8_t* stack) const;
};

}  // namespace sesame::conserts
