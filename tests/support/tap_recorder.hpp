// Test-side record of the publication attempts a bus's taps observe.
//
// A tap sees every attempt, accepted or not, at the head of the publish
// pipeline; this one copies each header into owned strings, so the rows
// outlive the bus. Taps run in registration order, so where the recorder
// sits among the bus's other taps decides where a publication made from
// inside an earlier tap (the IDS raising an alert) lands in the record.
#pragma once

#include <any>
#include <cstdint>
#include <string>
#include <typeindex>
#include <vector>

#include "sesame/mw/bus.hpp"

namespace sesame::test {

/// One publication attempt as a tap saw it.
struct TapRow {
  std::uint64_t seq = 0;
  double time_s = 0.0;
  std::string source;
  std::string topic;
  std::string type_name;  ///< mangled payload type (std::type_index::name)
};

/// Records every publication attempt on `bus` from construction on. Must
/// not outlive the bus (its tap registration is released on destruction).
class TapRecorder {
 public:
  explicit TapRecorder(mw::Bus& bus)
      : tap_(bus.add_tap([this](const mw::MessageHeader& h, const std::any&,
                                std::type_index type) {
          rows_.push_back({h.seq, h.time_s, std::string(h.source),
                           std::string(h.topic), type.name()});
        })) {}
  TapRecorder(const TapRecorder&) = delete;
  TapRecorder& operator=(const TapRecorder&) = delete;

  const std::vector<TapRow>& rows() const noexcept { return rows_; }

 private:
  std::vector<TapRow> rows_;
  mw::Subscription tap_;
};

}  // namespace sesame::test
