#include "sesame/platform/database.hpp"

#include <stdexcept>

namespace sesame::platform {

void DatabaseManager::attach_uav(const std::string& name) {
  const auto [slot, inserted] = store_.try_emplace(name);
  if (!inserted) return;  // already attached
  // Map nodes never move, so the handler keeps its record slot instead of
  // looking the name up for every record.
  std::optional<sim::Telemetry>* const record = &slot->second;
  subscriptions_.push_back(bus_->subscribe<sim::Telemetry>(
      sim::telemetry_topic(name),
      [this, record](const mw::MessageHeader&, const sim::Telemetry& t) {
        // The transport may duplicate or reorder messages (see
        // docs/FAULT_INJECTION.md); a state database must not let a late
        // copy of an old record shadow newer state.
        if (*record && t.time_s <= (*record)->time_s) {
          ++records_rejected_;
          return;
        }
        *record = t;
        ++records_stored_;
      }));
}

void DatabaseManager::allow_client(const std::string& source) {
  allowed_clients_.insert(source);
}

void DatabaseManager::check_client(const std::string& client) const {
  if (!allowed_clients_.count(client)) {
    throw std::runtime_error("DatabaseManager: client '" + client +
                             "' is outside the platform network");
  }
}

std::optional<sim::Telemetry> DatabaseManager::latest(
    const std::string& client, const std::string& uav) const {
  check_client(client);
  const auto it = store_.find(uav);
  if (it == store_.end()) return std::nullopt;
  return it->second;
}

}  // namespace sesame::platform
