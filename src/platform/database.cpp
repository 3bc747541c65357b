#include "sesame/platform/database.hpp"

#include <stdexcept>

namespace sesame::platform {

DatabaseManager::DatabaseManager(mw::Bus& bus, std::size_t history_limit)
    : bus_(&bus), history_limit_(history_limit) {
  if (history_limit_ == 0) {
    throw std::invalid_argument("DatabaseManager: zero history limit");
  }
}

void DatabaseManager::attach_uav(const std::string& name) {
  const auto [slot, inserted] = store_.try_emplace(name);
  if (!inserted) return;  // already attached
  // Map nodes never move, so the handler keeps its history slot instead
  // of looking the name up for every record.
  std::deque<sim::Telemetry>* const history_slot = &slot->second;
  subscriptions_.push_back(bus_->subscribe<sim::Telemetry>(
      sim::telemetry_topic(name),
      [this, history_slot](const mw::MessageHeader&, const sim::Telemetry& t) {
        auto& history = *history_slot;
        // The transport may duplicate or reorder messages (see
        // docs/FAULT_INJECTION.md); a state database must not let a late
        // copy of an old record shadow newer state.
        if (!history.empty() && t.time_s <= history.back().time_s) {
          ++records_rejected_;
          return;
        }
        history.push_back(t);
        if (history.size() > history_limit_) history.pop_front();
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
  if (it == store_.end() || it->second.empty()) return std::nullopt;
  return it->second.back();
}

std::vector<sim::Telemetry> DatabaseManager::history(
    const std::string& client, const std::string& uav) const {
  check_client(client);
  const auto it = store_.find(uav);
  if (it == store_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

}  // namespace sesame::platform
