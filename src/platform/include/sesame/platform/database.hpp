// Database manager of the multi-UAV control platform (paper Section IV-A).
//
// Provides an API for telemetry storage and retrieval. UAVs report their
// state over the bus; the manager persists the latest record per vehicle,
// which is what the GCS queries. Access mirrors the paper's behaviour:
// requests must come from sources inside the platform network (a
// whitelist here), so external clients cannot read fleet state.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sesame/mw/bus.hpp"
#include "sesame/sim/world.hpp"

namespace sesame::platform {

class DatabaseManager {
 public:
  explicit DatabaseManager(mw::Bus& bus) : bus_(&bus) {}

  /// Starts persisting telemetry of the named UAV.
  void attach_uav(const std::string& name);

  /// Whitelists a client source for queries.
  void allow_client(const std::string& source);

  /// Latest telemetry; `client` must be whitelisted or std::runtime_error
  /// is thrown (the paper's network-origin check).
  std::optional<sim::Telemetry> latest(const std::string& client,
                                       const std::string& uav) const;

  std::size_t records_stored() const noexcept { return records_stored_; }

  /// Stale or duplicate telemetry discarded (record time not newer than
  /// the stored head) — non-zero only on a faulty/lossy transport.
  std::size_t records_rejected() const noexcept { return records_rejected_; }

 private:
  mw::Bus* bus_;
  std::set<std::string> allowed_clients_;
  std::map<std::string, std::optional<sim::Telemetry>> store_;
  std::vector<mw::Subscription> subscriptions_;
  std::size_t records_stored_ = 0;
  std::size_t records_rejected_ = 0;

  void check_client(const std::string& client) const;
};

}  // namespace sesame::platform
