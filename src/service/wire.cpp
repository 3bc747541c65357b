#include "sesame/service/wire.hpp"

#include <exception>
#include <stdexcept>
#include <utility>

#include "sesame/eddi/ode.hpp"

namespace sesame::service {

namespace {

using eddi::ode::Value;

/// A request's integer field, named in the error when absent or malformed.
std::uint64_t integer_field(const Value& doc, const std::string& key) {
  try {
    return doc.at(key).as_integer<std::uint64_t>();
  } catch (const std::exception& e) {
    throw std::invalid_argument("request field \"" + key + "\": " + e.what());
  }
}

/// Queues `bytes` as one Message frame.
void send_frame(mw::Framing& framing, const std::string& bytes) {
  framing.send_message(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
}

/// The submission fields of a wire "submit" request ("type" dropped), so
/// submission_from_value stays the single reader/validator.
Submission submission_from_request(const Value& doc) {
  Value::Object fields = doc.as_object();
  fields.erase("type");
  return submission_from_value(Value(std::move(fields)));
}

}  // namespace

WireSession::WireSession(CampaignService& service, mw::Bus& alert_bus,
                         std::string link_name, mw::FramingConfig framing)
    : service_(service),
      framing_(framing),
      monitor_(alert_bus, std::move(link_name)) {}

void WireSession::feed(std::span<const std::uint8_t> bytes) {
  framing_.feed(bytes, [this](std::span<const std::uint8_t> payload,
                              std::uint64_t /*seq*/) {
    handle(std::string(reinterpret_cast<const char*>(payload.data()),
                       payload.size()));
  });
}

void WireSession::handle(const std::string& text) {
  Value reply;
  try {
    const Value doc = eddi::ode::parse_json(text);
    const std::string& type = doc.at("type").as_string();

    if (type == "submit") {
      const Submission submission = submission_from_request(doc);
      const SubmitOutcome out = service_.submit(submission);
      if (out.accepted) {
        const std::uint64_t digest = service_.status(out.job_id).digest;
        reply = Value::Object{{"type", "accepted"},
                              {"job", out.job_id},
                              {"digest", std::to_string(digest)}};
      } else {
        reply = Value::Object{{"type", "rejected"},
                              {"reason", out.reject_reason}};
      }
    } else if (type == "status") {
      reply = status_to_json(service_.status(integer_field(doc, "job")));
      reply["type"] = "status";
    } else if (type == "poll") {
      const std::uint64_t id = integer_field(doc, "job");
      const std::size_t cursor = doc.as_object().count("cursor") != 0
                                     ? integer_field(doc, "cursor")
                                     : 0;
      const JobStatus status = service_.status(id);
      reply = events_to_json(service_, id, cursor);
      reply["type"] = "events";
      reply["job"] = id;
      send_frame(framing_, reply.to_json());
      // A completed job's poll also delivers the report: announce, then
      // ship the bytes as ONE raw frame (the byte-identity surface).
      if (status.state == JobState::kCompleted) {
        const std::string report = service_.report(id);
        const Value follows = Value::Object{
            {"type", "report_follows"}, {"job", id}, {"bytes", report.size()}};
        send_frame(framing_, follows.to_json());
        send_frame(framing_, report);
      }
      return;
    } else {
      throw std::runtime_error("unknown request type: " + type);
    }
  } catch (const std::out_of_range&) {
    reply = Value::Object{{"type", "error"}, {"error", "no such job"}};
  } catch (const std::exception& e) {
    reply = Value::Object{{"type", "error"}, {"error", e.what()}};
  }
  send_frame(framing_, reply.to_json());
}

WireClient::WireClient(mw::FramingConfig framing) : framing_(framing) {}

void WireClient::submit(const Submission& submission) {
  Value doc = submission_to_value(submission);
  doc["type"] = "submit";
  send_frame(framing_, doc.to_json());
}

void WireClient::poll_events(std::uint64_t job_id, std::size_t cursor) {
  Value doc;
  doc["type"] = "poll";
  doc["job"] = job_id;
  doc["cursor"] = cursor;
  send_frame(framing_, doc.to_json());
}

void WireClient::feed(std::span<const std::uint8_t> bytes) {
  framing_.feed(bytes, [this](std::span<const std::uint8_t> payload,
                              std::uint64_t /*seq*/) {
    std::string text(reinterpret_cast<const char*>(payload.data()),
                     payload.size());
    if (expect_report_) {
      report_ = std::move(text);
      report_received_ = true;
      expect_report_ = false;
      return;
    }
    // Peek for the report announcement; anything else is a response.
    try {
      expect_report_ = eddi::ode::parse_json(text).at("type").as_string() ==
                       "report_follows";
    } catch (const std::exception&) {
      // Not a typed JSON document: surface it; the caller decides.
    }
    responses_.push_back(std::move(text));
  });
}

std::string WireClient::pop_response() {
  if (responses_.empty()) throw std::out_of_range("no wire responses queued");
  std::string out = std::move(responses_.front());
  responses_.pop_front();
  return out;
}

}  // namespace sesame::service
