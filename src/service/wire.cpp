#include "sesame/service/wire.hpp"

#include <exception>
#include <stdexcept>
#include <string_view>
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
void send_frame(mw::Framing& framing, std::string_view bytes) {
  framing.send_message(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
}

/// Queues `bytes` as consecutive frames of at most one payload each: one
/// frame, possibly empty, when they fit. An announcement sent before them
/// carries their total.
void send_chunks(mw::Framing& framing, std::string_view bytes) {
  std::size_t pos = 0;
  do {
    send_frame(framing, bytes.substr(pos, framing.max_payload_bytes()));
    pos += framing.max_payload_bytes();
  } while (pos < bytes.size());
}

/// Queues one JSON reply: one frame when it fits, else announced by
/// {"type":"reply_follows","bytes":n} and sent in chunks.
void send_reply(mw::Framing& framing, const std::string& text) {
  if (text.size() > framing.max_payload_bytes()) {
    send_frame(framing, Value(Value::Object{{"type", "reply_follows"},
                                            {"bytes", text.size()}})
                            .to_json());
  }
  send_chunks(framing, text);
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
    held_.emplace_back(reinterpret_cast<const char*>(payload.data()),
                       payload.size());
  });
  // Credit each request once handled; the rest wait, uncredited. Replies
  // the peer's credit lets through count until the owner takes them.
  while (!held_.empty() &&
         framing_.queued_bytes() + framing_.outbound_bytes() <
             kHighWaterBytes) {
    handle(held_.front());
    held_.pop_front();
    framing_.release(1);
  }
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
      send_reply(framing_, reply.to_json());
      // A completed job's poll also delivers the report: announce its
      // size, then ship the raw bytes (the byte-identity surface).
      if (status.state == JobState::kCompleted) {
        const std::string report = service_.report(id);
        const Value follows = Value::Object{
            {"type", "report_follows"}, {"job", id}, {"bytes", report.size()}};
        send_frame(framing_, follows.to_json());
        send_chunks(framing_, report);
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
  send_reply(framing_, reply.to_json());
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
    on_frame(std::string(reinterpret_cast<const char*>(payload.data()),
                         payload.size()));
    framing_.release(1);  // handled: credit the server back
  });
}

void WireClient::on_frame(std::string text) {
  if (assembling_ != Assembling::kNone) {
    if (partial_.empty()) {
      partial_ = std::move(text);  // one frame: no copy
    } else {
      partial_ += text;
    }
    if (partial_.size() < expect_bytes_) return;
    const Assembling done = std::exchange(assembling_, Assembling::kNone);
    if (done == Assembling::kReport) {
      report_ = std::move(partial_);
      report_received_ = true;
    } else {
      responses_.push_back(std::move(partial_));
    }
    partial_.clear();
    return;
  }
  // Peek for an announcement; anything else is a response.
  try {
    const Value doc = eddi::ode::parse_json(text);
    const std::string& type = doc.at("type").as_string();
    if (type == "report_follows" || type == "reply_follows") {
      expect_bytes_ = integer_field(doc, "bytes");
      assembling_ = type == "report_follows" ? Assembling::kReport
                                             : Assembling::kReply;
      if (assembling_ == Assembling::kReply) return;  // transport only
    }
  } catch (const std::exception&) {
    // Not a typed JSON document: surface it; the caller decides.
  }
  responses_.push_back(std::move(text));
}

std::string WireClient::pop_response() {
  if (responses_.empty()) throw std::out_of_range("no wire responses queued");
  std::string out = std::move(responses_.front());
  responses_.pop_front();
  return out;
}

}  // namespace sesame::service
