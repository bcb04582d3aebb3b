#include "service/wire_session.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "util/timer.h"

namespace kplex {
namespace {

Histogram& SerializeSeconds() {
  static Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "kplex_session_serialize_seconds");
  return histogram;
}

}  // namespace

bool WireSession::ExecuteLine(const std::string& line) {
  if (mode_ == WireMode::kText) {
    if (IsBlankOrComment(line)) return true;
    if (echo_) out_ << "> " << line << "\n";
  } else if (line.find_first_not_of(" \t\r") == std::string::npos) {
    // Framed mode tolerates truly blank keep-alive lines only; '#' is
    // not a comment marker here — every non-blank frame gets a
    // correlated response, or request/response clients would hang.
    return true;
  }
  uint64_t error_id = 0;
  StatusOr<Request> request = mode_ == WireMode::kText
                                  ? ParseTextRequest(line)
                                  : ParseFramedRequest(line, &error_id);
  Response response;
  if (!request.ok()) {
    // A rejected frame still answers under the client's id when one
    // was readable, so pipelining clients never orphan the failure.
    response.request_id = error_id;
    response.payload = ErrorResponse{request.status()};
  } else if (std::holds_alternative<QuitRequest>(request->payload) &&
             mode_ == WireMode::kText) {
    // The text grammar ends the session on `quit` without printing
    // anything; the framed wire acknowledges with a bye frame so
    // clients can tell a clean close from a dropped connection.
    return false;
  } else {
    response = Execute(*request);
  }
  if (std::holds_alternative<ErrorResponse>(response.payload)) CountError();
  // A hello that switches the wire mode is answered in the *new* mode,
  // so a framed client's very first read is already a JSON frame.
  if (const auto* hello = std::get_if<HelloResponse>(&response.payload)) {
    if (hello->mode.has_value()) mode_ = *hello->mode;
  }
  WallTimer serialize_timer;
  Write(response);
  SerializeSeconds().Observe(serialize_timer.ElapsedSeconds());
  return !std::holds_alternative<ByeResponse>(response.payload);
}

std::size_t WireSession::Write(const Response& response) {
  if (mode_ == WireMode::kText) {
    std::ostringstream rendered;
    FormatTextResponse(response, rendered);
    const std::string text = std::move(rendered).str();
    out_ << text;
    return text.size();
  }
  const std::string line = FormatFramedResponse(response);
  out_ << line << "\n";
  return line.size() + 1;
}

ResponsePayload AnswerSessionVerb(const HelloRequest& hello) {
  if (hello.version == 0) {
    return ErrorResponse{Status::InvalidArgument(
        "unsupported protocol version 0 (this server speaks 1.." +
        std::to_string(kProtocolVersion) + ")")};
  }
  HelloResponse response;
  response.version = std::min(hello.version, kProtocolVersion);
  response.mode = hello.mode;
  return response;
}

ResponsePayload AnswerSessionVerb(const MetricsRequest& metrics) {
  if (!metrics.format.empty() && metrics.format != "table" &&
      metrics.format != "prom") {
    return ErrorResponse{Status::InvalidArgument(
        "unknown metrics format '" + metrics.format +
        "' (expected table or prom)")};
  }
  return MetricsResponse{metrics.format, MetricsRegistry::Global().Snapshot()};
}

ResponsePayload AnswerSessionVerb(const HelpRequest&) { return HelpResponse{}; }

ResponsePayload AnswerSessionVerb(const QuitRequest&) { return ByeResponse{}; }

}  // namespace kplex
