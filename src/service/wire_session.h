// WireSession: the one line loop of a protocol session. The TCP server
// (and any future transport) drives every connection through this
// class, so the same accept loop, hangup watcher, and frame-limit
// handling serve both the worker protocol (ServiceSession over a shared
// ServiceApi) and the coordinator daemon's session
// (coord/coord_session.h). A transport owns one WireSession per
// connection, feeds it newline-delimited lines, and flushes whatever
// the session wrote to its output stream after each line.
//
// The loop owns everything about a line that is not the verb's meaning:
//
//   - parsing in the negotiated mode: text until a `hello mode=framed`
//     handshake, then JSON frames. Text mode skips blank lines and '#'
//     comments; framed mode tolerates only truly blank keep-alives, so
//     every non-blank frame gets a correlated response;
//   - a line that does not parse: answered as an error (under the
//     frame's id when one was readable) and counted in errors();
//   - quit: a silent close in text mode, a `bye` frame in framed mode;
//   - hello: a response carrying a mode switches the session, and the
//     response itself is already written in the new mode;
//   - formatting the response in the current mode.
//
// A concrete session supplies only Execute: the verb's meaning. It may
// write frames of its own ahead of the response (a worker's streamed
// result_chunk frames) through Write.
//
// Threading contract: every method except CancelOutstandingJobs is
// called only from the connection's own serving thread.
// CancelOutstandingJobs is the one cross-thread entry point — a
// disconnect watcher fires it while the serving thread may be blocked
// inside a synchronous command.

#ifndef KPLEX_SERVICE_WIRE_SESSION_H_
#define KPLEX_SERVICE_WIRE_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>

#include "service/protocol.h"

namespace kplex {

class WireSession {
 public:
  /// `echo` prints each text command as "> LINE" before running it
  /// (script mode readability).
  explicit WireSession(std::ostream& out, bool echo = false)
      : out_(out), echo_(echo) {}
  virtual ~WireSession() = default;

  WireSession(const WireSession&) = delete;
  WireSession& operator=(const WireSession&) = delete;

  /// Executes one wire line (text or framed, per the negotiated mode)
  /// and writes any response to the session's output stream. Returns
  /// false once the session is over (`quit`).
  bool ExecuteLine(const std::string& line);

  /// The negotiated wire mode — transports need it to phrase their own
  /// errors (e.g. the frame-size limit) in the shape the client is
  /// parsing.
  WireMode mode() const { return mode_; }

  /// Failed commands so far: lines that did not parse, error
  /// responses, and whatever a session counts on top (CountError).
  uint64_t errors() const { return errors_; }

  /// Requests cancellation of the session's outstanding work on
  /// disconnect. Must be safe to call from a thread other than the
  /// serving thread, and concurrently with ExecuteLine. The default
  /// has nothing to cancel.
  virtual void CancelOutstandingJobs() {}

 protected:
  /// Runs one parsed request and returns its response (the loop counts
  /// an ErrorResponse and writes it). Never sees a text-mode quit.
  virtual Response Execute(const Request& request) = 0;

  /// Writes one response in the current mode; returns the bytes written.
  std::size_t Write(const Response& response);

  /// Counts one more failed command.
  void CountError() { ++errors_; }

 private:
  std::ostream& out_;
  const bool echo_;
  WireMode mode_ = WireMode::kText;
  uint64_t errors_ = 0;
};

/// The verbs every endpoint answers alike, from no state but the
/// process's metrics registry: hello (version negotiation and the mode
/// switch), metrics, help, and quit. ServiceApi and the coordinator
/// daemon's session both answer them here.
ResponsePayload AnswerSessionVerb(const HelloRequest& hello);
ResponsePayload AnswerSessionVerb(const MetricsRequest& metrics);
ResponsePayload AnswerSessionVerb(const HelpRequest&);
ResponsePayload AnswerSessionVerb(const QuitRequest&);

}  // namespace kplex

#endif  // KPLEX_SERVICE_WIRE_SESSION_H_
