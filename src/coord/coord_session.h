// CoordSession: the wire adapter of the coordinator daemon. One
// session per connection (the TcpServer's session factory builds
// them), speaking the same v5 text/framed grammar as a worker session
// but dispatching to a shared Coordinator instead of a ServiceApi:
//
//   mine QUERY        run a coordinated mine synchronously (submit +
//                     wait; the response is a normal mine verdict, so
//                     `kplex_cli mine --coordinator` reuses the plain
//                     remote-mine client path unchanged)
//   submit QUERY      enqueue a coordinated mine, return its job id
//   wait ID           block until the coordinated job is terminal
//   jobs              list every coordinated job
//   register H:P      add (or revive) a worker endpoint
//   heartbeat ID      worker liveness refresh
//   drain ID          graceful worker leave
//   workers           the worker roster
//   metrics [FMT]     the daemon's metrics registry
//   hello/help/quit   as on a worker
//
// hello, metrics, help and quit are answered by AnswerSessionVerb, the
// same helper a worker's ServiceApi uses.
//
// The line loop — text/framed parsing, error answers, quit and the
// hello mode switch — is WireSession's (service/wire_session.h); this
// class supplies only what each verb means to the daemon.
//
// Everything else (load, mineshard, plan, cancel, stats, ...) is
// refused with a structured InvalidArgument naming the daemon — a
// coordinator schedules work, it does not hold graphs.
//
// Disconnects do NOT cancel coordinated jobs: a job spans every
// worker, other clients may be waiting on it, and a submitter that
// reconnects can `wait` for it — so CancelOutstandingJobs keeps
// WireSession's no-op.

#ifndef KPLEX_COORD_COORD_SESSION_H_
#define KPLEX_COORD_COORD_SESSION_H_

#include <memory>
#include <ostream>

#include "coord/coordinator.h"
#include "service/protocol.h"
#include "service/wire_session.h"

namespace kplex {

class CoordSession : public WireSession {
 public:
  CoordSession(std::ostream& out, std::shared_ptr<Coordinator> coordinator);

 private:
  Response Execute(const Request& request) override;
  /// The daemon verbs; everything else is refused by name.
  ResponsePayload Schedule(const RequestPayload& payload);

  std::shared_ptr<Coordinator> coordinator_;
};

}  // namespace kplex

#endif  // KPLEX_COORD_COORD_SESSION_H_
