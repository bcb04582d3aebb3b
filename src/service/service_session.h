// ServiceSession: the worker protocol's session, behind `kplex_cli
// serve` and each TCP connection of a worker. The line loop — parsing
// in the negotiated mode, the blank/comment and keep-alive rules,
// error answers, quit, and the hello mode switch — is WireSession's
// (service/wire_session.h); this class binds it to a ServiceApi (owned,
// or shared with other sessions of the same serve process) and keeps
// only the per-connection state the protocol is stateful about:
//
//   - the error tally for batch exit codes (a failed job counts exactly
//     once no matter how often or through which command it surfaces),
//   - the ids of jobs this session created, recorded by ServiceApi
//     before any wait, so a dropped TCP client's outstanding work —
//     a synchronous mine's included — can be cancelled
//     (CancelOutstandingJobs).
//
// The text grammar and its output are byte-identical to the historical
// ServiceSession (see docs/SERVE.md for the command reference).
//
// Concurrency: one session is single-threaded (its transport's thread),
// but many sessions may share one ServiceApi — all printing happens on
// the session's own thread, never a dispatcher worker's.

#ifndef KPLEX_SERVICE_SERVICE_SESSION_H_
#define KPLEX_SERVICE_SERVICE_SESSION_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "service/protocol.h"
#include "service/service_api.h"
#include "service/wire_session.h"

namespace kplex {

class ServiceSession : public WireSession {
 public:
  /// Standalone session: constructs and owns its own ServiceApi.
  explicit ServiceSession(std::ostream& out, ServiceApiOptions options = {});

  /// Adapter over a shared ServiceApi (one per TCP connection; the api
  /// outlives every session through the shared_ptr). `echo` prints each
  /// text command before running it (`serve --echo`).
  ServiceSession(std::ostream& out, std::shared_ptr<ServiceApi> api,
                 bool echo = false);

  /// Executes lines from `in` until EOF or `quit`; returns the number of
  /// failed commands (job failures nobody waited on included).
  uint64_t RunScript(std::istream& in);

  /// Requests cancellation of every non-terminal job this session
  /// created — `submit`ted jobs and the job behind an in-flight
  /// synchronous `mine`. Unlike the rest of the class this method is
  /// safe to call from another thread (a transport's disconnect
  /// watcher fires it while the session thread is blocked in a mine).
  /// The session counts as abandoned from then on: a job it records
  /// afterwards — one whose submit raced the disconnect — is cancelled
  /// as soon as it is recorded.
  void CancelOutstandingJobs() override;

  ServiceApi& api() { return *api_; }
  GraphCatalog& catalog() { return api_->catalog(); }
  QueryEngine& engine() { return api_->engine(); }
  ServiceDispatcher& dispatcher() { return api_->dispatcher(); }

 private:
  /// Runs the request through the api (recording every job it creates)
  /// and, for a results=stream mine, writes the result_chunk frames
  /// ahead of the returned verdict.
  Response Execute(const Request& request) override;
  /// Writes the buffered plex bodies of a results=stream mine as
  /// bounded result_chunk frames (chunk size from the request, default
  /// kDefaultResultChunkSize), ahead of the final verdict frame. An
  /// empty result emits one empty last chunk.
  void EmitResultChunks(uint64_t request_id, const QueryRequest& query,
                        const JobInfo& job);
  void RecordSubmittedJob(uint64_t id);
  /// Counts a terminal job failure carried by the response (each job
  /// id once, wherever it surfaces).
  void CountJobFailures(const Response& response);
  /// Counts job `id`'s failure unless it was counted already.
  void CountFailedJob(uint64_t id);

  std::shared_ptr<ServiceApi> api_;
  /// Jobs created through this session (for disconnect cancellation).
  /// Guarded by jobs_mutex_: the one piece of session state a
  /// transport's watcher thread reads concurrently.
  std::mutex jobs_mutex_;
  std::vector<uint64_t> submitted_jobs_;
  bool abandoned_ = false;  ///< CancelOutstandingJobs ran (jobs_mutex_)
  /// Failed-job ids already counted as errors: a job failure is one
  /// error no matter how often (or through which command) it surfaces.
  std::set<uint64_t> counted_failed_jobs_;
};

}  // namespace kplex

#endif  // KPLEX_SERVICE_SERVICE_SESSION_H_
