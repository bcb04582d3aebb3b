// Worker membership of the coordinator. The pool is the
// coordinator's authoritative roster: which `serve --listen` endpoints
// exist, what lifecycle state each is in, and how much work each has
// completed. It is bookkeeping only — connections and scheduling live
// in the coordinator; the pool never touches a socket.
//
// Lifecycle state machine (docs/SHARDING.md has the full diagram):
//
//   register ─> idle <─────────────┐
//                │ chunk assigned  │ chunk finished
//                v                 │
//               busy ──────────────┘
//   idle/busy ── drain ──> draining (finishes its chunk, gets no more)
//   any ──────── transport failure / kill ──> dead
//   dead ─────── heartbeat or re-register ──> idle (worker restarted)
//
// Thread-safety: every method locks internally; Snapshot returns
// copies. Ids are never reused — a worker that re-registers the same
// endpoint revives the existing record (same id), so chunk tallies
// survive a restart.

#ifndef KPLEX_COORD_WORKER_POOL_H_
#define KPLEX_COORD_WORKER_POOL_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace kplex {

enum class WorkerState { kIdle, kBusy, kDraining, kDead };

/// Stable lowercase name ("idle", "busy", "draining", "dead").
const char* WorkerStateName(WorkerState state);

struct WorkerRecord {
  uint64_t id = 0;
  std::string endpoint;  ///< "host:port" of the worker's serve socket
  WorkerState state = WorkerState::kIdle;
  uint64_t chunks_done = 0;
  uint64_t chunks_failed = 0;
};

class WorkerPool {
 public:
  /// Adds (or revives) the worker at `endpoint`; returns its id. A
  /// known endpoint keeps its id and returns to kIdle regardless of
  /// prior state — re-registering IS the recovery path after a crash.
  uint64_t Register(const std::string& endpoint);

  /// Liveness refresh. Revives a kDead worker to kIdle (the worker
  /// came back); other states are untouched. NotFound for unknown ids.
  Status Heartbeat(uint64_t id);

  /// Begins a graceful leave: the worker finishes its current chunk
  /// and is never assigned another. NotFound for unknown ids;
  /// FailedPrecondition for an already-dead worker.
  Status Drain(uint64_t id);

  /// State transitions driven by the coordinator's lanes.
  void MarkBusy(uint64_t id);
  void MarkIdle(uint64_t id);  ///< no-op for draining/dead workers
  void MarkDead(uint64_t id);
  void NoteChunkDone(uint64_t id);
  void NoteChunkFailed(uint64_t id);

  /// Current state of one worker; NotFound for unknown ids.
  StatusOr<WorkerRecord> Get(uint64_t id) const;

  /// Every worker ever registered, in registration order.
  std::vector<WorkerRecord> Snapshot() const;

  /// The workers a new chunk may be assigned to (kIdle or kBusy — not
  /// draining, not dead).
  std::vector<WorkerRecord> Schedulable() const;

 private:
  WorkerRecord* FindLocked(uint64_t id);

  mutable std::mutex mutex_;
  std::vector<WorkerRecord> workers_;
  uint64_t next_id_ = 1;
};

}  // namespace kplex

#endif  // KPLEX_COORD_WORKER_POOL_H_
