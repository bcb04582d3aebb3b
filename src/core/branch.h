// BranchEngine: the recursive branch-and-bound search of Algorithm 3,
// covering the paper's default scheme ("Ours": pivot re-picking from C
// plus Eq (3) upper-bound pruning), the "Ours_P" FaPlexen branching
// variant (Eq (4)-(6)), and the ablation configurations of Tables 5/6.
//
// One engine serves any number of tasks of one seed graph, one at a
// time; scratch buffers are reused across the recursion, which never
// interleaves two computations.
//
// Filtered on entry: every Branch() call receives a state whose C and X
// hold only vertices v with P ∪ {v} a k-plex (Alg. 3 Lines 2-3). Run()
// establishes this once per task with the full filter; after that each
// move keeps it with a delta. An exclude child trades one vertex that
// already passed between C and X, so it needs nothing. An include child
// of vp can only lose members of C ∪ X outside N(vp), and only to a
// member of P ∖ N(vp) that became saturated or to the budget check
// (PrepareInclude).
//
// Frames: the exclude child reuses its parent's state in place; the
// include child (and FaPlexen's running prefix) is copied into a frame
// indexed by include depth. The engine owns the frames and reuses them
// across branches and tasks, so once warm a branch allocates nothing.
//
// The optional per-task timeout implements the straggler decomposition
// of Section 6: once the deadline passes, pending recursive calls are
// handed to the spawn callback instead of being executed inline. A
// spawn moves the pending state out, frame or not; a frame whose
// buffers went to a spawned task is refilled by the next copy into it.

#ifndef KPLEX_CORE_BRANCH_H_
#define KPLEX_CORE_BRANCH_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/bounds.h"
#include "core/counters.h"
#include "core/options.h"
#include "core/pivot.h"
#include "core/seed_graph.h"
#include "core/sink.h"
#include "core/task_state.h"
#include "util/timer.h"

namespace kplex {

class BranchEngine {
 public:
  using SpawnFn = std::function<void(TaskState&&)>;

  BranchEngine(const SeedGraph& sg, const EnumOptions& options,
               ResultSink& sink, AlgoCounters& counters);

  /// Enables timeout decomposition: recursive calls issued after
  /// `deadline_nanos` (WallTimer::NowNanos clock) are spawned through
  /// `spawn` instead of executed.
  void SetTaskTimeout(int64_t deadline_nanos, SpawnFn spawn) {
    deadline_nanos_ = deadline_nanos;
    spawn_ = std::move(spawn);
  }

  /// Enables a global soft deadline; when exceeded, the engine unwinds
  /// and `aborted()` turns true.
  void SetGlobalDeadline(int64_t deadline_nanos) {
    global_deadline_nanos_ = deadline_nanos;
  }

  bool aborted() const { return aborted_; }

  /// True when the abort was triggered by options.cancel (as opposed to
  /// the global deadline).
  bool cancelled() const { return cancelled_; }

  /// True when the engine stopped because options.max_results was hit.
  bool stopped_early() const { return stopped_early_; }

  /// Runs Algorithm 3 on `state` (consumed): filters its C and X for P,
  /// then branches.
  void Run(TaskState& state);

 private:
  // `depth` is the first frame this call and its descendants may use.
  void Branch(TaskState& state, uint32_t depth);
  void BranchBinary(TaskState& state, uint32_t depth, uint32_t pivot,
                    bool include_allowed);
  void BranchFaplexen(TaskState& state, uint32_t depth, uint32_t pivot);
  void Dispatch(TaskState& state, uint32_t depth);

  /// The reusable state at `depth`, created on first use.
  TaskState& Frame(uint32_t depth);

  /// Moves vp (already reset in C) into P, applies the R2 matrix row of
  /// vp to C and X (Theorems 5.14/5.15 via one AND, fringe bits
  /// unaffected), and re-filters C and X for the grown P by delta.
  void PrepareInclude(TaskState& state, uint32_t vp);

  /// In-place saturation + budget filter of `set` w.r.t. state.p: the
  /// full filter, applied only at a task root.
  void FilterSet(const TaskState& state, const DynamicBitset& saturated,
                 DynamicBitset& set);

  /// Maximality check of P ∪ C (Alg. 3 Line 12): does some x in X extend
  /// it? Uses the d_{P∪C} table of the last pivot selection.
  bool HasExtenderOfPc(const TaskState& state, const DynamicBitset& pc,
                       uint32_t pc_size);

  void EmitPlex(const DynamicBitset& members);

  bool TimeoutExpired() const {
    return spawn_ && WallTimer::NowNanos() > deadline_nanos_;
  }
  bool CheckGlobalDeadline();

  const SeedGraph& sg_;
  const EnumOptions& options_;
  ResultSink& sink_;
  AlgoCounters& counters_;
  PivotSelector pivot_;
  BoundScratch bound_scratch_;

  // Reusable scratch.
  DynamicBitset saturated_;
  DynamicBitset pc_;
  DynamicBitset sat_pc_;
  /// FaPlexen's non-neighbor lists, one slice per live BranchFaplexen
  /// call (stack discipline; slices are addressed by offset).
  std::vector<uint32_t> ws_;
  std::vector<VertexId> emit_;
  /// Include frames by depth. A deque keeps references to shallower
  /// frames valid while deeper ones are created.
  std::deque<TaskState> frames_;
#ifndef NDEBUG
  // The full filter's answer, to check each delta against.
  DynamicBitset check_c_;
  DynamicBitset check_x_;
#endif

  int64_t deadline_nanos_ = 0;
  SpawnFn spawn_;
  int64_t global_deadline_nanos_ = 0;
  bool aborted_ = false;
  bool cancelled_ = false;
  bool stopped_early_ = false;
};

}  // namespace kplex

#endif  // KPLEX_CORE_BRANCH_H_
