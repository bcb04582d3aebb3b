// Task-based parallel enumeration (Section 6). The seed vertices are
// processed in stages of M (= thread count): in stage j, worker t builds
// the seed subgraph of seed vertex jM + t, expands its sub-tasks into a
// thread-local queue, drains its own queue first (cache locality on the
// shared seed subgraph) and steals from other workers when idle (load
// balance). A straggler task that runs longer than `timeout_ms`
// re-packages each pending recursive call as a fresh queue task instead
// of executing it, so no single task can serialize a stage.

#ifndef KPLEX_PARALLEL_PARALLEL_ENUMERATOR_H_
#define KPLEX_PARALLEL_PARALLEL_ENUMERATOR_H_

#include <cstdint>

#include "core/enumerator.h"
#include "core/options.h"
#include "core/sink.h"
#include "graph/graph.h"
#include "util/status.h"

namespace kplex {

struct ParallelOptions {
  /// Worker threads (M). 0 means std::thread::hardware_concurrency().
  uint32_t num_threads = 0;
  /// Straggler timeout tau_time in milliseconds, in [0, kMaxDuration]
  /// (anything else is InvalidArgument); 0 disables the
  /// decomposition (tasks then run to completion as in plain ListPlex/FP
  /// style parallelization). The paper's default is 0.1 ms.
  double timeout_ms = 0.1;
  /// Seeds each worker expands per stage. The paper's Figure 6 uses 1
  /// (M seed subgraphs per stage); batching several amortizes the stage
  /// barrier when seed subgraphs are small and cheap. 0 picks a value
  /// automatically from the graph size. Memory grows with the batch
  /// (that many seed subgraphs live per stage), so the auto value is
  /// capped.
  uint32_t seeds_per_stage = 0;
};

/// Parallel counterpart of EnumerateMaximalKPlexes. The sink must be
/// thread-safe (all sinks in core/sink.h are).
StatusOr<EnumResult> ParallelEnumerateMaximalKPlexes(
    const Graph& graph, const EnumOptions& options,
    const ParallelOptions& parallel_options, ResultSink& sink);

}  // namespace kplex

#endif  // KPLEX_PARALLEL_PARALLEL_ENUMERATOR_H_
