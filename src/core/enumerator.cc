#include "core/enumerator.h"

#include <algorithm>
#include <string>

#include "core/branch.h"
#include "core/reduction.h"
#include "core/seed_graph.h"
#include "core/subtask.h"
#include "obs/progress_throttle.h"
#include "util/timer.h"

namespace kplex {

Status ValidateOptions(const EnumOptions& options) {
  if (options.k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (options.q + 1 < 2 * options.k) {
    return Status::InvalidArgument(
        "q must be >= 2k - 1 (Definition 3.4 requires it; got k=" +
        std::to_string(options.k) + ", q=" + std::to_string(options.q) + ")");
  }
  if (options.seed_range.begin > options.seed_range.end) {
    return Status::InvalidArgument(
        "seed range begin must be <= end (got " +
        std::to_string(options.seed_range.begin) + ":" +
        std::to_string(options.seed_range.end) + ")");
  }
  if (!IsValidDuration(options.time_limit_seconds)) {
    return Status::InvalidArgument(
        "time limit must be a finite number of seconds in [0, 1000000]");
  }
  return Status::Ok();
}

StatusOr<EnumResult> EnumerateMaximalKPlexes(const Graph& graph,
                                             const EnumOptions& options,
                                             ResultSink& sink) {
  KPLEX_RETURN_IF_ERROR(ValidateOptions(options));
  WallTimer timer;
  EnumResult result;

  // Theorem 3.5: restrict to the (q - k)-core — or, when requested, the
  // strictly stronger CTCP fixpoint — and order the survivors; both
  // steps come from precomputed snapshot sections when available.
  PreparedReduction prepared =
      PrepareReduction(graph, options, result.counters);
  CoreReduction& core = prepared.core;
  if (core.graph.NumVertices() == 0) {
    result.seconds = timer.ElapsedSeconds();
    return result;
  }
  const DegeneracyResult& degeneracy = prepared.ordering;

  const int64_t global_deadline =
      options.time_limit_seconds > 0
          ? WallTimer::NowNanos() +
                static_cast<int64_t>(options.time_limit_seconds * 1e9)
          : 0;

  const uint64_t total_seeds = core.graph.NumVertices();
  result.total_seeds = total_seeds;
  // Sharded mining: iterate only this shard's slice of the canonical
  // seed order. Every plex is found from exactly one seed, so disjoint
  // ranges partition the result set (docs/SHARDING.md).
  const uint32_t range_begin = std::min<uint64_t>(
      options.seed_range.begin, total_seeds);
  const uint32_t range_end = static_cast<uint32_t>(std::min<uint64_t>(
      options.seed_range.end, total_seeds));
  const uint64_t shard_seeds = range_end - range_begin;
  result.covered_begin = range_begin;
  result.covered_end = range_end;
  ProgressThrottle progress_throttle(options.progress_min_interval_ms);
  for (uint32_t idx = range_begin; idx < range_end; ++idx) {
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      result.cancelled = true;
      break;
    }
    // Work-stealing yield: stop cleanly *before* this seed, so
    // [range_begin, idx) is a complete answer and the coordinator can
    // re-issue [idx, range_end) elsewhere.
    if (options.yield != nullptr &&
        options.yield->load(std::memory_order_relaxed)) {
      result.yielded = true;
      result.covered_end = idx;
      break;
    }
    const VertexId seed = degeneracy.order[idx];
    auto sg = BuildSeedGraph(core.graph, core.to_original, degeneracy, seed,
                             options, &result.counters);
    if (!sg.has_value()) {
      // Pruned seeds still count as processed: `done` must reach
      // `total` on a completed run.
      if (options.progress &&
          progress_throttle.ShouldEmit(idx + 1 - range_begin, shard_seeds)) {
        options.progress(idx + 1 - range_begin, shard_seeds,
                         result.counters.outputs);
      }
      continue;
    }

    const uint64_t outputs_before_seed = result.counters.outputs;
    BranchEngine engine(*sg, options, sink, result.counters);
    if (global_deadline > 0) engine.SetGlobalDeadline(global_deadline);
    EnumerateSubtasks(*sg, options, result.counters,
                      [&](TaskState&& task) { engine.Run(task); });
    if (options.progress &&
        progress_throttle.ShouldEmit(idx + 1 - range_begin, shard_seeds)) {
      options.progress(idx + 1 - range_begin, shard_seeds,
                       result.counters.outputs);
    }
    if (engine.stopped_early()) {
      result.stopped_early = true;
      result.has_resume = true;
      result.resume_seed = idx;
      result.resume_ordinal = result.counters.outputs - outputs_before_seed;
      break;
    }
    if (engine.cancelled()) {
      result.cancelled = true;
      break;
    }
    if (engine.aborted()) {
      result.timed_out = true;
      break;
    }
    if (global_deadline > 0 && WallTimer::NowNanos() > global_deadline) {
      result.timed_out = true;
      break;
    }
  }

  result.num_plexes = result.counters.outputs;
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace kplex
