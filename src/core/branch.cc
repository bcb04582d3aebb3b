#include "core/branch.h"

#include <algorithm>
#include <cassert>

namespace kplex {

BranchEngine::BranchEngine(const SeedGraph& sg, const EnumOptions& options,
                           ResultSink& sink, AlgoCounters& counters)
    : sg_(sg), options_(options), sink_(sink), counters_(counters),
      pivot_(sg, options.pivot_saturation_tiebreak),
      saturated_(sg.universe), pc_(sg.universe), sat_pc_(sg.universe) {
#ifndef NDEBUG
  check_c_.ResizeClear(sg.universe);
  check_x_.ResizeClear(sg.universe);
#endif
}

void BranchEngine::Run(TaskState& state) {
  // Alg. 3 Lines 2-3, once per task: from here on every move re-filters
  // by delta (PrepareInclude), so C and X are filtered on entry to
  // every Branch() call.
  state.ComputeSaturated(sg_, options_.k, saturated_);
  FilterSet(state, saturated_, state.c);
  FilterSet(state, saturated_, state.x);
  Branch(state, /*depth=*/0);
}

TaskState& BranchEngine::Frame(uint32_t depth) {
  while (frames_.size() <= depth) frames_.emplace_back();
  return frames_[depth];
}

bool BranchEngine::CheckGlobalDeadline() {
  if (aborted_) return true;
  if ((counters_.branch_calls & 0xfff) == 0) {
    if (options_.cancel != nullptr &&
        options_.cancel->load(std::memory_order_relaxed)) {
      aborted_ = true;
      cancelled_ = true;
    } else if (global_deadline_nanos_ > 0 &&
               WallTimer::NowNanos() > global_deadline_nanos_) {
      aborted_ = true;
    }
  }
  return aborted_;
}

void BranchEngine::FilterSet(const TaskState& state,
                             const DynamicBitset& saturated,
                             DynamicBitset& set) {
  // Saturated members of P admit only their neighbors.
  saturated.ForEach([&](std::size_t u) {
    set.AndWith(sg_.adj.Row(static_cast<uint32_t>(u)));
  });
  // Per-vertex budget: P ∪ {v} keeps v within k non-neighbors
  // (counting v itself) iff dp[v] + k >= |P| + 1.
  if (state.p_size + 1 > options_.k) {
    const uint32_t need = state.p_size + 1 - options_.k;
    // ForEach iterates on per-word snapshots, so resetting the current
    // bit during iteration is safe.
    set.ForEach([&](std::size_t v) {
      if (state.dp[v] < need) set.Reset(v);
    });
  }
}

void BranchEngine::PrepareInclude(TaskState& state, uint32_t vp) {
  state.AddToP(sg_, vp);
  if (sg_.pairs.has_value()) {
    const DynamicBitset& allowed = sg_.pairs->Row(vp);
    state.c.AndWith(allowed);
    state.x.AndWith(allowed);
  }
#ifndef NDEBUG
  check_c_ = state.c;
  check_x_ = state.x;
#endif
  // C and X were filtered for P ∖ {vp}. Only the members of P outside
  // N(vp), vp itself included, gained a non-neighbor, so only they can
  // have become saturated (none was saturated before: vp would not
  // have been a candidate).
  const uint32_t k = options_.k;
  const BitSpan vp_row = sg_.adj.Row(vp);
  if (state.p_size >= k) {
    state.p.ForEachAndNot(vp_row, [&](std::size_t u) {
      if (state.p_size - state.dp[u] == k) {
        const BitSpan row = sg_.adj.Row(static_cast<uint32_t>(u));
        state.c.AndWith(row);
        state.x.AndWith(row);
      }
    });
  }
  // Likewise only vertices outside N(vp) lost budget (see FilterSet).
  if (state.p_size + 1 > k) {
    const uint32_t need = state.p_size + 1 - k;
    auto drop_over_budget = [&](DynamicBitset& set) {
      set.ForEachAndNot(vp_row, [&](std::size_t v) {
        if (state.dp[v] < need) set.Reset(v);
      });
    };
    drop_over_budget(state.c);
    drop_over_budget(state.x);
  }
#ifndef NDEBUG
  state.ComputeSaturated(sg_, k, saturated_);
  FilterSet(state, saturated_, check_c_);
  FilterSet(state, saturated_, check_x_);
  assert(check_c_ == state.c && check_x_ == state.x &&
         "delta filter diverged from the full filter");
#endif
}

void BranchEngine::EmitPlex(const DynamicBitset& members) {
  emit_.clear();
  members.ForEach([&](std::size_t v) {
    emit_.push_back(sg_.to_global[v]);
  });
  std::sort(emit_.begin(), emit_.end());
  ++counters_.outputs;
  sink_.Emit(emit_);
  if (options_.max_results > 0 &&
      counters_.outputs >= options_.max_results) {
    stopped_early_ = true;
  }
}

bool BranchEngine::HasExtenderOfPc(const TaskState& state,
                                   const DynamicBitset& pc,
                                   uint32_t pc_size) {
  const uint32_t k = options_.k;
  sat_pc_.ResetAll();
  pc.ForEach([&](std::size_t u) {
    if (pc_size - pivot_.DegreePc(static_cast<uint32_t>(u)) == k) {
      sat_pc_.Set(u);
    }
  });
  for (std::size_t x = state.x.FindFirst(); x != DynamicBitset::kNpos;
       x = state.x.FindNext(x + 1)) {
    const uint32_t dx = static_cast<uint32_t>(
        sg_.adj.Row(static_cast<uint32_t>(x)).AndCountLimit(pc, sg_.vi_words));
    if (dx + k < pc_size + 1) continue;
    if (sat_pc_.IsSubsetOf(sg_.adj.Row(static_cast<uint32_t>(x)))) {
      return true;
    }
  }
  return false;
}

void BranchEngine::Dispatch(TaskState& state, uint32_t depth) {
  if (TimeoutExpired()) {
    ++counters_.timeout_spawns;
    spawn_(std::move(state));
    return;
  }
  Branch(state, depth);
}

void BranchEngine::Branch(TaskState& state, uint32_t depth) {
  if (stopped_early_) return;
  ++counters_.branch_calls;
  if (CheckGlobalDeadline()) return;

  // C and X hold only vertices that still combine with P (Alg. 3
  // Lines 2-3; see the header).
  const uint32_t c_size = static_cast<uint32_t>(state.c.Count());
  if (c_size == 0) {
    if (state.p_size >= options_.q && state.x.None()) EmitPlex(state.p);
    return;
  }
  // Size feasibility: even taking every candidate cannot reach q.
  if (state.p_size + c_size < options_.q) return;

  // Alg. 3 Lines 7-10: pivot selection.
  pc_ = state.p;
  pc_.OrWith(state.c);
  const PivotResult pivot = pivot_.Select(state, pc_);

  // Alg. 3 Lines 11-14: P ∪ C is already a k-plex — finish here.
  if (pivot.min_degree + options_.k >= state.p_size + c_size) {
    ++counters_.kplex_shortcuts;
    if (state.p_size + c_size >= options_.q &&
        !HasExtenderOfPc(state, pc_, state.p_size + c_size)) {
      EmitPlex(pc_);
    }
    return;
  }

  uint32_t vp = pivot.vertex;
  if (pivot.in_p) {
    if (options_.branching != BranchingScheme::kRepickFromC) {
      BranchFaplexen(state, depth, vp);
      return;
    }
    // Lines 15-16: re-pick among the pivot's non-neighbors in C. That
    // set is non-empty: otherwise the pivot's d_{P∪C} would have
    // triggered the k-plex shortcut above.
    vp = pivot_.RepickFromC(state, vp);
    if (vp == UINT32_MAX) return;  // defensive; unreachable
  }

  bool include_allowed = true;
  if (options_.upper_bound != UpperBoundMode::kNone) {
    const uint32_t ub_support =
        options_.upper_bound == UpperBoundMode::kOurs
            ? UbSupport(sg_, state, vp, options_.k, bound_scratch_)
            : UbSupportSorted(sg_, state, vp, options_.k, bound_scratch_);
    const uint32_t ub =
        std::min(ub_support, UbDegree(sg_, state, vp, options_.k));
    if (ub < options_.q) {
      include_allowed = false;
      ++counters_.ub_prunes;
    }
  }
  BranchBinary(state, depth, vp, include_allowed);
}

void BranchEngine::BranchBinary(TaskState& state, uint32_t depth,
                                uint32_t vp, bool include_allowed) {
  if (include_allowed) {
    TaskState& child = Frame(depth);
    child = state;
    child.c.Reset(vp);
    PrepareInclude(child, vp);
    Dispatch(child, depth + 1);
  }
  // Exclude branch (Line 20), reusing the parent state: vp passed the
  // filter, so C and X stay filtered.
  state.c.Reset(vp);
  state.x.Set(vp);
  Dispatch(state, depth);
}

void BranchEngine::BranchFaplexen(TaskState& state, uint32_t depth,
                                  uint32_t vp) {
  // Eq (4)-(6). vp lies in P; its non-neighbors in C drive the split.
  // This call's list is ws_[base, base + ell); the recursion below
  // appends its own lists past it and truncates them again.
  const std::size_t base = ws_.size();
  state.c.ForEachAndNot(sg_.adj.Row(vp), [&](std::size_t w) {
    ws_.push_back(static_cast<uint32_t>(w));
  });
  const std::size_t ell = ws_.size() - base;
  const int64_t s64 = static_cast<int64_t>(options_.k) -
                      static_cast<int64_t>(state.NonNeighborsInP(vp));
  // Both guards are unreachable: the k-plex shortcut fires first.
  if (ell == 0 || s64 < 1) {
    ws_.resize(base);
    return;
  }
  const std::size_t s =
      std::min<std::size_t>(static_cast<std::size_t>(s64), ell);

  // `run` accumulates the include-prefix w_1 .. w_{i-1}.
  TaskState& run = Frame(depth);
  run = state;
  for (std::size_t i = 1; i <= s; ++i) {
    const uint32_t wi = ws_[base + i - 1];
    // C is filtered for the prefix, so w_i ∈ C iff the prefix plus w_i
    // is still a k-plex.
    const bool wi_fits = run.c.Test(wi);
    {
      // Branch i: keep the prefix, exclude w_i  (Eq (4) for i = 1,
      // Eq (5) otherwise). A w_i that no longer fits stays out of X.
      TaskState& child = Frame(depth + 1);
      child = run;
      if (wi_fits) {
        child.c.Reset(wi);
        child.x.Set(wi);
      }
      Dispatch(child, depth + 2);
    }
    // Extend the prefix with w_i; if that breaks the k-plex property no
    // later branch has a valid P (hereditariness), so stop.
    if (!wi_fits) break;
    run.c.Reset(wi);
    PrepareInclude(run, wi);
    if (i == s) {
      // Final branch (Eq (6)): all of w_1..w_s in P. Either s = ell, or
      // vp is saturated now and the delta filter has dropped the
      // remaining non-neighbors w_{s+1}..w_l from C and X (adding one
      // would overflow vp's budget in any superset).
      Dispatch(run, depth + 1);
    }
  }
  ws_.resize(base);
}

}  // namespace kplex
