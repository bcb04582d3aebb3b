// Mutable state of one branch-and-bound node: the triple <P, C, X> plus
// the incrementally maintained |N(v) ∩ P| counts and min_{u∈P} deg_{V_i}(u).
// A sub-task starts as a standalone state. Inside BranchEngine the
// exclude side of a branch reuses its parent's state in place, and the
// include side is copied into a frame the engine owns and reuses, so a
// branch allocates nothing. The only standalone state made mid-search
// is a pending call the parallel timeout rule re-packages as a task.

#ifndef KPLEX_CORE_TASK_STATE_H_
#define KPLEX_CORE_TASK_STATE_H_

#include <cstdint>
#include <vector>

#include "core/seed_graph.h"
#include "util/bitset.h"

namespace kplex {

struct TaskState {
  DynamicBitset p;  ///< current k-plex (subset of V_i)
  DynamicBitset c;  ///< candidate set (subset of V_i)
  DynamicBitset x;  ///< exclusive set (V_i and fringe vertices)
  /// dp[v] = |N(v) ∩ P| for every local vertex v.
  std::vector<uint16_t> dp;
  uint32_t p_size = 0;
  /// min_{u∈P} deg_{V_i}(u); UINT32_MAX while P is empty.
  uint32_t min_deg_p = UINT32_MAX;

  /// Creates the empty state sized for `sg`.
  static TaskState MakeEmpty(const SeedGraph& sg) {
    TaskState st;
    st.p.ResizeClear(sg.universe);
    st.c.ResizeClear(sg.universe);
    st.x.ResizeClear(sg.universe);
    st.dp.assign(sg.universe, 0);
    return st;
  }

  /// Moves v (a V_i vertex not yet in P) into P, updating counts.
  void AddToP(const SeedGraph& sg, uint32_t v) {
    p.Set(v);
    ++p_size;
    if (sg.deg_vi[v] < min_deg_p) min_deg_p = sg.deg_vi[v];
    sg.adj.Row(v).ForEach([&](std::size_t u) { ++dp[u]; });
  }

  /// Non-neighbors of v inside P, counting v itself when v ∈ P
  /// (the paper's d-bar); same expression for members and outsiders.
  uint32_t NonNeighborsInP(uint32_t v) const { return p_size - dp[v]; }

  /// sup_P(v) = k - d̄_P(v) (Section 5, "support number").
  int32_t Support(uint32_t v, uint32_t k) const {
    return static_cast<int32_t>(k) - static_cast<int32_t>(NonNeighborsInP(v));
  }

  /// True iff P ∪ {v} is still a k-plex, given that P itself is one.
  /// `saturated` must hold exactly the P-members with d̄_P = k.
  bool CanAdd(const SeedGraph& sg, const DynamicBitset& saturated,
              uint32_t v, uint32_t k) const {
    if (dp[v] + k < p_size + 1) return false;  // v's own budget
    return saturated.IsSubsetOf(sg.adj.Row(v));
  }

  /// Fills `saturated` (resized to universe) with P-members of d̄_P = k.
  void ComputeSaturated(const SeedGraph& sg, uint32_t k,
                        DynamicBitset& saturated) const {
    saturated.ResizeClear(sg.universe);
    if (p_size < k) return;  // d̄_P <= |P| < k: nobody saturated
    p.ForEach([&](std::size_t u) {
      if (p_size - dp[u] == k) saturated.Set(u);
    });
  }
};

}  // namespace kplex

#endif  // KPLEX_CORE_TASK_STATE_H_
