#include "core/seed_graph.h"

#include <algorithm>
#include <unordered_map>

namespace kplex {

std::optional<SeedGraph> BuildSeedGraph(
    const Graph& graph, const std::vector<VertexId>& to_original,
    const DegeneracyResult& degeneracy, uint32_t seed_vertex,
    const EnumOptions& options, AlgoCounters* counters) {
  const uint32_t k = options.k;
  const uint32_t q = options.q;
  const uint32_t seed_rank = degeneracy.rank[seed_vertex];
  auto is_later = [&](VertexId v) {
    return degeneracy.rank[v] > seed_rank;
  };

  // N1: later neighbors of the seed, ascending like the neighbor list.
  std::vector<VertexId> n1;
  for (VertexId u : graph.Neighbors(seed_vertex)) {
    if (is_later(u)) n1.push_back(u);
  }
  // Quick Theorem 5.3 feasibility at the seed: any result k-plex P
  // containing v_i satisfies |P| <= deg_{G_i}(v_i) + k <= |N1| + k.
  if (n1.size() + k < q) return std::nullopt;

  // common[x] = |N(x) ∩ N1|, scattered once over N1's lists. `reached`
  // lists every x with common[x] > 0: the seed, N1, N2 and the earlier
  // vertices within two hops.
  std::vector<uint32_t> common(graph.NumVertices(), 0);
  std::vector<VertexId> reached;
  for (VertexId u : n1) {
    for (VertexId w : graph.Neighbors(u)) {
      if (common[w]++ == 0) reached.push_back(w);
    }
  }
  enum Role : uint8_t { kOther, kSeedNeighbor, kN1, kPeeled };
  std::vector<uint8_t> role(graph.NumVertices(), kOther);
  for (VertexId x : graph.Neighbors(seed_vertex)) role[x] = kSeedNeighbor;
  for (VertexId u : n1) role[u] = kN1;

  // Corollary 5.2 on N1 (prune u if |N(u) ∩ N1| < q - 2k), peeled to
  // its greatest fixpoint: a peeled vertex decrements every neighbor's
  // count, which may drop further N1 vertices below the threshold. After
  // the peel common[x] = |N(x) ∩ N1*| for every x, N1* the survivors.
  const int64_t thr_n1 = static_cast<int64_t>(q) - 2 * static_cast<int64_t>(k);
  uint64_t pruned = 0;
  if (options.use_seed_pruning && thr_n1 > 0) {
    std::vector<VertexId> queue;
    for (VertexId u : n1) {
      if (common[u] < thr_n1) {
        role[u] = kPeeled;
        queue.push_back(u);
      }
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (VertexId w : graph.Neighbors(queue[head])) {
        if (--common[w] < thr_n1 && role[w] == kN1) {
          role[w] = kPeeled;
          queue.push_back(w);
        }
      }
    }
    pruned += queue.size();
    std::erase_if(n1, [&](VertexId u) { return role[u] == kPeeled; });
  }

  // The rest of `reached` splits by rank. Later vertices form N2, kept
  // by Corollary 5.2 with q - 2k + 2 neighbors in N1*, or all kept when
  // seed pruning is off. Earlier ones are the two-hop fringe V'_i, kept
  // by Theorem 5.1 with q - 2k + 2 common neighbors in N1*. Every vertex
  // in `reached` keeps a witness in N1* unless the peel ran, and then
  // q - 2k + 2 >= 3, so both stay within two hops of the seed.
  const int64_t thr_n2 = thr_n1 + 2;
  std::vector<VertexId> n2;
  std::vector<VertexId> fringe;
  for (VertexId x : reached) {
    if (x == seed_vertex || role[x] != kOther) continue;
    if (is_later(x)) {
      if (!options.use_seed_pruning || common[x] >= thr_n2) {
        n2.push_back(x);
      } else {
        ++pruned;
      }
    } else if (common[x] >= thr_n2) {
      fringe.push_back(x);
    }
  }
  if (counters != nullptr) counters->seed_vertices_pruned += pruned;
  if (n1.size() + k < q) return std::nullopt;
  if (1 + n1.size() + n2.size() < q) return std::nullopt;

  // Earlier neighbors of the seed join the fringe with q - 2k common
  // neighbors in N1*.
  for (VertexId x : graph.Neighbors(seed_vertex)) {
    if (!is_later(x) && common[x] >= thr_n1) fringe.push_back(x);
  }
  std::sort(n2.begin(), n2.end());
  std::sort(fringe.begin(), fringe.end());

  // Assemble the local universe.
  SeedGraph sg;
  sg.num_n1 = static_cast<uint32_t>(n1.size());
  sg.num_vi = static_cast<uint32_t>(1 + n1.size() + n2.size());
  sg.universe = static_cast<uint32_t>(sg.num_vi + fringe.size());
  sg.vi_words = (sg.num_vi + 63) / 64;

  std::vector<VertexId> local_to_reduced;
  local_to_reduced.reserve(sg.universe);
  local_to_reduced.push_back(seed_vertex);
  local_to_reduced.insert(local_to_reduced.end(), n1.begin(), n1.end());
  local_to_reduced.insert(local_to_reduced.end(), n2.begin(), n2.end());
  local_to_reduced.insert(local_to_reduced.end(), fringe.begin(),
                          fringe.end());

  sg.to_global.resize(sg.universe);
  for (uint32_t i = 0; i < sg.universe; ++i) {
    const VertexId reduced = local_to_reduced[i];
    sg.to_global[i] =
        to_original.empty() ? reduced : to_original[reduced];
  }

  std::unordered_map<VertexId, uint32_t> local_id;
  local_id.reserve(sg.universe * 2);
  for (uint32_t i = 0; i < sg.universe; ++i) {
    local_id.emplace(local_to_reduced[i], i);
  }

  sg.adj = LocalGraph(sg.universe);
  // Only edges with at least one endpoint in V_i matter; iterate V_i
  // members so fringe-fringe edges are skipped.
  for (uint32_t i = 0; i < sg.num_vi; ++i) {
    for (VertexId w : graph.Neighbors(local_to_reduced[i])) {
      auto it = local_id.find(w);
      if (it != local_id.end()) sg.adj.AddEdge(i, it->second);
    }
  }

  sg.vi_mask.ResizeClear(sg.universe);
  sg.n1_mask.ResizeClear(sg.universe);
  sg.n2_mask.ResizeClear(sg.universe);
  sg.fringe_mask.ResizeClear(sg.universe);
  sg.vi_mask.SetRange(0, sg.num_vi);
  sg.n1_mask.SetRange(1, 1 + sg.num_n1);
  sg.n2_mask.SetRange(1 + sg.num_n1, sg.num_vi);
  sg.fringe_mask.SetRange(sg.num_vi, sg.universe);

  sg.deg_vi.resize(sg.num_vi);
  for (uint32_t i = 0; i < sg.num_vi; ++i) {
    // V_i occupies the bit prefix, so the count only walks vi_words.
    sg.deg_vi[i] = static_cast<uint32_t>(
        sg.adj.Row(i).AndCountLimit(sg.vi_mask, sg.vi_words));
  }

  if (options.use_pair_pruning_r2) {
    sg.pairs = BuildPairMatrix(sg, k, q);
    if (counters != nullptr) {
      counters->pair_edges_pruned += sg.pairs->num_pruned_pairs();
    }
  }
  if (counters != nullptr) ++counters->seed_graphs;
  return sg;
}

}  // namespace kplex
