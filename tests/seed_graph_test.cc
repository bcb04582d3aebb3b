// Structural and soundness tests for seed subgraph construction:
// layout invariants, Corollary 5.2 pruning at fixpoint, and — critically
// — completeness: every maximal k-plex (>= q) must survive inside the
// seed subgraph of its minimum-rank member.

#include "core/seed_graph.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <vector>

#include "baselines/bk_naive.h"
#include "graph/builder.h"
#include "graph/degeneracy.h"
#include "graph/generators.h"
#include "graph/kcore.h"

namespace kplex {
namespace {

std::optional<SeedGraph> BuildFor(const Graph& g, VertexId seed,
                                  const EnumOptions& options) {
  DegeneracyResult degeneracy = ComputeDegeneracy(g);
  return BuildSeedGraph(g, {}, degeneracy, seed, options, nullptr);
}

TEST(SeedGraph, LayoutInvariants) {
  Graph g = GenerateErdosRenyi(40, 0.25, 7);
  DegeneracyResult degeneracy = ComputeDegeneracy(g);
  EnumOptions options = EnumOptions::Ours(2, 4);
  for (VertexId seed = 0; seed < g.NumVertices(); ++seed) {
    auto sg = BuildSeedGraph(g, {}, degeneracy, seed, options, nullptr);
    if (!sg.has_value()) continue;
    // The seed is local 0 and maps back to itself.
    EXPECT_EQ(sg->to_global[SeedGraph::kSeed], seed);
    EXPECT_EQ(sg->num_vi, 1 + sg->n1_mask.Count() + sg->n2_mask.Count());
    EXPECT_EQ(sg->universe, sg->num_vi + sg->fringe_mask.Count());
    // N1 = exact local neighbors of the seed.
    for (uint32_t v = 1; v < sg->num_vi; ++v) {
      EXPECT_EQ(sg->adj.HasEdge(SeedGraph::kSeed, v), sg->n1_mask.Test(v));
    }
    // Every N2 vertex has a N1 witness (distance exactly 2 in G_i).
    sg->n2_mask.ForEach([&](std::size_t v) {
      EXPECT_TRUE(
          sg->adj.Row(static_cast<uint32_t>(v)).Intersects(sg->n1_mask));
    });
    // deg_vi consistency.
    for (uint32_t v = 0; v < sg->num_vi; ++v) {
      EXPECT_EQ(sg->deg_vi[v], sg->adj.DegreeIn(v, sg->vi_mask));
    }
    // Local adjacency mirrors the input graph.
    for (uint32_t a = 0; a < sg->num_vi; ++a) {
      for (uint32_t b = a + 1; b < sg->universe; ++b) {
        if (b >= sg->num_vi && a >= sg->num_vi) continue;  // fringe pairs
        EXPECT_EQ(sg->adj.HasEdge(a, b),
                  g.HasEdge(sg->to_global[a], sg->to_global[b]));
      }
    }
    // V_i members are later in rank; fringe members earlier.
    for (uint32_t v = 1; v < sg->num_vi; ++v) {
      EXPECT_GT(degeneracy.rank[sg->to_global[v]], degeneracy.rank[seed]);
    }
    sg->fringe_mask.ForEach([&](std::size_t v) {
      EXPECT_LT(degeneracy.rank[sg->to_global[v]], degeneracy.rank[seed]);
    });
  }
}

TEST(SeedGraph, Corollary52Fixpoint) {
  Graph g = GenerateBarabasiAlbert(60, 5, 13);
  DegeneracyResult degeneracy = ComputeDegeneracy(g);
  const uint32_t k = 2, q = 6;
  EnumOptions options = EnumOptions::Ours(k, q);
  for (VertexId seed = 0; seed < g.NumVertices(); ++seed) {
    auto sg = BuildSeedGraph(g, {}, degeneracy, seed, options, nullptr);
    if (!sg.has_value()) continue;
    // After pruning, every survivor satisfies the corollary conditions.
    const int64_t thr_n1 = static_cast<int64_t>(q) - 2 * k;
    const int64_t thr_n2 = thr_n1 + 2;
    for (uint32_t v = 1; v < sg->num_vi; ++v) {
      const int64_t common =
          static_cast<int64_t>(sg->adj.Row(v).AndCount(sg->n1_mask));
      if (sg->n1_mask.Test(v)) {
        EXPECT_GE(common, thr_n1) << "seed " << seed << " N1 vertex " << v;
      } else {
        EXPECT_GE(common, thr_n2) << "seed " << seed << " N2 vertex " << v;
      }
    }
  }
}

// Reference for the seed-level pruning: the Section 5 rules applied
// round by round until nothing changes, every count recomputed from the
// input graph. Deliberately naive, so it shares no code path with the
// peel in BuildSeedGraph.
struct OracleSeed {
  bool viable = false;
  std::vector<VertexId> n1, n2, fringe;  // ascending
  uint64_t pruned = 0;
};

OracleSeed OracleBuild(const Graph& g, const DegeneracyResult& degeneracy,
                       VertexId seed, uint32_t k, uint32_t q,
                       bool use_seed_pruning) {
  OracleSeed out;
  auto later = [&](VertexId v) {
    return degeneracy.rank[v] > degeneracy.rank[seed];
  };
  std::set<VertexId> n1, n2;
  for (VertexId u : g.Neighbors(seed)) {
    if (later(u)) n1.insert(u);
  }
  if (n1.size() + k < q) return out;
  for (VertexId u : n1) {
    for (VertexId w : g.Neighbors(u)) {
      if (w != seed && later(w) && n1.count(w) == 0) n2.insert(w);
    }
  }
  auto common = [&](VertexId x) {
    int64_t c = 0;
    for (VertexId w : g.Neighbors(x)) c += n1.count(w);
    return c;
  };
  // Corollary 5.2 on N1 and N2; without seed pruning an N2 vertex only
  // needs one surviving N1 witness.
  const int64_t thr_n1 = static_cast<int64_t>(q) - 2 * static_cast<int64_t>(k);
  const int64_t thr_n2 = use_seed_pruning ? thr_n1 + 2 : 1;
  for (bool changed = true; changed;) {
    std::vector<VertexId> drop;
    if (use_seed_pruning) {
      for (VertexId u : n1) {
        if (common(u) < thr_n1) drop.push_back(u);
      }
    }
    for (VertexId u : n2) {
      if (common(u) < thr_n2) drop.push_back(u);
    }
    for (VertexId u : drop) {
      n1.erase(u);
      n2.erase(u);
    }
    if (use_seed_pruning) out.pruned += drop.size();
    changed = !drop.empty();
  }
  if (n1.size() + k < q || 1 + n1.size() + n2.size() < q) return out;
  out.viable = true;
  out.n1.assign(n1.begin(), n1.end());
  out.n2.assign(n2.begin(), n2.end());
  // Theorem 5.1 on the fringe: earlier vertices adjacent to the seed, or
  // two hops away through a surviving N1 vertex.
  for (VertexId x = 0; x < g.NumVertices(); ++x) {
    if (x == seed || later(x)) continue;
    const int64_t c = common(x);
    const bool keep = g.HasEdge(seed, x) ? c >= thr_n1
                                         : c >= 1 && c >= thr_n1 + 2;
    if (keep) out.fringe.push_back(x);
  }
  return out;
}

TEST(SeedGraph, PruningMatchesRoundBasedOracle) {
  std::vector<Graph> graphs;
  for (uint64_t rng = 1; rng <= 6; ++rng) {
    for (double p : {0.1, 0.2, 0.35, 0.5}) {
      graphs.push_back(GenerateErdosRenyi(40 + 3 * rng, p, 100 * rng));
    }
    for (std::size_t attach : {2, 4, 7}) {
      graphs.push_back(GenerateBarabasiAlbert(50 + 2 * rng, attach, rng));
    }
  }
  ASSERT_GE(graphs.size(), 40u);
  // q = 2k - 1 turns N1 pruning off (q - 2k < 0); the rest raise it.
  const std::vector<std::pair<uint32_t, uint32_t>> grid = {
      {1, 1}, {1, 3}, {2, 3}, {2, 4}, {2, 6}, {3, 5}, {3, 8}, {4, 7}, {4, 10}};
  std::size_t viable = 0, pruned_seeds = 0;
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    DegeneracyResult degeneracy = ComputeDegeneracy(g);
    for (auto [k, q] : grid) {
      for (bool use_seed_pruning : {true, false}) {
        EnumOptions options = EnumOptions::Ours(k, q);
        options.use_seed_pruning = use_seed_pruning;
        options.use_pair_pruning_r2 = false;  // not compared here
        for (VertexId seed = 0; seed < g.NumVertices(); ++seed) {
          SCOPED_TRACE(testing::Message()
                       << "graph " << gi << " k=" << k << " q=" << q
                       << " seed_pruning=" << use_seed_pruning
                       << " seed " << seed);
          const OracleSeed want =
              OracleBuild(g, degeneracy, seed, k, q, use_seed_pruning);
          AlgoCounters counters;
          auto sg =
              BuildSeedGraph(g, {}, degeneracy, seed, options, &counters);
          EXPECT_EQ(counters.seed_vertices_pruned, want.pruned);
          ASSERT_EQ(sg.has_value(), want.viable);
          if (want.pruned > 0) ++pruned_seeds;
          if (!sg.has_value()) continue;
          ++viable;
          EXPECT_EQ(sg->num_n1, want.n1.size());
          EXPECT_EQ(sg->num_vi, 1 + want.n1.size() + want.n2.size());
          EXPECT_EQ(sg->universe, sg->num_vi + want.fringe.size());
          auto region = [&](uint32_t begin, uint32_t end) {
            return std::vector<VertexId>(sg->to_global.begin() + begin,
                                         sg->to_global.begin() + end);
          };
          EXPECT_EQ(region(1, 1 + sg->num_n1), want.n1);
          EXPECT_EQ(region(1 + sg->num_n1, sg->num_vi), want.n2);
          EXPECT_EQ(region(sg->num_vi, sg->universe), want.fringe);
        }
      }
    }
  }
  // The grid must exercise both outcomes, not just one.
  EXPECT_GT(viable, 1000u);
  EXPECT_GT(pruned_seeds, 1000u);
}

// Completeness: the union over seeds of "k-plexes representable in the
// seed graph" must cover all ground-truth results.
TEST(SeedGraph, EveryGroundTruthPlexSurvivesInItsSeedGraph) {
  for (uint64_t seed_rng = 1; seed_rng <= 6; ++seed_rng) {
    Graph g = GenerateErdosRenyi(14, 0.5, seed_rng);
    for (auto [k, q] : std::vector<std::pair<uint32_t, uint32_t>>{
             {2, 3}, {2, 4}, {3, 5}}) {
      auto truth = BruteForceMaximalKPlexes(g, k, q);
      ASSERT_TRUE(truth.ok());
      EnumOptions options = EnumOptions::Ours(k, q);
      // Mirror the driver: reduce to the (q-k)-core first.
      CoreReduction core = ReduceToCore(g, q - k);
      std::unordered_map<VertexId, VertexId> to_reduced;
      for (VertexId i = 0; i < core.to_original.size(); ++i) {
        to_reduced[core.to_original[i]] = i;
      }
      DegeneracyResult degeneracy = ComputeDegeneracy(core.graph);

      for (const auto& plex : *truth) {
        // All members must be in the core (Theorem 3.5).
        VertexId min_rank_member = 0;
        uint32_t min_rank = UINT32_MAX;
        for (VertexId v : plex) {
          ASSERT_TRUE(to_reduced.count(v)) << "member pruned from core";
          uint32_t r = degeneracy.rank[to_reduced[v]];
          if (r < min_rank) {
            min_rank = r;
            min_rank_member = to_reduced[v];
          }
        }
        auto sg = BuildSeedGraph(core.graph, core.to_original, degeneracy,
                                 min_rank_member, options, nullptr);
        ASSERT_TRUE(sg.has_value())
            << "seed graph for a ground-truth plex was discarded";
        // Every member must exist in V_i (not pruned by Corollary 5.2).
        std::unordered_map<VertexId, uint32_t> to_local;
        for (uint32_t i = 0; i < sg->num_vi; ++i) {
          to_local[sg->to_global[i]] = i;
        }
        for (VertexId v : plex) {
          EXPECT_TRUE(to_local.count(v))
              << "plex member " << v << " missing from V_i";
        }
      }
    }
  }
}

TEST(SeedGraph, InfeasibleSeedsAreDiscarded) {
  // A path graph has max degree 2; with q = 5, k = 1 no seed is viable.
  Graph g = GraphBuilder::FromEdges(6,
                                    {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  auto sg = BuildFor(g, 0, EnumOptions::Ours(1, 5));
  EXPECT_FALSE(sg.has_value());
}

TEST(SeedGraph, PairMatrixBuiltOnlyWhenR2Enabled) {
  Graph g = GenerateErdosRenyi(20, 0.4, 3);
  auto with = BuildFor(g, 0, EnumOptions::Ours(2, 4));
  if (with.has_value()) {
    EXPECT_TRUE(with->pairs.has_value());
  }
  EnumOptions no_r2 = EnumOptions::Ours(2, 4);
  no_r2.use_pair_pruning_r2 = false;
  auto without = BuildFor(g, 0, no_r2);
  if (without.has_value()) {
    EXPECT_FALSE(without->pairs.has_value());
  }
}

}  // namespace
}  // namespace kplex
