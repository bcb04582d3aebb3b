// Targeted edge-case tests of the branch-and-bound engine: structured
// graphs with hand-computable answers, boundary parameter values, and
// degenerate inputs. These complement the randomized cross-validation
// in enumerator_test.cc with cases whose expected behaviour is knowable
// by inspection.

#include "core/branch.h"

#include <gtest/gtest.h>

#include "baselines/bk_naive.h"
#include "baselines/listplex.h"
#include "bench_common/dataset_registry.h"
#include "core/enumerator.h"
#include "core/reduction.h"
#include "core/seed_graph.h"
#include "core/subtask.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "tests/test_util.h"
#include "util/timer.h"

namespace kplex {
namespace {

using testing_util::ResultSet;
using testing_util::RunEngine;

Graph Clique(std::size_t n) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) edges.push_back({u, v});
  }
  return GraphBuilder::FromEdges(n, edges);
}

TEST(BranchEdgeCases, KEqualsOneIsMaximalCliqueEnumeration) {
  // Two triangles sharing an edge: maximal cliques of size >= 3 are
  // exactly the triangles.
  Graph g = GraphBuilder::FromEdges(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3},
                                        {2, 3}});
  ResultSet results = RunEngine(g, EnumOptions::Ours(1, 3));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(results[1], (std::vector<VertexId>{1, 2, 3}));
}

TEST(BranchEdgeCases, QAtExactConnectivityBoundary) {
  // q = 2k - 1 is the smallest legal threshold; sweep k at that
  // boundary on a moderately dense random graph vs the BK reference.
  Graph g = GenerateErdosRenyi(25, 0.4, 91);
  for (uint32_t k = 1; k <= 4; ++k) {
    const uint32_t q = 2 * k - 1;
    ResultSet ours = RunEngine(g, EnumOptions::Ours(k, q));
    CollectingSink bk;
    BkReferenceEnumerate(g, k, q, bk);
    EXPECT_EQ(ours, bk.SortedResults()) << "k=" << k;
  }
}

TEST(BranchEdgeCases, CompleteBipartiteGraph) {
  // K_{3,3}: every vertex misses the 2 other same-side vertices plus
  // itself, so the whole graph is a 3-plex of size 6 — and with q = 5
  // (= 2k - 1) it is the unique answer.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId a = 0; a < 3; ++a) {
    for (VertexId b = 3; b < 6; ++b) edges.push_back({a, b});
  }
  Graph g = GraphBuilder::FromEdges(6, edges);
  ResultSet results = RunEngine(g, EnumOptions::Ours(3, 5));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], (std::vector<VertexId>{0, 1, 2, 3, 4, 5}));
}

TEST(BranchEdgeCases, DisjointCliquesDoNotMerge) {
  // Two disjoint K5's: with k = 2, q = 5, each clique alone is maximal
  // (no vertex of the other clique can join: it would miss 5 > 2).
  GraphBuilder builder(10);
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) {
      builder.AddEdge(u, v);
      builder.AddEdge(u + 5, v + 5);
    }
  }
  Graph g = builder.Build();
  ResultSet results = RunEngine(g, EnumOptions::Ours(2, 5));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], (std::vector<VertexId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(results[1], (std::vector<VertexId>{5, 6, 7, 8, 9}));
}

TEST(BranchEdgeCases, CliqueWithPendantVertex) {
  // K6 plus a pendant attached to vertex 0: the pendant joins 2-plexes
  // only at sizes where its 5 missing links are tolerable — never for
  // k = 2 — so K6 stays the unique answer; the pendant must also not
  // break maximality detection.
  GraphBuilder builder(7);
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) builder.AddEdge(u, v);
  }
  builder.AddEdge(0, 6);
  Graph g = builder.Build();
  ResultSet results = RunEngine(g, EnumOptions::Ours(2, 4));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], (std::vector<VertexId>{0, 1, 2, 3, 4, 5}));
}

TEST(BranchEdgeCases, QLargerThanGraph) {
  Graph g = Clique(5);
  ResultSet results = RunEngine(g, EnumOptions::Ours(2, 9));
  EXPECT_TRUE(results.empty());
}

TEST(BranchEdgeCases, LargeKRelativeToGraph) {
  // k = 5 on an 8-vertex sparse graph: every vertex tolerates 5 misses,
  // so large chunks qualify. Cross-check against brute force.
  Graph g = GenerateErdosRenyi(8, 0.4, 92);
  auto truth = BruteForceMaximalKPlexes(g, 5, 9);  // q = 2k - 1
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(RunEngine(g, EnumOptions::Ours(5, 9)), *truth);
}

TEST(BranchEdgeCases, RingOfCliquesBridgeVertices) {
  // Cliques of size 5 arranged in a ring, adjacent cliques bridged by
  // one edge. Bridges must not create spurious cross-clique plexes for
  // k = 2, q = 5.
  const std::size_t clique_count = 4, clique_size = 5;
  GraphBuilder builder(clique_count * clique_size);
  for (std::size_t c = 0; c < clique_count; ++c) {
    const VertexId base = static_cast<VertexId>(c * clique_size);
    for (VertexId u = 0; u < clique_size; ++u) {
      for (VertexId v = u + 1; v < clique_size; ++v) {
        builder.AddEdge(base + u, base + v);
      }
    }
    const VertexId next_base =
        static_cast<VertexId>(((c + 1) % clique_count) * clique_size);
    builder.AddEdge(base, next_base);  // bridge
  }
  Graph g = builder.Build();
  ResultSet results = RunEngine(g, EnumOptions::Ours(2, 5));
  ASSERT_EQ(results.size(), clique_count);
  for (const auto& plex : results) {
    EXPECT_EQ(plex.size(), clique_size);
  }
  // Sanity: matches the slow reference.
  CollectingSink bk;
  BkReferenceEnumerate(g, 2, 5, bk);
  EXPECT_EQ(results, bk.SortedResults());
}

TEST(BranchEdgeCases, GraphSmallerThanQYieldsNothingQuickly) {
  Graph g = Clique(3);
  EnumResult result;
  CollectingSink sink;
  auto run = EnumerateMaximalKPlexes(g, EnumOptions::Ours(2, 10), sink);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->num_plexes, 0u);
  EXPECT_EQ(run->counters.branch_calls, 0u);  // core reduction kills all
}

// Runs `graph` the way the sequential enumerator does, except that each seed
// graph's engine has a deadline that has already passed: every pending
// call it reaches is spawned. The spawned states go back through the
// same engine for a few rounds, so its frames are refilled after their
// buffers moved into spawned states, and FaPlexen branching spawns from
// its nested frames. A fresh engine then runs what is left.
void RunThroughSpawns(const Graph& graph, const EnumOptions& options,
                      ResultSink& sink, AlgoCounters& counters) {
  PreparedReduction prepared = PrepareReduction(graph, options, counters);
  const uint32_t seeds = prepared.core.graph.NumVertices();
  for (uint32_t idx = 0; idx < seeds; ++idx) {
    auto sg = BuildSeedGraph(prepared.core.graph, prepared.core.to_original,
                             prepared.ordering, prepared.ordering.order[idx],
                             options, &counters);
    if (!sg.has_value()) continue;
    std::vector<TaskState> spawned;
    BranchEngine spawner(*sg, options, sink, counters);
    spawner.SetTaskTimeout(WallTimer::NowNanos() - 1, [&](TaskState&& st) {
      spawned.push_back(std::move(st));
    });
    EnumerateSubtasks(*sg, options, counters,
                      [&](TaskState&& task) { spawner.Run(task); });
    for (int round = 0; round < 3; ++round) {
      std::vector<TaskState> pending;
      pending.swap(spawned);
      for (TaskState& st : pending) spawner.Run(st);
    }
    BranchEngine finisher(*sg, options, sink, counters);
    for (TaskState& st : spawned) finisher.Run(st);
  }
}

TEST(BranchTimeoutSpawn, SpawnedStatesReproduceThePlainRun) {
  auto karate = LoadDataset("karate");
  ASSERT_TRUE(karate.ok());
  const Graph random = GenerateErdosRenyi(40, 0.3, 93);
  const std::pair<const char*, EnumOptions> variants[] = {
      {"Ours", EnumOptions::Ours(3, 5)},
      {"OursP", EnumOptions::OursP(3, 5)},
      {"ListPlex", ListPlexOptions(3, 5)},
      {"OursFpUb", EnumOptions::OursFpUb(2, 4)},
  };
  const Graph* graphs[] = {&*karate, &random};
  for (const Graph* graph : graphs) {
    for (const auto& [name, options] : variants) {
      SCOPED_TRACE(std::string(name) + " n=" +
                   std::to_string(graph->NumVertices()));
      CollectingSink plain_sink;
      auto plain = EnumerateMaximalKPlexes(*graph, options, plain_sink);
      ASSERT_TRUE(plain.ok());

      CollectingSink sink;
      AlgoCounters counters;
      RunThroughSpawns(*graph, options, sink, counters);
      EXPECT_EQ(sink.SortedResults(), plain_sink.SortedResults());
      const AlgoCounters& want = plain->counters;
      EXPECT_EQ(counters.seed_graphs, want.seed_graphs);
      EXPECT_EQ(counters.subtasks, want.subtasks);
      EXPECT_EQ(counters.subtasks_pruned_r1, want.subtasks_pruned_r1);
      EXPECT_EQ(counters.branch_calls, want.branch_calls);
      EXPECT_EQ(counters.ub_prunes, want.ub_prunes);
      EXPECT_EQ(counters.kplex_shortcuts, want.kplex_shortcuts);
      EXPECT_EQ(counters.outputs, want.outputs);
      EXPECT_GT(counters.timeout_spawns, 0u);
    }
  }
}

}  // namespace
}  // namespace kplex
