// Golden pins of the engine's exact search: the HashingSink fingerprint
// and every AlgoCounters field of a few registry cells, per variant.
// Counts alone (GoldenStats) would survive a changed pivot tie-break or
// a changed prune decision; branch_calls, ub_prunes and kplex_shortcuts
// do not. A change to the engine that is meant to be a pure speed-up
// must leave every row here untouched. The Ours rows match
// perfbench/expected.json.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "baselines/listplex.h"
#include "bench_common/dataset_registry.h"
#include "core/enumerator.h"
#include "core/sink.h"
#include "parallel/parallel_enumerator.h"

namespace kplex {
namespace {

enum class Variant { kOurs, kOursP, kBasic, kListPlex, kFpSorted };

struct Golden {
  const char* dataset;
  uint32_t k, q;
  uint64_t fingerprint;
  AlgoCounters counters;
};

/// Every counter as one line, so a mismatch shows all fields at once.
/// `with_spawns` false leaves out timeout_spawns, which depends on
/// timing by design.
std::string Describe(const AlgoCounters& c, bool with_spawns = true) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "seed_graphs=%" PRIu64 " seed_vertices_pruned=%" PRIu64
      " subtasks=%" PRIu64 " subtasks_pruned_r1=%" PRIu64
      " branch_calls=%" PRIu64 " ub_prunes=%" PRIu64
      " kplex_shortcuts=%" PRIu64 " outputs=%" PRIu64
      " pair_edges_pruned=%" PRIu64 " core_reductions_precomputed=%" PRIu64
      " orderings_precomputed=%" PRIu64,
      c.seed_graphs, c.seed_vertices_pruned, c.subtasks,
      c.subtasks_pruned_r1, c.branch_calls, c.ub_prunes, c.kplex_shortcuts,
      c.outputs, c.pair_edges_pruned, c.core_reductions_precomputed,
      c.orderings_precomputed);
  std::string out = buf;
  if (with_spawns) {
    out += " timeout_spawns=" + std::to_string(c.timeout_spawns);
  }
  return out;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

EnumOptions OptionsFor(Variant variant, uint32_t k, uint32_t q) {
  switch (variant) {
    case Variant::kOurs: return EnumOptions::Ours(k, q);
    case Variant::kOursP: return EnumOptions::OursP(k, q);
    case Variant::kBasic: return EnumOptions::Basic(k, q);
    case Variant::kListPlex: return ListPlexOptions(k, q);
    case Variant::kFpSorted: return EnumOptions::OursFpUb(k, q);
  }
  return EnumOptions::Ours(k, q);
}

void ExpectSequential(Variant variant, const Golden& pin) {
  SCOPED_TRACE(std::string(pin.dataset) + " k=" + std::to_string(pin.k) +
               " q=" + std::to_string(pin.q));
  auto g = LoadDataset(pin.dataset);
  ASSERT_TRUE(g.ok());
  HashingSink sink;
  auto result =
      EnumerateMaximalKPlexes(*g, OptionsFor(variant, pin.k, pin.q), sink);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Hex(sink.fingerprint()), Hex(pin.fingerprint));
  EXPECT_EQ(Describe(result->counters), Describe(pin.counters));
}

// Field order: seed_graphs, seed_vertices_pruned, subtasks,
// subtasks_pruned_r1, branch_calls, ub_prunes, kplex_shortcuts, outputs,
// pair_edges_pruned, timeout_spawns, core_reductions_precomputed,
// orderings_precomputed (the declaration order of AlgoCounters).
const Golden kOursPins[] = {
    {"karate", 2, 4, 0xb4fdf23b5801cfefULL,
     {28, 139, 131, 16, 141, 6, 115, 114, 30, 0, 0, 0}},
    {"karate", 3, 5, 0x94028aac4acb415cULL,
     {28, 0, 669, 232, 679, 32, 453, 425, 799, 0, 0, 0}},
    {"wiki-vote-syn", 3, 15, 0xdca50c1f86e20ff9ULL,
     {38, 489681, 2133, 523, 34776, 5090, 8437, 6795, 1076, 0, 0, 0}},
    {"wiki-vote-syn", 3, 16, 0xe00cc19cba73c9e4ULL,
     {27, 489958, 1086, 330, 13715, 1645, 3909, 3079, 539, 0, 0, 0}},
};

TEST(GoldenCounters, Ours) {
  for (const Golden& pin : kOursPins) ExpectSequential(Variant::kOurs, pin);
}

TEST(GoldenCounters, OursP) {
  const Golden pins[] = {
      {"karate", 3, 5, 0x94028aac4acb415cULL,
       {28, 0, 669, 232, 687, 32, 453, 425, 799, 0, 0, 0}},
      {"wiki-vote-syn", 3, 16, 0xe00cc19cba73c9e4ULL,
       {27, 489958, 1086, 330, 14072, 1750, 4206, 3079, 539, 0, 0, 0}},
  };
  for (const Golden& pin : pins) ExpectSequential(Variant::kOursP, pin);
}

TEST(GoldenCounters, Basic) {
  const Golden pins[] = {
      {"karate", 3, 5, 0x94028aac4acb415cULL,
       {28, 0, 1468, 0, 1789, 39, 453, 425, 0, 0, 0, 0}},
      {"wiki-vote-syn", 3, 16, 0xe00cc19cba73c9e4ULL,
       {27, 489958, 1235, 0, 18435, 4538, 3909, 3079, 0, 0, 0, 0}},
  };
  for (const Golden& pin : pins) ExpectSequential(Variant::kBasic, pin);
}

TEST(GoldenCounters, ListPlex) {
  const Golden pins[] = {
      {"karate", 3, 5, 0x94028aac4acb415cULL,
       {28, 0, 1468, 0, 1868, 0, 449, 425, 0, 0, 0, 0}},
      {"wiki-vote-syn", 3, 16, 0xe00cc19cba73c9e4ULL,
       {27, 489958, 1235, 0, 56287, 0, 4432, 3079, 0, 0, 0, 0}},
  };
  for (const Golden& pin : pins) ExpectSequential(Variant::kListPlex, pin);
}

TEST(GoldenCounters, FpSortedBound) {
  const Golden pins[] = {
      {"karate", 3, 5, 0x94028aac4acb415cULL,
       {28, 0, 669, 232, 679, 32, 453, 425, 799, 0, 0, 0}},
      {"wiki-vote-syn", 3, 16, 0xe00cc19cba73c9e4ULL,
       {27, 489958, 1086, 330, 13689, 1645, 3909, 3079, 539, 0, 0, 0}},
  };
  for (const Golden& pin : pins) ExpectSequential(Variant::kFpSorted, pin);
}

// The parallel engine with a 1 µs straggler timeout spawns nearly every
// pending call as its own task, yet must explore exactly the sequential
// search tree: every counter but timeout_spawns matches the Ours pins.
TEST(GoldenCounters, ParallelWithTimeoutSpawnsMatchesSequential) {
  uint64_t spawns = 0;
  for (uint32_t threads : {1u, 2u}) {
    for (const Golden& pin : kOursPins) {
      SCOPED_TRACE(std::string(pin.dataset) + " k=" + std::to_string(pin.k) +
                   " q=" + std::to_string(pin.q) +
                   " threads=" + std::to_string(threads));
      auto g = LoadDataset(pin.dataset);
      ASSERT_TRUE(g.ok());
      ParallelOptions popts;
      popts.num_threads = threads;
      popts.timeout_ms = 0.001;
      HashingSink sink;
      auto result = ParallelEnumerateMaximalKPlexes(
          *g, EnumOptions::Ours(pin.k, pin.q), popts, sink);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(Hex(sink.fingerprint()), Hex(pin.fingerprint));
      EXPECT_EQ(Describe(result->counters, /*with_spawns=*/false),
                Describe(pin.counters, /*with_spawns=*/false));
      spawns += result->counters.timeout_spawns;
    }
  }
  EXPECT_GT(spawns, 0u) << "the timeout rule never fired";
}

}  // namespace
}  // namespace kplex
