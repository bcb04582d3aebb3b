// Heap allocations of the branch-and-bound engine. Once an engine has
// run a task, running the same task again must not allocate: include
// children live in the engine's reusable frames, and all scratch is
// sized on first use. This executable replaces the global operator new
// with a counting one, so it must stay a test binary of its own.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>

#include "baselines/listplex.h"
#include "bench_common/dataset_registry.h"
#include "core/branch.h"
#include "core/reduction.h"
#include "core/seed_graph.h"
#include "core/subtask.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// Out of line: inlined next to a `new`, GCC's -Wmismatched-new-delete
// takes this free() for a mismatched deallocation.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace kplex {
namespace {

// Runs `task` on `engine` and returns the allocations made inside Run.
uint64_t AllocationsDuringRun(BranchEngine& engine, TaskState task) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  engine.Run(task);
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(BranchAllocations, WarmEngineAllocatesNothingPerBranchCall) {
  auto graph = LoadDataset("wiki-vote-syn");
  ASSERT_TRUE(graph.ok());
  const std::pair<const char*, EnumOptions> variants[] = {
      {"Ours", EnumOptions::Ours(3, 10)},
      {"OursP", EnumOptions::OursP(3, 10)},
      {"OursFpUb", EnumOptions::OursFpUb(3, 10)},
      {"ListPlex", ListPlexOptions(3, 10)},
  };
  for (const auto& [name, options] : variants) {
    SCOPED_TRACE(name);
    AlgoCounters setup;
    PreparedReduction prepared = PrepareReduction(*graph, options, setup);
    ASSERT_GT(prepared.core.graph.NumVertices(), 0u);
    // The first sub-task, in seed order, whose search tree has at least
    // kMinCalls branch calls.
    constexpr uint64_t kMinCalls = 50;
    std::optional<SeedGraph> sg;
    TaskState task;
    uint64_t task_calls = 0;
    for (uint32_t idx = 0;
         task_calls < kMinCalls && idx < prepared.core.graph.NumVertices();
         ++idx) {
      sg = BuildSeedGraph(prepared.core.graph, prepared.core.to_original,
                          prepared.ordering, prepared.ordering.order[idx],
                          options, &setup);
      if (!sg.has_value()) continue;
      EnumerateSubtasks(*sg, options, setup, [&](TaskState&& candidate) {
        if (task_calls >= kMinCalls) return;
        HashingSink sink;
        AlgoCounters counters;
        BranchEngine probe(*sg, options, sink, counters);
        TaskState copy = candidate;
        probe.Run(copy);
        if (counters.branch_calls >= kMinCalls) {
          task = std::move(candidate);
          task_calls = counters.branch_calls;
        }
      });
    }
    ASSERT_GE(task_calls, kMinCalls);

    HashingSink sink;
    AlgoCounters counters;
    BranchEngine engine(*sg, options, sink, counters);
    // The cold run sizes frames and scratch; counting it shows the
    // replaced operator new is live.
    EXPECT_GT(AllocationsDuringRun(engine, task), 0u);
    const uint64_t calls_before = counters.branch_calls;
    EXPECT_EQ(AllocationsDuringRun(engine, task), 0u)
        << "over " << task_calls << " branch calls";
    EXPECT_EQ(counters.branch_calls - calls_before, task_calls);
  }
}

}  // namespace
}  // namespace kplex
