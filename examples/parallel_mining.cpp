// Parallel mining with straggler elimination (Section 6 of the paper).
//
// Mines a large synthetic social network with 1..N threads and shows
// (a) the speedup of the staged task-parallel engine, and (b) the effect
// of the timeout mechanism: with tau = infinity one monster task can
// serialize a stage; with the default tau = 0.1 ms it is decomposed and
// spread across workers.
//
//   build/examples/parallel_mining [k] [q]

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/sink.h"
#include "graph/generators.h"
#include "parallel/parallel_enumerator.h"

int main(int argc, char** argv) {
  using namespace kplex;
  const uint32_t k = argc > 1 ? std::atoi(argv[1]) : 3;
  const uint32_t q = argc > 2 ? std::atoi(argv[2]) : 12;

  Graph graph = GenerateBarabasiAlbert(6000, 20, 99);
  std::printf("graph: %zu vertices, %zu edges; mining maximal %u-plexes "
              "with >= %u vertices\n\n",
              graph.NumVertices(), graph.NumEdges(), k, q);

  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  double base_seconds = 0;
  uint64_t expected = 0;

  std::printf("%-10s %-12s %-10s %-10s %-16s\n", "threads", "tau (ms)",
              "plexes", "time (s)", "speedup vs 1thr");
  for (uint32_t threads : {1u, 2u, hw, 2 * hw}) {
    for (double tau_ms : {0.1, 0.0}) {  // 0: timeout disabled
      if (threads == 1 && tau_ms == 0) continue;
      ParallelOptions parallel;
      parallel.num_threads = threads;
      parallel.timeout_ms = tau_ms;
      CountingSink sink;
      auto result = ParallelEnumerateMaximalKPlexes(
          graph, EnumOptions::Ours(k, q), parallel, sink);
      if (!result.ok()) {
        std::fprintf(stderr, "failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      if (threads == 1) {
        base_seconds = result->seconds;
        expected = result->num_plexes;
      } else if (result->num_plexes != expected) {
        std::fprintf(stderr, "BUG: thread count changed the result set!\n");
        return 1;
      }
      char tau_label[32];
      if (tau_ms == 0) {
        std::snprintf(tau_label, sizeof(tau_label), "off");
      } else {
        std::snprintf(tau_label, sizeof(tau_label), "%.1f", tau_ms);
      }
      std::printf("%-10u %-12s %-10llu %-10.3f %-16.2f\n", threads,
                  tau_label,
                  static_cast<unsigned long long>(result->num_plexes),
                  result->seconds,
                  base_seconds > 0 ? base_seconds / result->seconds : 1.0);
    }
  }
  std::printf("\n(threads beyond the %u available cores cannot add real "
              "speedup)\n", hw);
  return 0;
}
