// Shared helpers for the test suites: canonical result comparison,
// generator shortcuts, and verification of every emitted plex against
// the definition-level oracles.

#ifndef KPLEX_TESTS_TEST_UTIL_H_
#define KPLEX_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <string>
#include <vector>

#include "core/enumerator.h"
#include "core/kplex_verify.h"
#include "core/options.h"
#include "core/sink.h"
#include "graph/builder.h"
#include "graph/graph.h"

namespace kplex {
namespace testing_util {

using ResultSet = std::vector<std::vector<VertexId>>;

/// A temp path unique to this process and the running test; `tag` (and
/// a per-process counter) tell one test's paths apart. ctest runs every
/// discovered case in its own process, so a counter alone would hand
/// concurrent cases the same path.
inline std::string UniqueTempPath(const std::string& tag) {
  static std::atomic<int> counter{0};
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = test == nullptr ? "none"
                                     : std::string(test->test_suite_name()) +
                                           "." + test->name();
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return ::testing::TempDir() + "kplex_" + name + "_" +
         std::to_string(::getpid()) + "_" + tag + "_" +
         std::to_string(counter++);
}

/// Runs the engine with `options` and returns the sorted result set.
inline ResultSet RunEngine(const Graph& graph, const EnumOptions& options) {
  CollectingSink sink;
  auto result = EnumerateMaximalKPlexes(graph, options, sink);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return sink.SortedResults();
}

/// Asserts every plex in `results` is a maximal k-plex of size >= q and
/// that there are no duplicates.
inline void VerifyResultSet(const Graph& graph, const ResultSet& results,
                            uint32_t k, uint32_t q) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& plex = results[i];
    ASSERT_GE(plex.size(), q);
    ASSERT_TRUE(IsMaximalKPlex(graph, plex, k))
        << "output " << i << " is not a maximal " << k << "-plex";
    if (i > 0) {
      ASSERT_NE(results[i - 1], plex) << "duplicate output";
    }
  }
}

/// Pretty difference message for mismatching result sets.
inline std::string DiffSets(const ResultSet& expected,
                            const ResultSet& actual) {
  std::string out;
  auto dump = [](const std::vector<VertexId>& plex) {
    std::string s = "{";
    for (VertexId v : plex) s += std::to_string(v) + ",";
    s += "}";
    return s;
  };
  for (const auto& p : expected) {
    if (std::find(actual.begin(), actual.end(), p) == actual.end()) {
      out += "missing " + dump(p) + "\n";
    }
  }
  for (const auto& p : actual) {
    if (std::find(expected.begin(), expected.end(), p) == expected.end()) {
      out += "extra " + dump(p) + "\n";
    }
  }
  return out;
}

}  // namespace testing_util
}  // namespace kplex

#endif  // KPLEX_TESTS_TEST_UTIL_H_
