// Helpers shared by the benchmark drivers: clocks, order statistics, a
// minimal JSON emitter, seeded input generation and the host record.
// Everything here sits outside the library; the drivers reach the
// library only through its public headers.

#ifndef KPLEX_PERFBENCH_BENCH_UTIL_H_
#define KPLEX_PERFBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/counters.h"
#include "util/status.h"

namespace perfbench {

/// Monotonic seconds (steady_clock).
double Now();
/// CPU seconds consumed by this process, all threads.
double ProcessCpu();

double Median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);

/// Flat JSON object writer: numbers, strings and nested raw JSON.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, uint64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string NumList(const std::vector<double>& values);

/// Every AlgoCounters field by name, as a JSON object.
std::string CountersJson(const kplex::AlgoCounters& c);
std::string Hex(uint64_t value);

/// Generates the named registry dataset and writes it as an edge list
/// whose line order and endpoint order are shuffled by `seed`. The
/// loaded graph is identical for every seed (edge-list loading sorts
/// and deduplicates, and every vertex has an edge), so the stored
/// answers hold while the loader sees different bytes per seed.
kplex::Status WriteSeededEdgeList(const std::string& dataset, uint64_t seed,
                                  const std::string& path);

/// Host and build record printed beside every result.
std::string HostJson(uint32_t threads_used);

}  // namespace perfbench

#endif  // KPLEX_PERFBENCH_BENCH_UTIL_H_
