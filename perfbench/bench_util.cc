#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "bench_common/dataset_registry.h"
#include "util/bitset_kernels.h"
#include "util/rng.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpu() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + key + "\":";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  Key(key);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(value) ? value : 0.0);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') body_ += '\\';
    body_ += (c == '\n') ? ' ' : c;
  }
  body_ += "\"";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  char buf[64];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", i ? "," : "", values[i]);
    out += buf;
  }
  return out + "]";
}

std::string CountersJson(const kplex::AlgoCounters& c) {
  return JsonObject()
      .Int("seed_graphs", c.seed_graphs)
      .Int("seed_vertices_pruned", c.seed_vertices_pruned)
      .Int("subtasks", c.subtasks)
      .Int("subtasks_pruned_r1", c.subtasks_pruned_r1)
      .Int("branch_calls", c.branch_calls)
      .Int("ub_prunes", c.ub_prunes)
      .Int("kplex_shortcuts", c.kplex_shortcuts)
      .Int("outputs", c.outputs)
      .Int("pair_edges_pruned", c.pair_edges_pruned)
      .Int("timeout_spawns", c.timeout_spawns)
      .Int("core_reductions_precomputed", c.core_reductions_precomputed)
      .Int("orderings_precomputed", c.orderings_precomputed)
      .str();
}

std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

kplex::Status WriteSeededEdgeList(const std::string& dataset, uint64_t seed,
                                  const std::string& path) {
  auto graph = kplex::LoadDataset(dataset);
  if (!graph.ok()) return graph.status();
  std::vector<std::pair<kplex::VertexId, kplex::VertexId>> edges;
  for (kplex::VertexId u = 0; u < graph->NumVertices(); ++u) {
    for (kplex::VertexId v : graph->Neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  kplex::Rng rng(seed);
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.NextBounded(i)]);
  }
  std::ostringstream text;
  text << "# " << dataset << " shuffled with seed " << seed << "\n";
  for (auto [u, v] : edges) {
    if (rng.Next() & 1) std::swap(u, v);
    text << u << ' ' << v << '\n';
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text.str();
  out.close();
  if (!out) return kplex::Status::IoError("cannot write " + path);
  return kplex::Status::Ok();
}

std::string HostJson(uint32_t threads_used) {
  JsonObject o;
  o.Int("nproc", std::thread::hardware_concurrency())
      .Int("threads_used", threads_used)
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("bit_kernels", kplex::kernels::Active().name);
  return o.str();
}

}  // namespace perfbench
