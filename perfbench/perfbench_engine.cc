// Engine-workload driver of the benchmark.
//
//   perfbench_engine run   --dataset D --k K --q Q [--threads T] ...
//   perfbench_engine trace --dataset D --k K --q Q [--threads T] ...
//
// `run` is the un-traced measurement: for --seconds it repeats the
// set-up (generate the seeded input file and load it) followed by one
// call of the public driver -- EnumerateMaximalKPlexes, or the parallel
// driver when --threads > 0 -- recording the set-up time, the driver's
// wall and CPU time and its answer (count, fingerprint, counters). `trace` is the separate traced run: the sequential driver
// replayed from the public per-layer calls (PrepareReduction,
// BuildSeedGraph, EnumerateSubtasks, BranchEngine::Run, a timed sink)
// with a timer around each, plus the parallel driver observed through
// its progress hook. Both print one JSON document; run.py checks the
// answers and derives the metrics.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/branch.h"
#include "core/enumerator.h"
#include "core/pair_matrix.h"
#include "core/reduction.h"
#include "core/seed_graph.h"
#include "core/sink.h"
#include "core/subtask.h"
#include "graph/edge_list_io.h"
#include "parallel/parallel_enumerator.h"
#include "util/flags.h"
#include "util/memory.h"

namespace perfbench {
namespace {

using kplex::AlgoCounters;
using kplex::EnumOptions;
using kplex::Graph;
using kplex::HashingSink;

struct Config {
  std::string dataset;
  std::string workdir;
  uint64_t seed = 1;
  double seconds = 10;
  uint32_t threads = 0;  // 0 = sequential driver
  EnumOptions options;
};

// Task-split timeout of the parallel driver (par_branch runs tau = 0.1 ms).
constexpr double kTauMs = 0.1;

// One answer digest: what every repetition is checked against.
std::string AnswerJson(JsonObject o, const HashingSink& sink,
                       const AlgoCounters& counters) {
  return o.Int("count", sink.count())
      .Str("fingerprint", Hex(sink.fingerprint()))
      .Raw("counters", CountersJson(counters))
      .str();
}

// One set-up: write the seeded input file and load it.
kplex::StatusOr<Graph> SetUp(const Config& cfg, std::vector<double>* times) {
  const std::string path = cfg.workdir + "/" + cfg.dataset + ".txt";
  const double t0 = Now();
  kplex::Status written = WriteSeededEdgeList(cfg.dataset, cfg.seed, path);
  if (!written.ok()) return written;
  kplex::StatusOr<Graph> graph = kplex::LoadEdgeList(path);
  if (graph.ok()) times->push_back(Now() - t0);
  return graph;
}

struct DriverRun {
  double wall = 0;
  double cpu = 0;
  std::string answer;
};

DriverRun RunDriver(const Graph& graph, const Config& cfg, uint32_t threads,
                    const EnumOptions& options) {
  HashingSink sink;
  const double c0 = ProcessCpu();
  const double t0 = Now();
  kplex::StatusOr<kplex::EnumResult> result =
      threads == 0
          ? kplex::EnumerateMaximalKPlexes(graph, options, sink)
          : kplex::ParallelEnumerateMaximalKPlexes(
                graph, options, {threads, kTauMs, 0}, sink);
  DriverRun run;
  run.wall = Now() - t0;
  run.cpu = ProcessCpu() - c0;
  JsonObject o;
  o.Num("wall", run.wall).Num("cpu", run.cpu);
  if (!result.ok()) {
    run.answer = o.Str("error", result.status().ToString()).str();
  } else {
    run.answer = AnswerJson(o, sink, result->counters);
  }
  return run;
}

// Repeats `body` until `seconds` have passed (at least `min_reps` times).
void Repeat(double seconds, int min_reps, const std::function<void()>& body) {
  const double start = Now();
  for (int i = 0; i < min_reps || Now() - start < seconds; ++i) body();
}

int SetUpFailed(const kplex::Status& status) {
  std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
  return 1;
}

std::string JoinList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? "," : "") + items[i];
  }
  return out + "]";
}

// ------------------------------------------------------------ un-traced

// A fresh set-up precedes every repetition, so the set-up samples span
// the same stretch of time as the repetitions they are compared with.
// Each graph is freed before the next is loaded.
int Run(const Config& cfg, JsonObject& doc) {
  std::vector<double> setup_times;
  {
    const kplex::StatusOr<Graph> graph = SetUp(cfg, &setup_times);
    if (!graph.ok()) return SetUpFailed(graph.status());
    RunDriver(*graph, cfg, cfg.threads, cfg.options);  // warm caches
  }
  std::vector<std::string> reps;
  Repeat(cfg.seconds, 3, [&] {
    const kplex::StatusOr<Graph> graph = SetUp(cfg, &setup_times);
    reps.push_back(
        graph.ok() ? RunDriver(*graph, cfg, cfg.threads, cfg.options).answer
                   : JsonObject().Str("error", graph.status().ToString()).str());
  });
  doc.Raw("setup_s", NumList(setup_times)).Raw("reps", JoinList(reps));
  return 0;
}

// --------------------------------------------------------------- traced

// Times every Emit into the wrapped sink.
class TimedSink : public kplex::ResultSink {
 public:
  explicit TimedSink(kplex::ResultSink& next) : next_(next) {}
  void Emit(std::span<const kplex::VertexId> plex) override {
    const double t = Now();
    next_.Emit(plex);
    seconds_ += Now() - t;
  }
  double seconds() const { return seconds_; }

 private:
  kplex::ResultSink& next_;
  double seconds_ = 0;
};

// The sequential driver (core/enumerator.cc) rebuilt from the public
// layer calls, with a span around each. The pair-matrix probe re-runs
// BuildPairMatrix on each built seed graph; its time is reported on its
// own and excluded from the replay's wall.
std::string TracedReplay(const Graph& graph, const EnumOptions& options) {
  HashingSink hashing;
  TimedSink sink(hashing);
  AlgoCounters counters;
  double seed_build = 0, probe = 0, subtask = 0, engine_total = 0;
  uint64_t probe_pruned = 0;

  const double t0 = Now();
  kplex::PreparedReduction prepared =
      kplex::PrepareReduction(graph, options, counters);
  const double reduce = Now() - t0;
  const kplex::CoreReduction& core = prepared.core;
  const uint32_t seeds = static_cast<uint32_t>(core.graph.NumVertices());
  for (uint32_t idx = 0; idx < seeds; ++idx) {
    double t = Now();
    auto sg = kplex::BuildSeedGraph(core.graph, core.to_original,
                                    prepared.ordering,
                                    prepared.ordering.order[idx], options,
                                    &counters);
    seed_build += Now() - t;
    if (!sg.has_value()) continue;
    if (options.use_pair_pruning_r2) {
      t = Now();
      kplex::PairPruneMatrix matrix =
          kplex::BuildPairMatrix(*sg, options.k, options.q);
      probe += Now() - t;
      probe_pruned += matrix.num_pruned_pairs();
    }
    t = Now();
    kplex::BranchEngine engine(*sg, options, sink, counters);
    engine_total += Now() - t;
    double in_branch = 0;
    t = Now();
    kplex::EnumerateSubtasks(*sg, options, counters,
                             [&](kplex::TaskState&& task) {
                               const double b = Now();
                               engine.Run(task);
                               in_branch += Now() - b;
                             });
    subtask += (Now() - t) - in_branch;
    engine_total += in_branch;
  }
  const double wall = Now() - t0 - probe;

  JsonObject o;
  o.Num("wall", wall)
      .Num("reduce_s", reduce)
      .Int("core_vertices", seeds)
      .Num("seed_build_s", seed_build)
      .Num("pair_matrix_s", probe)
      .Int("probe_pairs_pruned", probe_pruned)
      .Num("subtask_s", subtask)
      .Num("branch_s", engine_total - sink.seconds())
      .Num("emit_s", sink.seconds());
  return AnswerJson(o, hashing, counters);
}

// The parallel driver with its progress hook firing at every stage
// barrier; consecutive hook timestamps delimit the stages.
std::string HookedParallel(const Graph& graph, const Config& cfg,
                           uint32_t threads) {
  EnumOptions options = cfg.options;
  std::vector<double> stamps;
  options.progress_min_interval_ms = 0;
  options.progress = [&](uint64_t, uint64_t, uint64_t) {
    stamps.push_back(Now());
  };
  HashingSink sink;
  const double c0 = ProcessCpu();
  const double t0 = Now();
  auto result = kplex::ParallelEnumerateMaximalKPlexes(
      graph, options, {threads, kTauMs, 0}, sink);
  const double wall = Now() - t0;
  const double cpu = ProcessCpu() - c0;
  std::vector<double> stage_ms;
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    stage_ms.push_back((stamps[i] - stamps[i - 1]) * 1e3);
  }
  JsonObject o;
  o.Num("wall", wall)
      .Num("cpu", cpu)
      .Int("stage_count", stamps.size())
      .Num("stage_p50_ms", Median(stage_ms))
      .Num("stage_max_ms", Quantile(stage_ms, 1.0));
  if (!result.ok()) return o.Str("error", result.status().ToString()).str();
  return AnswerJson(o, sink, result->counters);
}

int Trace(const Config& cfg, JsonObject& doc) {
  std::vector<double> setup_times;
  kplex::StatusOr<Graph> loaded = SetUp(cfg, &setup_times);
  if (!loaded.ok()) return SetUpFailed(loaded.status());
  const Graph& graph = *loaded;
  // The parallel phases run on --threads, also for sequential workloads.
  const uint32_t threads = std::max(1u, cfg.threads);
  RunDriver(graph, cfg, 0, cfg.options);  // warm caches
  std::vector<std::string> seq, par, replay, hooked;
  const double s = cfg.seconds;
  Repeat(0.25 * s, 1, [&] {
    seq.push_back(RunDriver(graph, cfg, 0, cfg.options).answer);
  });
  Repeat(0.35 * s, 1,
         [&] { replay.push_back(TracedReplay(graph, cfg.options)); });
  Repeat(0.2 * s, 1, [&] {
    par.push_back(RunDriver(graph, cfg, threads, cfg.options).answer);
  });
  Repeat(0.2 * s, 1,
         [&] { hooked.push_back(HookedParallel(graph, cfg, threads)); });
  doc.Raw("setup_s", NumList(setup_times))
      .Int("parallel_threads", threads)
      .Raw("seq", JoinList(seq))
      .Raw("replay", JoinList(replay))
      .Raw("par", JoinList(par))
      .Raw("hooked", JoinList(hooked));
  return 0;
}

int Main(int argc, char** argv) {
  auto flags = kplex::FlagParser::Parse(argc, argv);
  if (!flags.ok() || flags->positional().size() != 1) {
    std::fprintf(stderr, "usage: perfbench_engine run|trace --dataset D "
                         "--k K --q Q --workdir DIR [--threads T] "
                         "[--seed S] [--seconds X]\n");
    return 2;
  }
  const std::string mode = flags->positional()[0];
  Config cfg;
  cfg.dataset = flags->GetString("dataset", "");
  cfg.workdir = flags->GetString("workdir", "");
  auto k = flags->GetInt("k", 0);
  auto q = flags->GetInt("q", 0);
  auto threads = flags->GetInt("threads", 0);
  auto seed = flags->GetInt("seed", 1);
  auto seconds = flags->GetDouble("seconds", 10);
  if (!k.ok() || !q.ok() || !threads.ok() || !seed.ok() || !seconds.ok() ||
      cfg.dataset.empty() || cfg.workdir.empty() || *threads < 0 ||
      (mode != "run" && mode != "trace")) {
    std::fprintf(stderr, "perfbench_engine: bad arguments\n");
    return 2;
  }
  cfg.options = EnumOptions::Ours(static_cast<uint32_t>(*k),
                                  static_cast<uint32_t>(*q));
  cfg.threads = static_cast<uint32_t>(*threads);
  cfg.seed = static_cast<uint64_t>(*seed);
  cfg.seconds = *seconds;
  if (kplex::Status valid = kplex::ValidateOptions(cfg.options); !valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 2;
  }

  JsonObject doc;
  doc.Raw("host", HostJson(std::max(1u, cfg.threads)));
  const int rc = mode == "run" ? Run(cfg, doc) : Trace(cfg, doc);
  if (rc != 0) return rc;
  doc.Num("peak_rss_mb", kplex::PeakRssKib() / 1024.0);
  std::printf("%s\n", doc.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
