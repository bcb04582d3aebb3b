// kplex_cli — the command-line front end of the library.
//
//   kplex_cli mine --input G.txt --k 2 --q 12 [--algo ours|ours_p|basic|
//             listplex|fp] [--threads N] [--tau-ms 0.1] [--output F]
//             [--max-results N] [--time-limit S] [--ctcp]
//             [--seed-range B:E]
//   kplex_cli mine --endpoints host:port,... --graph NAME --k K --q Q
//             [--io-timeout S] [other mine options]   (coordinated)
//   kplex_cli max --input G.txt --k 2
//   kplex_cli report --input G.txt
//   kplex_cli snapshot --input G.txt --output G.kpx [--precompute]
//             [--core-levels C1,C2,...] [--format v1|v2]
//   kplex_cli serve [--script F] [--memory-budget-mb N] [--cache-capacity N]
//             [--workers N] [--listen PORT] [--host H] [--max-connections N]
//   kplex_cli coordinate --listen PORT [--host H]
//             [--workers host:port,...] [--chunks-per-worker N]
//             [--io-timeout S] [--no-steal] [--steal-min-ms T]
//   kplex_cli coordctl HOST:PORT VERB [ARGS...]
//   kplex_cli datasets
//
// `serve` without --listen is the stdin/script session; with --listen it
// serves the same protocol (docs/SERVE.md) to TCP clients until SIGINT/
// SIGTERM, running --script first to preload the shared catalog.
//
// `mine --endpoints` runs the sharded path (docs/SHARDING.md): a
// one-shot in-process Coordinator registers the listed `serve --listen`
// workers (--graph names the graph in *their* catalogs), plans
// cost-balanced seed-range chunks, work-steals stragglers, and merges
// the returned chunk fingerprints into one verified total.
// `--seed-range B:E` instead mines one shard locally (manual runs).
//
// `coordinate` is the long-lived version of that coordinator: a daemon
// that owns the worker pool across jobs. `mine --coordinator H:P`
// submits a mine to it; `coordctl` speaks any single coordinator verb
// (register, drain, workers, jobs, ...) as one framed round trip.
//
// --dataset NAME may replace --input to mine a registry dataset.
// Graphs are SNAP-format edge lists ('#' comments, "u v" per line) or
// binary CSR snapshots (auto-detected; see docs/SNAPSHOT_FORMAT.md).
// Mining a v2 snapshot that carries precomputed reduction sections
// (--precompute at snapshot time) skips the (q-k)-core peel and the
// degeneracy ordering on every subsequent run.

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <unistd.h>
#endif

#include "bench_common/dataset_registry.h"
#include "bench_common/table_printer.h"
#include "coord/coord_session.h"
#include "coord/coordinator.h"
#include "core/file_sink.h"
#include "core/max_kplex.h"
#include "core/sink.h"
#include "graph/connectivity.h"
#include "graph/edge_list_io.h"
#include "graph/snapshot.h"
#include "graph/stats.h"
#include "graph/triangles.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/query_engine.h"
#include "service/service_session.h"
#include "service/tcp_client.h"
#include "service/tcp_server.h"
#include "store/result_store.h"
#include "util/flags.h"
#include "util/logging.h"

namespace kplex {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  kplex_cli mine --input G.txt --k K --q Q [options]\n"
               "  kplex_cli mine --endpoints host:port,... --graph NAME\n"
               "            --k K --q Q [--io-timeout S] [options]\n"
               "  kplex_cli max --input G.txt --k K\n"
               "  kplex_cli report --input G.txt\n"
               "  kplex_cli snapshot --input G.txt --output G.kpx\n"
               "            [--precompute] [--core-levels C1,C2,...]\n"
               "            [--format v1|v2]\n"
               "  kplex_cli serve [--script F] [--memory-budget-mb N]\n"
               "                  [--cache-capacity N] [--workers N] [--echo]\n"
               "                  [--listen PORT] [--host H]\n"
               "                  [--max-connections N]\n"
               "                  [--store DIR] [--store-budget-mb N]\n"
               "  kplex_cli coordinate --listen PORT [--host H]\n"
               "            [--workers host:port,...] [--chunks-per-worker N]\n"
               "            [--io-timeout S] [--no-steal] [--steal-min-ms T]\n"
               "  kplex_cli mine --coordinator host:port --graph NAME\n"
               "            --k K --q Q [mine options]\n"
               "  kplex_cli coordctl HOST:PORT VERB [ARGS...] [--io-timeout S]\n"
               "  kplex_cli metrics --endpoint host:port\n"
               "            [--format table|prom|json] [--io-timeout S]\n"
               "  kplex_cli query {--endpoint host:port --graph NAME |\n"
               "            --input G.txt} --k K --q Q [--stream] [--chunk N]\n"
               "            [--top K] [--contain V] [--min-size S]\n"
               "            [--max-size T] [--maximum] [--max-results N]\n"
               "            [--cursor S:O] [mine options]\n"
               "  kplex_cli datasets\n"
               "global options (any command):\n"
               "  --log-level L     debug, info, warning or error\n"
               "  --log-json        one JSON object per log line\n"
               "  --trace           emit per-query span lines to stderr\n"
               "  --metrics-dump    print this process's metrics (Prometheus\n"
               "                    format) to stderr at exit\n"
               "options for mine:\n"
               "  --dataset NAME    use a registry dataset instead of --input\n"
               "  --algo NAME       ours (default), ours_p, basic, listplex, fp\n"
               "  --threads N       parallel mining with N workers (<= 1024)\n"
               "  --tau-ms T        straggler timeout (default 0.1; parallel only)\n"
               "  --output FILE     write k-plexes (one line each) to FILE\n"
               "  --max-results N   stop after N results\n"
               "  --time-limit S    soft wall-clock budget in seconds\n"
               "  --ctcp            CTCP preprocessing instead of the "
               "(q-k)-core\n"
               "  --seed-range B:E  mine one shard of the seed space "
               "(E may be 'end')\n"
               "  --store DIR       durable result store: a repeat of the\n"
               "                    same mine (even from a new process) is\n"
               "                    answered from DIR without enumerating\n"
               "options for sharded mine (--endpoints, the one-shot\n"
               "coordinator; a repeated endpoint is one worker):\n"
               "  --graph NAME      graph name in the workers' catalogs\n"
               "  --io-timeout S    per-socket-op timeout; a hung worker is\n"
               "                    retired and its chunk requeued (default:\n"
               "                    none — set above the slowest chunk)\n"
               "options for query (protocol v4 selection):\n"
               "  --stream          print every plex body (streamed in\n"
               "                    bounded chunks from a remote worker)\n"
               "  --chunk N         plexes per result chunk (default 32)\n"
               "  --top K           only the K largest plexes, best first\n"
               "  --contain V       only plexes containing vertex V\n"
               "  --min-size S      only plexes with >= S vertices\n"
               "  --max-size T      only plexes with <= T vertices\n"
               "  --maximum         the single largest k-plex (max verb\n"
               "                    through the service stack)\n"
               "  --cursor S:O      resume a max-results-truncated\n"
               "                    sequential query where it stopped\n");
  return 2;
}

/// Prints `status` to stderr; the exit code of a failed command.
int Fail(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

/// Resolves --dataset/--input, preserving snapshot precompute sections
/// (empty for edge lists and datasets).
StatusOr<LoadedSnapshot> LoadInputFull(const FlagParser& flags) {
  std::string dataset = flags.GetString("dataset", "");
  if (!dataset.empty()) {
    auto graph = LoadDataset(dataset);
    if (!graph.ok()) return graph.status();
    LoadedSnapshot loaded;
    loaded.graph = *std::move(graph);
    return loaded;
  }
  std::string input = flags.GetString("input", "");
  if (input.empty()) {
    return Status::InvalidArgument("one of --input or --dataset is required");
  }
  return LoadGraphAutoFull(input);
}

/// Graph-only wrapper for commands that ignore precompute sections.
StatusOr<Graph> LoadInput(const FlagParser& flags) {
  auto loaded = LoadInputFull(flags);
  if (!loaded.ok()) return loaded.status();
  return std::move(loaded->graph);
}

/// --threads N: 0 (sequential) up to kMaxQueryThreads; a negative or
/// larger count is InvalidArgument.
StatusOr<uint32_t> GetThreads(const FlagParser& flags) {
  auto value = flags.GetInt("threads", 0);
  if (!value.ok()) return value.status();
  KPLEX_RETURN_IF_ERROR(CheckQueryThreads(*value));
  return static_cast<uint32_t>(*value);
}

/// A non-negative integer flag that fits T (--k, --q, --max-results,
/// --top, ...). A negative value would otherwise wrap through the
/// unsigned cast, e.g. into a huge k or an unlimited result cap.
template <typename T>
StatusOr<T> GetCount(const FlagParser& flags, const std::string& name,
                     int64_t fallback) {
  constexpr uint64_t kMax = std::min<uint64_t>(
      std::numeric_limits<T>::max(), std::numeric_limits<int64_t>::max());
  auto value = flags.GetInt(name, fallback);
  if (!value.ok()) return value.status();
  if (*value < 0 || static_cast<uint64_t>(*value) > kMax) {
    return Status::InvalidArgument("--" + name + " must be in 0.." +
                                   std::to_string(kMax) + ", got " +
                                   std::to_string(*value));
  }
  return static_cast<T>(*value);
}

/// Every duration flag (--tau-ms, --time-limit, --io-timeout,
/// --steal-min-ms), held to the rule the protocol codecs and the engines
/// enforce (CheckQueryDuration).
StatusOr<double> GetDuration(const FlagParser& flags, const std::string& name,
                             double fallback) {
  auto value = flags.GetDouble(name, fallback);
  if (!value.ok()) return value;
  KPLEX_RETURN_IF_ERROR(CheckQueryDuration(name, *value));
  return value;
}

/// The query flags QueryFromFlags reads. `query` accepts all but the
/// last two: it has no parallel straggler knob and no seed shards.
const std::vector<std::string> kQueryFlags = {
    "k", "q", "algo", "threads", "max-results", "time-limit", "ctcp",
    "tau-ms", "seed-range"};

/// The one reader of the query flags (kQueryFlags) shared by every
/// command that runs a query. --q is required except for
/// `query --maximum`.
StatusOr<QueryRequest> QueryFromFlags(const FlagParser& flags) {
  auto k = GetCount<uint32_t>(flags, "k", 2);
  auto q = GetCount<uint32_t>(flags, "q", 0);
  auto threads = GetThreads(flags);
  auto tau = GetDuration(flags, "tau-ms", 0.1);
  auto max_results = GetCount<uint64_t>(flags, "max-results", 0);
  auto time_limit = GetDuration(flags, "time-limit", 0);
  for (const Status& s :
       {k.status(), q.status(), threads.status(), tau.status(),
        max_results.status(), time_limit.status()}) {
    if (!s.ok()) return s;
  }
  if (*q == 0 && !flags.Has("maximum")) {
    return Status::InvalidArgument("--q is required (must be >= 2k - 1)");
  }
  auto algo = ParseQueryAlgo(flags.GetString("algo", "ours"));
  if (!algo.ok()) return algo.status();
  QueryRequest query;
  query.k = *k;
  query.q = *q;
  query.algo = *algo;
  query.threads = *threads;
  query.tau_ms = *tau;
  query.max_results = *max_results;
  query.time_limit_seconds = *time_limit;
  query.use_ctcp = flags.Has("ctcp");
  const std::string seed_range = flags.GetString("seed-range", "");
  if (!seed_range.empty()) {
    auto range = ParseSeedRangeText(seed_range);
    if (!range.ok()) return range.status();
    query.seed_begin = range->begin;
    query.seed_end = range->end;
  }
  return query;
}

/// Sends `payload` as framed request 2 and reads the response line.
StatusOr<std::string> SendFramed(TcpClient& client, RequestPayload payload) {
  Request request;
  request.id = 2;
  request.payload = std::move(payload);
  KPLEX_RETURN_IF_ERROR(client.SendLine(FormatFramedRequest(request)));
  return client.ReadLine();
}

/// One framed round trip whose raw response frame is the command's
/// output (coordctl, `metrics --format json`): printed to stdout, or to
/// stderr with exit 1 when the server refused. An {"ok":false,...}
/// frame peeks as its embedded status, a malformed line as a parse
/// error.
int PrintFramedResponse(TcpClient& client, RequestPayload payload) {
  auto line = SendFramed(client, std::move(payload));
  if (!line.ok()) return Fail(line.status());
  const bool refused = !PeekFramedResponseType(*line).ok();
  std::fprintf(refused ? stderr : stdout, "%s\n", line->c_str());
  return refused ? 1 : 0;
}

/// Builds the QueryRequest of a coordinated mine (one-shot --endpoints
/// or daemon --coordinator) from the mine flags. The seed split stays
/// with the coordinator, so --seed-range and the local-input flags are
/// refused.
StatusOr<QueryRequest> BuildCoordinatedMineQuery(const FlagParser& flags) {
  const std::string graph = flags.GetString("graph", "");
  if (graph.empty()) {
    return Status::InvalidArgument(
        "a coordinated mine needs --graph NAME (the graph's name in the "
        "workers' catalogs)");
  }
  if (flags.Has("input") || flags.Has("dataset") || flags.Has("output") ||
      flags.Has("seed-range")) {
    return Status::InvalidArgument(
        "--input/--dataset/--output/--seed-range do not apply to a "
        "coordinated mine (the workers hold the graph; the coordinator "
        "plans the ranges)");
  }
  auto query = QueryFromFlags(flags);
  if (!query.ok()) return query;
  query->graph = graph;
  // Surface option incompatibilities (max-results, filters, streaming)
  // as their structured explanations before opening any connection.
  KPLEX_RETURN_IF_ERROR(ValidateCoordinatedQuery(*query));
  return query;
}

/// `mine --endpoints`: a one-shot coordinated mine over TCP workers
/// (docs/SHARDING.md) on an in-process Coordinator with default
/// options; only the socket timeout comes from the flags.
int RunShardedMine(const FlagParser& flags) {
  auto query = BuildCoordinatedMineQuery(flags);
  if (!query.ok()) return Fail(query.status());
  auto endpoints = ParseEndpointList(flags.GetString("endpoints", ""));
  if (!endpoints.ok()) return Fail(endpoints.status());
  auto io_timeout = GetDuration(flags, "io-timeout", 0);
  if (!io_timeout.ok()) return Fail(io_timeout.status());
  CoordinatorOptions options;
  options.io_timeout_seconds = *io_timeout;

  auto job = RunCoordinatedMine(*query, *endpoints, options);
  if (!job.ok()) return Fail(job.status());

  TablePrinter table({"seeds", "worker", "plexes", "seconds", "stolen"});
  for (const CoordChunkOutcome& chunk : job->outcomes) {
    table.AddRow({std::to_string(chunk.begin) + ":" +
                      std::to_string(chunk.end),
                  chunk.endpoint, FormatCount(chunk.plexes),
                  FormatSeconds(chunk.seconds), chunk.yielded ? "yes" : "-"});
  }
  table.Print(std::cout);
  // The merged line is machine-read by tools/shard_smoke.py and
  // tools/metrics_smoke.py; keep its shape stable.
  std::printf("coordinated mine %s k=%u q=%u: %llu plexes, max size %llu, "
              "fingerprint 0x%016llx, hash 0x%016llx, %llu shards over %zu "
              "endpoints, %llu retries, %.3fs\n",
              query->graph.c_str(), query->k, query->q,
              static_cast<unsigned long long>(job->num_plexes),
              static_cast<unsigned long long>(job->max_plex_size),
              static_cast<unsigned long long>(job->fingerprint),
              static_cast<unsigned long long>(job->content_hash),
              static_cast<unsigned long long>(job->chunks),
              endpoints->size(),
              static_cast<unsigned long long>(job->requeues), job->seconds);
  return 0;
}

/// `mine --coordinator H:P`: submit the mine to a coordinator daemon
/// (docs/SHARDING.md v2) and print its merged verdict. The daemon's
/// mine verb answers with a plain protocol mine frame, so this is the
/// remote-mine client pointed at a different server.
int RunCoordinatorMine(const FlagParser& flags, const std::string& endpoint) {
  auto query = BuildCoordinatedMineQuery(flags);
  if (!query.ok()) return Fail(query.status());
  auto io_timeout = GetDuration(flags, "io-timeout", 0);
  if (!io_timeout.ok()) return Fail(io_timeout.status());
  TcpClient client;
  Status opened = client.ConnectFramed(endpoint, *io_timeout,
                                       kProtocolVersionCoordination,
                                       "coordinated mining");
  if (!opened.ok()) return Fail(opened);
  auto line = SendFramed(client, MineRequest{*query});
  if (!line.ok()) return Fail(line.status());
  auto verdict = ParseFramedMineResult(*line);
  if (!verdict.ok()) return Fail(verdict.status());
  // The merged line is machine-read by tools/coord_smoke.py; keep its
  // shape stable.
  std::printf("coordinated mine %s k=%u q=%u via %s: %llu plexes, max size "
              "%llu, fingerprint 0x%016llx, %.3fs\n",
              query->graph.c_str(), query->k, query->q, endpoint.c_str(),
              static_cast<unsigned long long>(verdict->plexes),
              static_cast<unsigned long long>(verdict->max_size),
              static_cast<unsigned long long>(verdict->fingerprint),
              verdict->seconds);
  return verdict->state == "done" ? 0 : 1;
}

/// The summary line of a local mine (plain or --store).
void PrintMineLine(const QueryRequest& query, uint64_t plexes,
                   double seconds, bool timed_out, bool stopped_early) {
  std::printf("%llu maximal %lld-plexes with >= %lld vertices in %.3fs%s%s\n",
              static_cast<unsigned long long>(plexes),
              static_cast<long long>(query.k), static_cast<long long>(query.q),
              seconds, timed_out ? " (time limit hit)" : "",
              stopped_early ? " (result cap hit)" : "");
}

/// `mine --store DIR`: the query runs through the service stack —
/// GraphCatalog + QueryEngine with a ResultStore attached — so a repeat
/// of the same mine, even from a fresh process, is answered from the
/// durable store without enumerating. The graph is registered under the
/// fixed catalog name "cli"; store entries key on the graph's *content
/// hash* plus the canonical signature, so two invocations share an
/// entry iff they mined the same bytes with the same parameters.
int RunStoreMine(const FlagParser& flags) {
  if (flags.Has("output")) {
    std::fprintf(stderr, "--output does not combine with --store (the "
                         "store path reports counts and fingerprints; "
                         "write bodies with a plain mine)\n");
    return 1;
  }
  auto query = QueryFromFlags(flags);
  if (!query.ok()) return Fail(query.status());
  auto store_budget_mb = flags.GetInt("store-budget-mb", 0);
  if (!store_budget_mb.ok()) return Fail(store_budget_mb.status());
  if (*store_budget_mb < 0) {
    std::fprintf(stderr, "--store-budget-mb must be >= 0\n");
    return 1;
  }

  GraphCatalog catalog;
  query->graph = "cli";
  const std::string dataset = flags.GetString("dataset", "");
  const std::string input = flags.GetString("input", "");
  Status registered = Status::Ok();
  if (!dataset.empty()) {
    registered = catalog.RegisterDataset(query->graph, dataset);
  } else if (!input.empty()) {
    registered = catalog.RegisterFile(query->graph, input);
  } else {
    std::fprintf(stderr, "one of --input or --dataset is required\n");
    return 1;
  }
  if (!registered.ok()) return Fail(registered);

  StoreOptions store_options;
  store_options.directory = flags.GetString("store", "");
  store_options.byte_budget = static_cast<uint64_t>(*store_budget_mb) << 20;
  auto store = ResultStore::Open(std::move(store_options));
  if (!store.ok()) {
    std::fprintf(stderr, "cannot open result store: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }

  QueryEngine engine(catalog);
  engine.AttachStore(store->get());
  auto result = engine.Run(*query);
  if (!result.ok()) return Fail(result.status());
  PrintMineLine(*query, result->num_plexes, result->seconds,
                result->timed_out, result->stopped_early);
  const ResultStore::Stats stats = (*store)->stats();
  // Machine-read by tools/store_smoke.py: keep the shape stable.
  std::printf("store tier: %s, fingerprint 0x%016llx "
              "(%llu entries, %llu bytes)\n",
              result->from_store        ? "disk"
              : result->from_cache      ? "memory"
                                        : "computed",
              static_cast<unsigned long long>(result->fingerprint),
              static_cast<unsigned long long>(stats.entries),
              static_cast<unsigned long long>(stats.bytes));
  return result->timed_out || result->cancelled ? 1 : 0;
}

int RunMine(const FlagParser& flags) {
  const std::string coordinator = flags.GetString("coordinator", "");
  if (flags.Has("endpoints") && !coordinator.empty()) {
    std::fprintf(stderr, "--endpoints (one-shot fan-out) and --coordinator "
                         "(daemon) are two different coordinators; pick "
                         "one\n");
    return 1;
  }
  if (!coordinator.empty()) return RunCoordinatorMine(flags, coordinator);
  if (flags.Has("endpoints")) return RunShardedMine(flags);
  if (flags.Has("store")) return RunStoreMine(flags);

  // Plain mine: the QueryEngine's own dispatch, minus its catalog and
  // cache, with the plexes going to --output or a counter.
  auto query = QueryFromFlags(flags);
  if (!query.ok()) return Fail(query.status());
  auto options = EnumOptionsForQuery(*query);
  if (!options.ok()) return Fail(options.status());
  auto loaded = LoadInputFull(flags);
  if (!loaded.ok()) return Fail(loaded.status());
  if (!loaded->precompute.empty()) options->precompute = &loaded->precompute;

  const std::string output = flags.GetString("output", "");
  CountingSink counting;
  std::unique_ptr<FileSink> file_sink;
  ResultSink* sink = &counting;
  if (!output.empty()) {
    file_sink = std::make_unique<FileSink>(output);
    if (!file_sink->status().ok()) return Fail(file_sink->status());
    sink = file_sink.get();
  }
  auto result = RunEnumeration(loaded->graph, *query, *options, *sink);
  if (!result.ok()) return Fail(result.status());
  if (file_sink != nullptr) {
    Status io = file_sink->Finish();
    if (!io.ok()) return Fail(io);
  }
  PrintMineLine(*query, result->num_plexes, result->seconds,
                result->timed_out, result->stopped_early);
  // The fp driver has no canonical seed space; it accepts only the full
  // range, so there is no shard to report.
  const std::string seed_range = flags.GetString("seed-range", "");
  if (!seed_range.empty() && query->algo != QueryAlgo::kFp) {
    std::printf("seed shard %s of %llu total seeds (merge shards per "
                "docs/SHARDING.md)\n",
                seed_range.c_str(),
                static_cast<unsigned long long>(result->total_seeds));
  }
  std::printf("branch calls: %llu, sub-tasks: %llu (R1-pruned: %llu), "
              "ub-prunes: %llu\n",
              static_cast<unsigned long long>(result->counters.branch_calls),
              static_cast<unsigned long long>(result->counters.subtasks),
              static_cast<unsigned long long>(
                  result->counters.subtasks_pruned_r1),
              static_cast<unsigned long long>(result->counters.ub_prunes));
  if (result->counters.core_reductions_precomputed > 0) {
    std::printf("reduction served from snapshot sections (core%s)\n",
                result->counters.orderings_precomputed > 0 ? " + ordering"
                                                           : "");
  }
  if (!output.empty()) std::printf("results written to %s\n", output.c_str());
  return 0;
}

void PrintPlexLine(const std::vector<VertexId>& plex) {
  for (std::size_t i = 0; i < plex.size(); ++i) {
    std::printf("%s%u", i == 0 ? "" : " ", plex[i]);
  }
  std::printf("\n");
}

int RunMax(const FlagParser& flags) {
  auto graph = LoadInput(flags);
  if (!graph.ok()) return Fail(graph.status());
  auto k = GetCount<uint32_t>(flags, "k", 2);
  if (!k.ok()) return Fail(k.status());
  auto result = FindMaximumKPlex(*graph, *k);
  if (!result.ok()) return Fail(result.status());
  if (!result->found) {
    std::printf("no %lld-plex with >= %lld vertices exists\n",
                static_cast<long long>(*k), 2 * static_cast<long long>(*k) - 1);
    return 0;
  }
  std::printf("maximum %lld-plex has %zu vertices (%u passes, %.3fs):\n",
              static_cast<long long>(*k), result->plex.size(), result->passes,
              result->seconds);
  PrintPlexLine(result->plex);
  return 0;
}

int RunReport(const FlagParser& flags) {
  auto graph = LoadInput(flags);
  if (!graph.ok()) return Fail(graph.status());
  GraphStats stats = ComputeGraphStats(*graph);
  ComponentResult components = ConnectedComponents(*graph);
  std::printf("vertices:            %zu\n", stats.num_vertices);
  std::printf("edges:               %zu\n", stats.num_edges);
  std::printf("max degree:          %zu\n", stats.max_degree);
  std::printf("average degree:      %.2f\n", stats.average_degree);
  std::printf("degeneracy:          %u\n", stats.degeneracy);
  std::printf("components:          %zu (largest: %zu)\n",
              components.NumComponents(), components.LargestSize());
  std::printf("triangles:           %llu\n",
              static_cast<unsigned long long>(CountTriangles(*graph)));
  std::printf("global clustering:   %.4f\n",
              GlobalClusteringCoefficient(*graph));
  std::printf("avg local clustering: %.4f\n",
              AverageLocalClustering(*graph));
  return 0;
}

int RunSnapshot(const FlagParser& flags) {
  auto graph = LoadInput(flags);
  if (!graph.ok()) return Fail(graph.status());
  const std::string output = flags.GetString("output", "");
  if (output.empty()) {
    std::fprintf(stderr, "--output FILE is required\n");
    return 1;
  }

  SnapshotWriteOptions options;
  const std::string format = flags.GetString("format", "v2");
  if (format == "v1") {
    options.version = kSnapshotVersionLegacy;
  } else if (format != "v2") {
    std::fprintf(stderr, "--format must be v1 or v2, got '%s'\n",
                 format.c_str());
    return 1;
  }
  options.include_precompute = flags.Has("precompute");
  const std::string levels = flags.GetString("core-levels", "");
  if (!levels.empty()) {
    auto parsed = ParseCoreLevelList(levels);
    if (!parsed.ok()) return Fail(parsed.status());
    options.include_precompute = true;
    options.core_mask_levels = *std::move(parsed);
  }

  Status saved = SaveSnapshot(*graph, output, options);
  if (!saved.ok()) return Fail(saved);
  std::printf("snapshot (%s%s) of %zu vertices / %zu edges written to %s\n",
              format.c_str(),
              options.include_precompute ? ", precompute sections" : "",
              graph->NumVertices(), graph->NumEdges(), output.c_str());
  return 0;
}

/// --listen PORT, --host H and --max-connections N of a listening
/// command (`serve --listen`, `coordinate`).
StatusOr<TcpServerOptions> ListenOptionsFromFlags(const FlagParser& flags) {
  auto listen = flags.GetInt("listen", -1);
  if (!listen.ok()) return listen.status();
  auto max_connections = flags.GetInt("max-connections", 64);
  if (!max_connections.ok()) return max_connections.status();
  if (*listen < 0 || *listen > 65535) {
    return Status::InvalidArgument(
        "--listen must be a port in 0..65535 (0 picks an ephemeral port)");
  }
  if (*max_connections < 1 || *max_connections > 4096) {
    return Status::InvalidArgument(
        "--max-connections must be between 1 and 4096");
  }
  TcpServerOptions options;
  options.host = flags.GetString("host", "127.0.0.1");
  options.port = static_cast<uint16_t>(*listen);
  options.max_connections = static_cast<uint32_t>(*max_connections);
  return options;
}

#if defined(__unix__) || defined(__APPLE__)
// Self-pipe for signal-driven shutdown: the handler performs one
// async-signal-safe write; ServeUntilSignal blocks on the read end.
int g_shutdown_pipe[2] = {-1, -1};

void HandleShutdownSignal(int) {
  const char byte = 1;
  // The return value is deliberately unused: the pipe being full means a
  // shutdown byte is already pending.
  [[maybe_unused]] ssize_t n = write(g_shutdown_pipe[1], &byte, 1);
}
#endif

/// Starts `server` and serves until SIGINT/SIGTERM, then stops it and
/// prints "COMMAND: shutdown complete ...". `banner` prints the port
/// line, which clients started with --listen 0 (tools/*_smoke.py,
/// perfbench/run.py) machine-read: keep its shape stable; it is flushed
/// at once.
int ServeUntilSignal(TcpServer& server, const char* command,
                     const std::function<void(uint16_t port)>& banner) {
  Status started = server.Start();
  if (!started.ok()) return Fail(started);
#if defined(__unix__) || defined(__APPLE__)
  if (pipe(g_shutdown_pipe) != 0) {
    std::fprintf(stderr, "cannot create the shutdown pipe\n");
    server.Stop();
    return 1;
  }
  struct sigaction action = {};
  action.sa_handler = HandleShutdownSignal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  banner(server.port());
  std::fflush(stdout);

  char byte = 0;
  while (read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
#endif  // POSIX; elsewhere Start() reports Unimplemented
  server.Stop();
  const TcpServer::Stats stats = server.stats();
  std::printf("%s: shutdown complete (%llu connections served, "
              "%llu refused)\n",
              command, static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.refused));
  return 0;
}

int RunServe(const FlagParser& flags) {
  auto budget_mb = flags.GetInt("memory-budget-mb", 0);
  auto cache_capacity = flags.GetInt("cache-capacity", 64);
  auto workers = flags.GetInt("workers", 1);
  auto store_budget_mb = flags.GetInt("store-budget-mb", 0);
  for (const Status& s :
       {budget_mb.status(), cache_capacity.status(), workers.status(),
        store_budget_mb.status()}) {
    if (!s.ok()) return Fail(s);
  }
  if (*budget_mb < 0 || *cache_capacity < 0) {
    std::fprintf(stderr,
                 "--memory-budget-mb and --cache-capacity must be >= 0\n");
    return 1;
  }
  if (*workers < 1 || *workers > 1024) {
    std::fprintf(stderr, "--workers must be between 1 and 1024\n");
    return 1;
  }
  if (static_cast<uint64_t>(*budget_mb) > (SIZE_MAX >> 20)) {
    std::fprintf(stderr, "--memory-budget-mb %lld overflows the byte budget\n",
                 static_cast<long long>(*budget_mb));
    return 1;
  }
  const bool network = flags.Has("listen");
  StatusOr<TcpServerOptions> server_options = TcpServerOptions{};
  if (network) {
    server_options = ListenOptionsFromFlags(flags);
    if (!server_options.ok()) return Fail(server_options.status());
  } else if (flags.Has("host") || flags.Has("max-connections")) {
    std::fprintf(stderr, "--host/--max-connections require --listen\n");
    return 1;
  }
  const std::string store_dir = flags.GetString("store", "");
  if (*store_budget_mb < 0) {
    std::fprintf(stderr, "--store-budget-mb must be >= 0\n");
    return 1;
  }
  if (store_dir.empty() && flags.Has("store-budget-mb")) {
    std::fprintf(stderr, "--store-budget-mb requires --store DIR\n");
    return 1;
  }

  ServiceApiOptions api_options;
  api_options.memory_budget_bytes =
      static_cast<std::size_t>(*budget_mb) * (std::size_t{1} << 20);
  api_options.result_cache_capacity =
      static_cast<std::size_t>(*cache_capacity);
  api_options.workers = static_cast<uint32_t>(*workers);
  api_options.store_dir = store_dir;
  api_options.store_byte_budget =
      static_cast<uint64_t>(*store_budget_mb) << 20;
  auto api = std::make_shared<ServiceApi>(api_options);
  // A requested-but-broken store is a config error, not something to
  // silently run without.
  if (!api->store_status().ok()) {
    std::fprintf(stderr, "cannot open result store '%s': %s\n",
                 store_dir.c_str(),
                 api->store_status().ToString().c_str());
    return 1;
  }

  // The script runs first in both modes — in network mode it preloads
  // the shared catalog before any client connects.
  const std::string script = flags.GetString("script", "");
  uint64_t failures = 0;
  {
    ServiceSession session(std::cout, api, flags.Has("echo"));
    if (!script.empty()) {
      std::ifstream in(script);
      if (!in) {
        std::fprintf(stderr, "cannot open script '%s'\n", script.c_str());
        return 1;
      }
      failures = session.RunScript(in);
    } else if (!network) {
      failures = session.RunScript(std::cin);
    }
  }
  if (!network) return failures == 0 ? 0 : 1;
  if (failures != 0) {
    std::fprintf(stderr, "serve: preload script had %llu failure(s); "
                         "not listening\n",
                 static_cast<unsigned long long>(failures));
    return 1;
  }

  TcpServer server(api, *server_options);
  return ServeUntilSignal(server, "serve", [&](uint16_t port) {
    std::printf("serving on %s:%u (protocol v%u, %lld workers)\n",
                server_options->host.c_str(), port, kProtocolVersion,
                static_cast<long long>(*workers));
  });
}

/// The coordinator daemon (docs/SHARDING.md v2): a TCP server whose
/// sessions dispatch to one shared Coordinator instead of a ServiceApi.
/// Workers listed in --workers are registered up front; more can join
/// at runtime via `coordctl HOST:PORT register worker:port`.
int RunCoordinate(const FlagParser& flags) {
  if (!flags.Has("listen")) {
    std::fprintf(stderr, "coordinate requires --listen PORT (0 picks an "
                         "ephemeral port)\n");
    return 1;
  }
  auto server_options = ListenOptionsFromFlags(flags);
  if (!server_options.ok()) return Fail(server_options.status());
  auto chunks_per_worker = flags.GetInt("chunks-per-worker", 8);
  auto io_timeout = GetDuration(flags, "io-timeout", 0);
  auto steal_min_ms = GetDuration(flags, "steal-min-ms", 20.0);
  for (const Status& s : {chunks_per_worker.status(), io_timeout.status(),
                          steal_min_ms.status()}) {
    if (!s.ok()) return Fail(s);
  }
  if (*chunks_per_worker < 1 || *chunks_per_worker > 1024) {
    std::fprintf(stderr, "--chunks-per-worker must be between 1 and 1024\n");
    return 1;
  }

  CoordinatorOptions options;
  options.chunks_per_worker = static_cast<uint32_t>(*chunks_per_worker);
  options.io_timeout_seconds = *io_timeout;
  options.enable_stealing = !flags.Has("no-steal");
  options.steal_min_seconds = *steal_min_ms / 1000.0;
  auto coordinator = std::make_shared<Coordinator>(options);

  std::size_t registered = 0;
  const std::string workers = flags.GetString("workers", "");
  if (!workers.empty()) {
    auto endpoints = ParseEndpointList(workers);
    if (!endpoints.ok()) return Fail(endpoints.status());
    for (const std::string& endpoint : *endpoints) {
      auto id = coordinator->AddWorker(endpoint);
      if (!id.ok()) return Fail(id.status());
      ++registered;
    }
  }

  TcpServer server(
      [coordinator](std::ostream& out) -> std::unique_ptr<WireSession> {
        return std::make_unique<CoordSession>(out, coordinator);
      },
      [coordinator] { coordinator->Stop(); }, *server_options);
  return ServeUntilSignal(server, "coordinate", [&](uint16_t port) {
    std::printf("coordinating on %s:%u (protocol v%u, %zu workers "
                "registered, stealing %s)\n",
                server_options->host.c_str(), port, kProtocolVersion,
                registered, options.enable_stealing ? "on" : "off");
  });
}

/// `coordctl HOST:PORT VERB [ARGS...]`: one framed round trip against
/// a coordinator daemon. The verb words are validated with the text
/// grammar locally, shipped framed, and the raw response frame prints
/// to stdout (machine-readable; errors land on stderr, exit 1).
int RunCoordctl(const FlagParser& flags) {
  const std::vector<std::string>& positional = flags.positional();
  if (positional.size() < 3) {
    std::fprintf(stderr,
                 "usage: kplex_cli coordctl HOST:PORT VERB [ARGS...]\n");
    return 2;
  }
  auto io_timeout = GetDuration(flags, "io-timeout", 0);
  if (!io_timeout.ok()) return Fail(io_timeout.status());
  std::string command = positional[2];
  for (std::size_t i = 3; i < positional.size(); ++i) {
    command += ' ';
    command += positional[i];
  }
  auto request = ParseTextRequest(command);
  if (!request.ok()) return Fail(request.status());

  TcpClient client;
  Status opened = client.ConnectFramed(positional[1], *io_timeout,
                                       kProtocolVersionCoordination,
                                       "coordctl");
  if (!opened.ok()) return Fail(opened);
  return PrintFramedResponse(client, std::move(request->payload));
}

/// Scrapes a live `serve --listen` process's metrics registry. The
/// table/prom forms ride the text wire (the session starts in text
/// mode, so no handshake is needed); json asks over the framed wire and
/// prints the raw response frame.
int RunMetrics(const FlagParser& flags) {
  const std::string endpoint = flags.GetString("endpoint", "");
  if (endpoint.empty()) {
    std::fprintf(stderr, "--endpoint host:port is required\n");
    return 1;
  }
  const std::string format = flags.GetString("format", "table");
  if (format != "table" && format != "prom" && format != "json") {
    std::fprintf(stderr, "--format must be table, prom or json, got '%s'\n",
                 format.c_str());
    return 1;
  }
  auto io_timeout = GetDuration(flags, "io-timeout", 5.0);
  if (!io_timeout.ok()) return Fail(io_timeout.status());
  TcpClient client;
  if (format == "json") {
    // Protocol v3 added the metrics verb.
    Status opened = client.ConnectFramed(endpoint, *io_timeout,
                                         /*min_version=*/3, "the metrics verb");
    if (!opened.ok()) return Fail(opened);
    return PrintFramedResponse(client, MetricsRequest{});
  }

  Status connected = client.ConnectEndpoint(endpoint, *io_timeout);
  if (!connected.ok()) return Fail(connected);
  Status sent = client.SendLine(format == "prom" ? "metrics format=prom"
                                                 : "metrics");
  if (!sent.ok()) return Fail(sent);
  auto header = client.ReadLine();
  if (!header.ok()) return Fail(header.status());
  // The body length is announced up front ("metrics N series" /
  // "metrics prom N lines"), so the scrape knows exactly how many lines
  // to drain — no sentinel, no read-until-close.
  unsigned long long body_lines = 0;
  const int matched =
      format == "prom"
          ? std::sscanf(header->c_str(), "metrics prom %llu lines",
                        &body_lines)
          : std::sscanf(header->c_str(), "metrics %llu series", &body_lines);
  if (matched != 1) {
    std::fprintf(stderr, "%s\n", header->c_str());
    return 1;
  }
  for (unsigned long long i = 0; i < body_lines; ++i) {
    auto line = client.ReadLine();
    if (!line.ok()) return Fail(line.status());
    std::printf("%s\n", line->c_str());
  }
  return 0;
}

/// Builds the QueryRequest of a `query` invocation: the shared query
/// flags plus the selection surface of protocol v4 (bodies, filters,
/// top-K, maximum mode, cursors). `graph` is the catalog name the
/// request carries.
StatusOr<QueryRequest> BuildQueryRequest(const FlagParser& flags,
                                         const std::string& graph) {
  auto query = QueryFromFlags(flags);
  if (!query.ok()) return query;
  query->graph = graph;
  auto chunk = GetCount<uint32_t>(flags, "chunk", 0);
  auto top = GetCount<uint64_t>(flags, "top", 0);
  auto contain = flags.GetInt("contain", -1);
  auto min_size = GetCount<uint64_t>(flags, "min-size", 0);
  auto max_size = GetCount<uint64_t>(flags, "max-size", 0);
  for (const Status& s : {chunk.status(), top.status(), contain.status(),
                          min_size.status(), max_size.status()}) {
    if (!s.ok()) return s;
  }
  query->maximum = flags.Has("maximum");
  query->chunk_size = *chunk;
  query->top_k = *top;
  if (flags.Has("contain")) {
    if (*contain < 0) {
      return Status::InvalidArgument("--contain must be a vertex id >= 0");
    }
    query->has_contain = true;
    query->contain = static_cast<uint32_t>(*contain);
  }
  query->filter_min_size = *min_size;
  query->filter_max_size = *max_size;
  const std::string cursor = flags.GetString("cursor", "");
  if (!cursor.empty()) {
    auto parsed_cursor = ParseCursorText(cursor);
    if (!parsed_cursor.ok()) return parsed_cursor.status();
    query->has_cursor = true;
    query->cursor_seed = parsed_cursor->seed;
    query->cursor_ordinal = parsed_cursor->ordinal;
  }
  // The query verb exists to show plexes: stream mode, top-K and
  // maximum mode all ask the server for bodies. A bare `query` (none of
  // the three) is a count-only probe.
  query->collect_bodies =
      flags.Has("stream") || query->top_k > 0 || query->maximum;
  return query;
}

/// `query` against a live `serve --listen` worker: framed protocol v4
/// streaming client. The chunk frames arrive before the verdict frame;
/// each plex prints as one line, then the summary (cursor included).
int RunRemoteQuery(const FlagParser& flags, const std::string& endpoint) {
  const std::string graph = flags.GetString("graph", "");
  if (graph.empty()) {
    std::fprintf(stderr, "--endpoint requires --graph NAME (the graph's "
                         "name in the worker's catalog)\n");
    return 1;
  }
  auto query = BuildQueryRequest(flags, graph);
  if (!query.ok()) return Fail(query.status());
  auto io_timeout = GetDuration(flags, "io-timeout", 0);
  if (!io_timeout.ok()) return Fail(io_timeout.status());
  TcpClient client;
  Status opened = client.ConnectFramed(endpoint, *io_timeout,
                                       kProtocolVersionStreaming,
                                       "a streamed query");
  if (!opened.ok()) return Fail(opened);

  uint64_t streamed = 0;
  uint64_t expected_seq = 0;
  for (auto line = SendFramed(client, MineRequest{*query});;
       line = client.ReadLine()) {
    if (!line.ok()) return Fail(line.status());
    auto type = PeekFramedResponseType(*line);
    if (!type.ok()) return Fail(type.status());
    if (*type == "result_chunk") {
      auto chunk = ParseFramedResultChunk(*line);
      if (!chunk.ok()) return Fail(chunk.status());
      if (chunk->seq != expected_seq) {
        std::fprintf(stderr, "stream out of order: expected chunk %llu, "
                             "got %llu\n",
                     static_cast<unsigned long long>(expected_seq),
                     static_cast<unsigned long long>(chunk->seq));
        return 1;
      }
      ++expected_seq;
      for (const std::vector<VertexId>& plex : chunk->plexes) {
        PrintPlexLine(plex);
        ++streamed;
      }
      continue;
    }
    if (*type == "mine") {
      auto verdict = ParseFramedMineResult(*line);
      if (!verdict.ok()) return Fail(verdict.status());
      const uint64_t bodies = verdict->bodies.value_or(0);
      if (query->collect_bodies && bodies != streamed) {
        std::fprintf(stderr, "stream truncated: server buffered %llu "
                             "bodies but %llu arrived\n",
                     static_cast<unsigned long long>(bodies),
                     static_cast<unsigned long long>(streamed));
        return 1;
      }
      std::printf("query %s k=%u q=%u: %llu plexes, max size %llu, "
                  "fingerprint 0x%016llx, %.3fs%s%s%s",
                  graph.c_str(), query->k, query->q,
                  static_cast<unsigned long long>(verdict->plexes),
                  static_cast<unsigned long long>(verdict->max_size),
                  static_cast<unsigned long long>(verdict->fingerprint),
                  verdict->seconds, verdict->cached ? " [cached]" : "",
                  verdict->timed_out ? " [time limit hit]" : "",
                  verdict->stopped_early ? " [result cap hit]" : "");
      if (verdict->cursor) {
        std::printf(" [cursor %s]",
                    FormatCursorValue(verdict->cursor->seed,
                                      verdict->cursor->ordinal).c_str());
      }
      std::printf("\n");
      return verdict->state == "done" ? 0 : 1;
    }
    std::fprintf(stderr, "unexpected '%s' frame mid-stream\n",
                 type->c_str());
    return 1;
  }
}

/// `query` against a local graph file/dataset: same selection surface,
/// served by an in-process QueryEngine (no server round trip).
int RunLocalQuery(const FlagParser& flags) {
  auto loaded = LoadInput(flags);
  if (!loaded.ok()) return Fail(loaded.status());
  GraphCatalog catalog;
  Status registered = catalog.RegisterGraph("input", *std::move(loaded));
  if (!registered.ok()) return Fail(registered);
  auto query = BuildQueryRequest(flags, "input");
  if (!query.ok()) return Fail(query.status());
  QueryEngine engine(catalog, /*cache_capacity=*/0);
  auto result = engine.Run(*query);
  if (!result.ok()) return Fail(result.status());
  if (result->plexes != nullptr) {
    for (const std::vector<VertexId>& plex : *result->plexes) {
      PrintPlexLine(plex);
    }
  }
  std::printf("query %s k=%u q=%u: %llu plexes, max size %zu, "
              "fingerprint 0x%016llx, %.3fs%s%s",
              flags.GetString("input", flags.GetString("dataset", "")).c_str(),
              query->k, query->q,
              static_cast<unsigned long long>(result->num_plexes),
              result->max_plex_size,
              static_cast<unsigned long long>(result->fingerprint),
              result->seconds,
              result->timed_out ? " [time limit hit]" : "",
              result->stopped_early ? " [result cap hit]" : "");
  if (result->has_cursor) {
    std::printf(" [cursor %s]",
                FormatCursorValue(result->cursor_seed,
                                  result->cursor_ordinal).c_str());
  }
  std::printf("\n");
  return 0;
}

int RunQuery(const FlagParser& flags) {
  const std::string endpoint = flags.GetString("endpoint", "");
  const bool local = flags.Has("input") || flags.Has("dataset");
  if (endpoint.empty() != local) {
    std::fprintf(stderr, "query needs exactly one of --endpoint host:port "
                         "(remote) or --input/--dataset (local)\n");
    return 1;
  }
  return endpoint.empty() ? RunLocalQuery(flags)
                          : RunRemoteQuery(flags, endpoint);
}

int RunDatasets() {
  TablePrinter table({"name", "stands for", "category", "recipe"});
  for (const auto& spec : AllDatasets()) {
    table.AddRow({spec.name, spec.stands_for, spec.category, spec.recipe});
  }
  table.Print(std::cout);
  return 0;
}

int Main(int argc, char** argv) {
  auto parsed = FlagParser::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const FlagParser& flags = *parsed;
  if (flags.positional().empty()) return Usage();
  const std::string& command = flags.positional()[0];
  // coordctl takes the endpoint and the verb words as positionals;
  // every other command takes none.
  if (command != "coordctl" && flags.positional().size() != 1) {
    return Usage();
  }

  // Global observability flags, valid on every command.
  const std::string log_level = flags.GetString("log-level", "");
  if (!log_level.empty()) {
    LogLevel level;
    if (!ParseLogLevel(log_level, &level)) {
      std::fprintf(stderr, "--log-level must be debug, info, warning or "
                           "error, got '%s'\n", log_level.c_str());
      return 2;
    }
    SetLogLevel(level);
  }
  if (flags.Has("log-json")) SetLogJson(true);
  if (flags.Has("trace")) SetTraceEnabled(true);

  // Each command rejects the other commands' flags: a serve-only flag
  // on `mine` is a typo the user should hear about, not a no-op.
  std::vector<std::string> known = {"log-level", "log-json", "trace",
                                    "metrics-dump"};
  const auto accept = [&known](std::vector<std::string> more) {
    known.insert(known.end(), more.begin(), more.end());
  };
  int (*run)(const FlagParser&) = nullptr;
  if (command == "mine") {
    accept(kQueryFlags);
    accept({"input", "dataset", "output", "endpoints", "graph", "io-timeout",
            "coordinator", "store", "store-budget-mb"});
    run = RunMine;
  } else if (command == "max") {
    accept({"input", "dataset", "k"});
    run = RunMax;
  } else if (command == "report") {
    accept({"input", "dataset"});
    run = RunReport;
  } else if (command == "snapshot") {
    accept({"input", "dataset", "output", "precompute", "core-levels",
            "format"});
    run = RunSnapshot;
  } else if (command == "serve") {
    accept({"script", "memory-budget-mb", "cache-capacity", "workers", "echo",
            "listen", "host", "max-connections", "store", "store-budget-mb"});
    run = RunServe;
  } else if (command == "coordinate") {
    accept({"listen", "host", "max-connections", "workers",
            "chunks-per-worker", "io-timeout", "no-steal", "steal-min-ms"});
    run = RunCoordinate;
  } else if (command == "coordctl") {
    accept({"io-timeout"});
    run = RunCoordctl;
  } else if (command == "metrics") {
    accept({"endpoint", "format", "io-timeout"});
    run = RunMetrics;
  } else if (command == "query") {
    accept(std::vector<std::string>(kQueryFlags.begin(),
                                    kQueryFlags.end() - 2));
    accept({"endpoint", "graph", "input", "dataset", "stream", "chunk", "top",
            "contain", "min-size", "max-size", "maximum", "cursor",
            "io-timeout"});
    run = RunQuery;
  } else if (command == "datasets") {
    run = [](const FlagParser&) { return RunDatasets(); };
  } else {
    return Usage();
  }
  auto unknown = flags.UnknownFlags(known);
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag --%s for '%s'\n",
                 unknown.front().c_str(), command.c_str());
    return Usage();
  }
  const int exit_code = run(flags);
  if (flags.Has("metrics-dump")) {
    // To stderr, after the command's own output: stdout stays the
    // machine-readable surface (shard_smoke parses it), and a failed
    // command still reports what its counters saw.
    const std::string dump =
        RenderMetricsPrometheus(MetricsRegistry::Global().Snapshot());
    std::fputs(dump.c_str(), stderr);
  }
  return exit_code;
}

}  // namespace
}  // namespace kplex

int main(int argc, char** argv) { return kplex::Main(argc, argv); }
