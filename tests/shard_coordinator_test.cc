// End-to-end tests of the one-shot coordinated mine (`kplex_cli mine
// --endpoints`, RunCoordinatedMine over an in-process Coordinator): a
// coordinated mine over two TCP worker processes must reproduce a
// single-process run exactly (count, fingerprint, max size) on
// multiple datasets; a worker killed mid-chunk has its chunk requeued
// on the surviving worker with the total still exact; mismatched
// snapshots are refused through the content-hash admission check; and
// endpoint parsing rejects garbage.

#include "coord/coordinator.h"

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#define KPLEX_TEST_SOCKETS 1
#endif

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "core/enumerator.h"
#include "core/sink.h"
#include "graph/generators.h"
#include "service/service_api.h"
#include "service/tcp_client.h"
#include "service/tcp_server.h"

namespace kplex {
namespace {

TEST(ShardEndpoints, ParseEndpointList) {
  auto two = ParseEndpointList("127.0.0.1:4000,worker-2:5000");
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two->size(), 2u);
  EXPECT_EQ((*two)[0], "127.0.0.1:4000");
  EXPECT_FALSE(ParseEndpointList("").ok());
  EXPECT_FALSE(ParseEndpointList("noport").ok());
  EXPECT_FALSE(ParseEndpointList("host:").ok());
  EXPECT_FALSE(ParseEndpointList(":123").ok());
  EXPECT_FALSE(ParseEndpointList("host:0").ok());
  EXPECT_FALSE(ParseEndpointList("host:99999").ok());
  EXPECT_FALSE(ParseEndpointList("ok:1,bad").ok());

  // The single-endpoint forms `--coordinator`, `--endpoint`, coordctl
  // and `register` accept: the same grammar, one parser.
  auto one = ParseEndpointList("localhost:7100");
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->size(), 1u);
  EXPECT_EQ((*one)[0], "localhost:7100");
  EXPECT_TRUE(ParseEndpointList("127.0.0.1:1").ok());
  EXPECT_TRUE(ParseEndpointList("127.0.0.1:65535").ok());
  EXPECT_FALSE(ParseEndpointList("127.0.0.1:65536").ok());
  EXPECT_FALSE(ParseEndpointList("host:+80").ok());
  EXPECT_FALSE(ParseEndpointList("host:-1").ok());
  EXPECT_FALSE(ParseEndpointList("host: 80").ok());
  EXPECT_FALSE(ParseEndpointList("host:0x50").ok());
  EXPECT_FALSE(ParseEndpointList("host:99999999999999999999").ok());

  std::string host;
  uint16_t port = 0;
  ASSERT_TRUE(SplitEndpoint("worker-2:5000", &host, &port).ok());
  EXPECT_EQ(host, "worker-2");
  EXPECT_EQ(port, 5000);
  EXPECT_EQ(SplitEndpoint("noport", &host, &port).code(),
            StatusCode::kInvalidArgument);
}

#if KPLEX_TEST_SOCKETS

/// One in-process "worker process": its own ServiceApi (catalog, cache,
/// dispatcher) behind its own TCP server — exactly what a separate
/// `serve --listen` process exposes.
struct Worker {
  explicit Worker(uint32_t dispatcher_workers = 2) {
    ServiceApiOptions options;
    options.workers = dispatcher_workers;
    api = std::make_shared<ServiceApi>(options);
    server = std::make_unique<TcpServer>(api, TcpServerOptions{});
  }

  Status StartWith(const std::string& name, Graph graph) {
    KPLEX_RETURN_IF_ERROR(api->catalog().RegisterGraph(name, std::move(graph)));
    return server->Start();
  }

  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(server->port());
  }

  std::shared_ptr<ServiceApi> api;
  std::unique_ptr<TcpServer> server;
};

struct Reference {
  uint64_t count = 0;
  uint64_t fingerprint = 0;
  std::size_t max_size = 0;
};

QueryRequest MakeQuery(uint32_t k, uint32_t q) {
  QueryRequest query;
  query.graph = "g";
  query.k = k;
  query.q = q;
  return query;
}

/// Polls `worker`'s dispatcher until it runs a real chunk — a job with
/// a non-empty seed range, not the empty-range admission probe; false
/// after two minutes.
bool AwaitRunningChunk(const Worker& worker) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (std::chrono::steady_clock::now() < deadline) {
    for (const JobInfo& job : worker.api->dispatcher().Jobs()) {
      if (job.state == JobState::kRunning &&
          job.request.seed_end > job.request.seed_begin) {
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

Reference FullRun(const Graph& graph, uint32_t k, uint32_t q) {
  HashingSink hashing;
  CountingSink counting;
  CallbackSink tee([&](std::span<const VertexId> plex) {
    hashing.Emit(plex);
    counting.Emit(plex);
  });
  auto result = EnumerateMaximalKPlexes(graph, EnumOptions::Ours(k, q), tee);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return Reference{counting.count(), hashing.fingerprint(),
                   counting.max_size()};
}

TEST(ShardCoordinator, FourShardsOverTwoWorkersMatchSingleProcessRun) {
  // Two datasets (the acceptance bar): an Erdos-Renyi and a
  // Barabasi-Albert graph, mined at different (k, q).
  const struct {
    Graph graph;
    uint32_t k, q;
  } datasets[] = {
      {GenerateErdosRenyi(220, 0.08, 11), 2, 5},
      {GenerateBarabasiAlbert(300, 8, 7), 2, 6},
  };
  for (const auto& dataset : datasets) {
    Worker a, b;
    ASSERT_TRUE(a.StartWith("g", dataset.graph).ok());
    ASSERT_TRUE(b.StartWith("g", dataset.graph).ok());

    const Reference reference = FullRun(dataset.graph, dataset.k, dataset.q);

    auto result = RunCoordinatedMine(MakeQuery(dataset.k, dataset.q),
                                     {a.endpoint(), b.endpoint()});
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    EXPECT_EQ(result->num_plexes, reference.count);
    EXPECT_EQ(result->fingerprint, reference.fingerprint);
    EXPECT_EQ(result->max_plex_size, reference.max_size);
    EXPECT_EQ(result->requeues, 0u);
    EXPECT_NE(result->content_hash, 0u);
    // One outcome per merged chunk; with no requeues, the chunks' plex
    // counts add up to the whole answer.
    ASSERT_EQ(result->outcomes.size(), result->chunks);
    ASSERT_GE(result->outcomes.size(), 1u);
    uint64_t chunk_sum = 0;
    for (const CoordChunkOutcome& chunk : result->outcomes) {
      chunk_sum += chunk.plexes;
    }
    EXPECT_EQ(chunk_sum, reference.count);
    // Every chunk ran on one of the two workers. (Which lane pops
    // which chunk is a scheduling race — one fast lane legitimately
    // may drain the whole queue — so participation of *both* is
    // deliberately not asserted.)
    for (const CoordChunkOutcome& chunk : result->outcomes) {
      EXPECT_TRUE(chunk.endpoint == a.endpoint() ||
                  chunk.endpoint == b.endpoint())
          << chunk.endpoint;
    }
  }
}

TEST(ShardCoordinator, ManyShardsOneRepeatedEndpointStillExact) {
  // One worker process, listed twice: the pool dedupes the endpoint
  // into one worker, hence one lane draining many chunks, and the merge
  // is exact.
  Graph graph = GenerateErdosRenyi(220, 0.08, 29);
  Worker solo(/*dispatcher_workers=*/4);
  ASSERT_TRUE(solo.StartWith("g", graph).ok());
  const Reference reference = FullRun(graph, 2, 4);

  auto result =
      RunCoordinatedMine(MakeQuery(2, 4), {solo.endpoint(), solo.endpoint()});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_plexes, reference.count);
  EXPECT_EQ(result->fingerprint, reference.fingerprint);
}

TEST(ShardCoordinator, KilledWorkerMidShardRetriesAndStaysExact) {
  // A workload slow enough (~2.5s single-threaded) that worker B is
  // guaranteed to be mid-chunk when it is killed.
  Graph graph = GenerateBarabasiAlbert(1000, 12, 9);
  Worker a, b;
  ASSERT_TRUE(a.StartWith("g", graph).ok());
  ASSERT_TRUE(b.StartWith("g", graph).ok());
  const Reference reference = FullRun(graph, 3, 6);

  StatusOr<CoordJobInfo> result = Status::Internal("not run");
  std::thread coordination([&] {
    result = RunCoordinatedMine(MakeQuery(3, 6), {a.endpoint(), b.endpoint()});
  });

  // Kill B once it runs a real chunk (killing it during admission would
  // just drop it before planning, with nothing requeued). Stop() closes
  // B's sockets before cancelling its jobs, so the coordinator observes
  // a transport failure (never a partial result) and requeues the chunk
  // on A.
  ASSERT_TRUE(AwaitRunningChunk(b))
      << "worker B never picked up a chunk";
  b.server->Stop();

  coordination.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_plexes, reference.count);
  EXPECT_EQ(result->fingerprint, reference.fingerprint);
  EXPECT_EQ(result->max_plex_size, reference.max_size);
  EXPECT_GE(result->requeues, 1u);
  // The requeued ranges merged on A: every chunk the kill cancelled on
  // B is covered only by outcomes from A.
  for (const JobInfo& job : b.api->dispatcher().Jobs()) {
    if (job.state != JobState::kCancelled ||
        job.request.seed_end <= job.request.seed_begin) {
      continue;
    }
    for (const CoordChunkOutcome& chunk : result->outcomes) {
      if (chunk.begin < job.request.seed_end &&
          job.request.seed_begin < chunk.end) {
        EXPECT_EQ(chunk.endpoint, a.endpoint())
            << "seeds " << chunk.begin << ":" << chunk.end;
      }
    }
  }
}

TEST(ShardCoordinator, LoneEndpointDeathFailsFastInsteadOfBurningRetries) {
  // With a single endpoint configured, a transport failure has nowhere
  // to requeue to: the job must fail with a structural explanation
  // once the lone lane exits, not redial the dead endpoint.
  Graph graph = GenerateBarabasiAlbert(1000, 12, 9);
  Worker solo;
  ASSERT_TRUE(solo.StartWith("g", graph).ok());

  StatusOr<CoordJobInfo> result = Status::Internal("not run");
  std::thread coordination(
      [&] { result = RunCoordinatedMine(MakeQuery(3, 6), {solo.endpoint()}); });

  ASSERT_TRUE(AwaitRunningChunk(solo))
      << "the worker never picked up a chunk";
  solo.server->Stop();

  coordination.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("every worker lane exited"),
            std::string::npos)
      << result.status().ToString();
}

TEST(ShardCoordinator, TimedOutShardNeverEntersTheMerge) {
  // A per-chunk time limit that trips leaves the job kDone with
  // timed_out=true — a *partial* chunk. The coordinator must abort the
  // job, never silently merge a truncated total.
  Graph graph = GenerateErdosRenyi(220, 0.08, 11);
  Worker a;
  ASSERT_TRUE(a.StartWith("g", graph).ok());

  QueryRequest query = MakeQuery(2, 4);
  query.time_limit_seconds = 1e-9;  // trips after the first seed
  auto result = RunCoordinatedMine(query, {a.endpoint()});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("not a complete answer"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("time limit hit"),
            std::string::npos)
      << result.status().ToString();
}

TEST(ShardCoordinator, MismatchedSnapshotIsRefusedThroughTheHash) {
  // Worker B holds different bytes under the same name: the admission
  // check at planning must fail the whole job, not merge garbage.
  Worker a, b;
  ASSERT_TRUE(a.StartWith("g", GenerateErdosRenyi(220, 0.08, 11)).ok());
  ASSERT_TRUE(b.StartWith("g", GenerateErdosRenyi(220, 0.08, 12)).ok());

  auto result =
      RunCoordinatedMine(MakeQuery(2, 5), {a.endpoint(), b.endpoint()});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("content hash mismatch"),
            std::string::npos)
      << result.status().ToString();
  // Both sides are named, so the refusal is diagnosable from one line.
  EXPECT_NE(result.status().message().find(a.endpoint() + " has 0x"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find(b.endpoint() + " has 0x"),
            std::string::npos)
      << result.status().ToString();
}

TEST(ShardCoordinator, UnknownGraphFailsStructurally) {
  Worker a;
  ASSERT_TRUE(a.StartWith("g", GenerateErdosRenyi(100, 0.1, 3)).ok());
  QueryRequest query = MakeQuery(2, 5);
  query.graph = "nope";
  auto result = RunCoordinatedMine(query, {a.endpoint()});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ShardCoordinator, NoReachableWorkerIsAnIoError) {
  // Port 1 on loopback: reliably refused.
  auto result = RunCoordinatedMine(MakeQuery(2, 5), {"127.0.0.1:1"});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(ShardCoordinator, FpBaselineIsRejectedUpFront) {
  QueryRequest query = MakeQuery(2, 5);
  query.algo = QueryAlgo::kFp;
  auto result = RunCoordinatedMine(query, {"127.0.0.1:1"});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

#endif  // KPLEX_TEST_SOCKETS

}  // namespace
}  // namespace kplex
