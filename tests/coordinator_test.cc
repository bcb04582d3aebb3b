// End-to-end tests of the coordinator daemon (src/coord/): a
// coordinated chunked mine over in-process TCP workers must reproduce
// a single-process run bit-exactly; a cost-skewed seed space triggers
// work-stealing whose merged prefix + requeued tail stays exact; a
// worker killed mid-chunk is requeued on the survivor; a worker that
// registers mid-job joins it (and one holding different bytes is
// refused at shardsubmit); and the CoordSession speaks the daemon
// verbs over a real socket.

#include "coord/coordinator.h"

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#define KPLEX_TEST_SOCKETS 1
#endif

#if KPLEX_TEST_SOCKETS

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "coord/coord_session.h"
#include "core/enumerator.h"
#include "core/sink.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "service/service_api.h"
#include "service/tcp_client.h"
#include "service/tcp_server.h"

namespace kplex {
namespace {

/// One in-process "worker process": its own ServiceApi behind its own
/// TCP server — what a separate `serve --listen` process exposes.
struct Worker {
  explicit Worker(uint32_t dispatcher_workers = 2) {
    ServiceApiOptions options;
    options.workers = dispatcher_workers;
    api = std::make_shared<ServiceApi>(options);
    server = std::make_unique<TcpServer>(api, TcpServerOptions{});
  }

  Status StartWith(const std::string& name, Graph graph) {
    KPLEX_RETURN_IF_ERROR(
        api->catalog().RegisterGraph(name, std::move(graph)));
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

QueryRequest MakeQuery(uint32_t k, uint32_t q) {
  QueryRequest query;
  query.graph = "g";
  query.k = k;
  query.q = q;
  return query;
}

/// A seed-cost adversary: a dense Erdos-Renyi block (expensive seeds,
/// last in degeneracy order) glued to a long 4-regular ring whose seeds
/// survive the (q-k)-core at q=5 but emit nothing — hundreds of
/// near-free seeds followed by a block holding virtually all the work.
Graph BuildSkewedGraph(std::size_t dense, std::size_t ring, uint64_t seed) {
  const Graph block = GenerateErdosRenyi(dense, 0.35, seed);
  GraphBuilder builder(dense + ring);
  for (VertexId u = 0; u < block.NumVertices(); ++u) {
    for (VertexId v : block.Neighbors(u)) {
      if (u < v) builder.AddEdge(u, v);
    }
  }
  const VertexId base = static_cast<VertexId>(dense);
  const VertexId n = static_cast<VertexId>(ring);
  for (VertexId i = 0; i < n; ++i) {
    builder.AddEdge(base + i, base + (i + 1) % n);
    builder.AddEdge(base + i, base + (i + 2) % n);
  }
  return builder.Build();
}

TEST(Coordinator, ChunkedMineMatchesSingleProcessRun) {
  const Graph graph = GenerateErdosRenyi(220, 0.08, 11);
  Worker a, b, c;
  ASSERT_TRUE(a.StartWith("g", graph).ok());
  ASSERT_TRUE(b.StartWith("g", graph).ok());
  ASSERT_TRUE(c.StartWith("g", graph).ok());
  const Reference reference = FullRun(graph, 2, 5);

  Coordinator coordinator;
  ASSERT_TRUE(coordinator.AddWorker(a.endpoint()).ok());
  ASSERT_TRUE(coordinator.AddWorker(b.endpoint()).ok());
  ASSERT_TRUE(coordinator.AddWorker(c.endpoint()).ok());

  auto id = coordinator.Submit(MakeQuery(2, 5));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto job = coordinator.Wait(*id);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_EQ(job->state, "done") << job->status.ToString();
  EXPECT_EQ(job->num_plexes, reference.count);
  EXPECT_EQ(job->fingerprint, reference.fingerprint);
  EXPECT_EQ(job->max_plex_size, reference.max_size);
  EXPECT_TRUE(job->cost_planned);
  EXPECT_NE(job->content_hash, 0u);
  // Two-level scheduling: many more chunks than workers.
  EXPECT_GT(job->chunks, 3u);
  EXPECT_EQ(job->requeues, 0u);
  // The merged outcomes partition implies the counts add up.
  uint64_t outcome_sum = 0;
  for (const CoordChunkOutcome& outcome : job->outcomes) {
    outcome_sum += outcome.plexes;
  }
  EXPECT_EQ(outcome_sum, reference.count);
}

TEST(Coordinator, SkewedSeedCostsTriggerStealingAndStayExact) {
  // ctcp forces the uniform-chunk fallback, so the dense block lands in
  // the last chunks and the ring lanes go idle early — the deterministic
  // setup for a steal. The merged result must still be bit-exact.
  const Graph graph = BuildSkewedGraph(95, 600, 17);
  const Reference reference = FullRun(graph, 2, 5);

  Worker a, b, c, d;
  for (Worker* worker : {&a, &b, &c, &d}) {
    ASSERT_TRUE(worker->StartWith("g", graph).ok());
  }

  CoordinatorOptions options;
  options.chunks_per_worker = 2;
  options.steal_min_seconds = 0.0;
  Coordinator coordinator(options);
  for (Worker* worker : {&a, &b, &c, &d}) {
    ASSERT_TRUE(coordinator.AddWorker(worker->endpoint()).ok());
  }

  QueryRequest query = MakeQuery(2, 5);
  query.use_ctcp = true;
  auto id = coordinator.Submit(query);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto job = coordinator.Wait(*id);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_EQ(job->state, "done") << job->status.ToString();
  EXPECT_EQ(job->num_plexes, reference.count);
  EXPECT_EQ(job->fingerprint, reference.fingerprint);
  EXPECT_EQ(job->max_plex_size, reference.max_size);
  EXPECT_FALSE(job->cost_planned);  // ctcp fell back to uniform chunks
  // Stealing split at least one straggler chunk: the yielded prefix
  // and its requeued tail both merged.
  EXPECT_GE(job->steals, 1u);
  bool saw_yielded_outcome = false;
  for (const CoordChunkOutcome& outcome : job->outcomes) {
    saw_yielded_outcome = saw_yielded_outcome || outcome.yielded;
  }
  EXPECT_TRUE(saw_yielded_outcome);
}

TEST(Coordinator, KilledWorkerMidChunkRequeuesOnTheSurvivor) {
  // Slow enough (~2.5s single-threaded) that worker B is mid-chunk
  // when killed. Stop() closes B's sockets before cancelling its jobs,
  // so the lane observes a transport failure, requeues the chunk, and
  // the job completes exactly on A.
  Graph graph = GenerateBarabasiAlbert(1000, 12, 9);
  Worker a, b;
  ASSERT_TRUE(a.StartWith("g", graph).ok());
  ASSERT_TRUE(b.StartWith("g", graph).ok());
  const Reference reference = FullRun(graph, 3, 6);

  CoordinatorOptions options;
  options.chunks_per_worker = 4;
  Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.AddWorker(a.endpoint()).ok());
  ASSERT_TRUE(coordinator.AddWorker(b.endpoint()).ok());

  auto id = coordinator.Submit(MakeQuery(3, 6));
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Kill B once it is running a real chunk (not the admission probe).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  bool b_running_chunk = false;
  while (!b_running_chunk && std::chrono::steady_clock::now() < deadline) {
    for (const JobInfo& job : b.api->dispatcher().Jobs()) {
      b_running_chunk =
          b_running_chunk || (job.state == JobState::kRunning &&
                              job.request.seed_end > job.request.seed_begin);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(b_running_chunk) << "worker B never picked up a chunk";
  b.server->Stop();

  auto job = coordinator.Wait(*id);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_EQ(job->state, "done") << job->status.ToString();
  EXPECT_EQ(job->num_plexes, reference.count);
  EXPECT_EQ(job->fingerprint, reference.fingerprint);
  EXPECT_GE(job->requeues, 1u);
  // B is dead in the roster; its chunk finished on A.
  for (const WorkerRecord& worker : coordinator.Workers()) {
    if (worker.endpoint == b.endpoint()) {
      EXPECT_EQ(worker.state, WorkerState::kDead);
    }
  }
}

TEST(Coordinator, LateRegisteredWorkerJoinsTheRunningJob) {
  Graph graph = GenerateBarabasiAlbert(1000, 12, 21);
  Worker a, b;
  ASSERT_TRUE(a.StartWith("g", graph).ok());
  ASSERT_TRUE(b.StartWith("g", graph).ok());
  const Reference reference = FullRun(graph, 3, 6);

  CoordinatorOptions options;
  options.chunks_per_worker = 8;
  Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.AddWorker(a.endpoint()).ok());

  auto id = coordinator.Submit(MakeQuery(3, 6));
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Register B once A is actually mining, so B provably joins late.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  bool a_running_chunk = false;
  while (!a_running_chunk && std::chrono::steady_clock::now() < deadline) {
    for (const JobInfo& job : a.api->dispatcher().Jobs()) {
      a_running_chunk =
          a_running_chunk || (job.state == JobState::kRunning &&
                              job.request.seed_end > job.request.seed_begin);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(a_running_chunk) << "worker A never picked up a chunk";
  ASSERT_TRUE(coordinator.AddWorker(b.endpoint()).ok());

  auto job = coordinator.Wait(*id);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_EQ(job->state, "done") << job->status.ToString();
  EXPECT_EQ(job->num_plexes, reference.count);
  EXPECT_EQ(job->fingerprint, reference.fingerprint);
  // The late joiner completed at least one chunk: with 8 chunks per
  // worker and seconds of work left, an idle lane cannot stay empty.
  bool b_participated = false;
  for (const CoordChunkOutcome& outcome : job->outcomes) {
    b_participated = b_participated || outcome.endpoint == b.endpoint();
  }
  EXPECT_TRUE(b_participated);
}

TEST(Coordinator, LateJoinerWithDifferentBytesIsRefusedAtSubmit) {
  // Admission at planning only sees the workers registered then. A
  // worker that joins mid-job with different graph bytes is caught by
  // the hash every shardsubmit carries: refused, marked dead, its chunk
  // requeued, and nothing of it merged.
  Graph graph = GenerateBarabasiAlbert(1000, 12, 21);
  Worker a, b;
  ASSERT_TRUE(a.StartWith("g", graph).ok());
  ASSERT_TRUE(b.StartWith("g", GenerateBarabasiAlbert(1000, 12, 22)).ok());
  const Reference reference = FullRun(graph, 3, 6);

  CoordinatorOptions options;
  options.chunks_per_worker = 8;
  Coordinator coordinator(options);
  ASSERT_TRUE(coordinator.AddWorker(a.endpoint()).ok());

  auto id = coordinator.Submit(MakeQuery(3, 6));
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Register B once A is actually mining, so B provably joins after
  // planning fixed the reference hash.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  bool a_running_chunk = false;
  while (!a_running_chunk && std::chrono::steady_clock::now() < deadline) {
    for (const JobInfo& job : a.api->dispatcher().Jobs()) {
      a_running_chunk =
          a_running_chunk || (job.state == JobState::kRunning &&
                              job.request.seed_end > job.request.seed_begin);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(a_running_chunk) << "worker A never picked up a chunk";
  auto b_id = coordinator.AddWorker(b.endpoint());
  ASSERT_TRUE(b_id.ok());

  auto job = coordinator.Wait(*id);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_EQ(job->state, "done") << job->status.ToString();
  EXPECT_EQ(job->num_plexes, reference.count);
  EXPECT_EQ(job->fingerprint, reference.fingerprint);
  // B's lane popped a chunk (seconds of work were left in the queue),
  // was refused, and handed it back.
  EXPECT_GE(job->requeues, 1u);
  for (const CoordChunkOutcome& outcome : job->outcomes) {
    EXPECT_NE(outcome.endpoint, b.endpoint());
  }
  for (const WorkerRecord& worker : coordinator.Workers()) {
    if (worker.id == *b_id) {
      EXPECT_EQ(worker.state, WorkerState::kDead);
      EXPECT_EQ(worker.chunks_done, 0u);
      EXPECT_GE(worker.chunks_failed, 1u);
    }
  }
  // The refusal came before any work: B never ran a real chunk.
  for (const JobInfo& remote : b.api->dispatcher().Jobs()) {
    EXPECT_EQ(remote.request.seed_end, remote.request.seed_begin)
        << "B ran seeds " << remote.request.seed_begin << ":"
        << remote.request.seed_end;
  }
}

TEST(Coordinator, StructuralRefusals) {
  Coordinator coordinator;
  // No workers registered: the job fails structurally, not silently.
  auto id = coordinator.Submit(MakeQuery(2, 5));
  ASSERT_TRUE(id.ok());
  auto job = coordinator.Wait(*id);
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->state, "failed");
  EXPECT_EQ(job->status.code(), StatusCode::kFailedPrecondition);

  // A query carrying its own seed range is refused: the coordinator
  // owns the split.
  QueryRequest ranged = MakeQuery(2, 5);
  ranged.seed_begin = 0;
  ranged.seed_end = 10;
  EXPECT_EQ(coordinator.Submit(ranged).status().code(),
            StatusCode::kInvalidArgument);

  // Unknown job ids and endpoints.
  EXPECT_EQ(coordinator.Wait(999).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(coordinator.Heartbeat(999).code(), StatusCode::kNotFound);
  EXPECT_FALSE(coordinator.AddWorker("not-an-endpoint").ok());
  EXPECT_FALSE(coordinator.AddWorker("host:0").ok());
}

TEST(Coordinator, OutOfRangeTimeoutsAreRefusedOnBothPaths) {
  // Port 1 has no listener: a job that got past the check would fail
  // with a transport error, not INVALID_ARGUMENT.
  for (double bad : {std::nan(""), HUGE_VAL, -1.0, 1e30}) {
    CoordinatorOptions io;
    io.io_timeout_seconds = bad;
    CoordinatorOptions steal;
    steal.steal_min_seconds = bad;
    for (const CoordinatorOptions& options : {io, steal}) {
      // The daemon path: Submit refuses the job.
      Coordinator coordinator(options);
      ASSERT_TRUE(coordinator.AddWorker("127.0.0.1:1").ok());
      EXPECT_EQ(coordinator.Submit(MakeQuery(2, 5)).status().code(),
                StatusCode::kInvalidArgument)
          << bad;
      // The one-shot path.
      EXPECT_EQ(
          RunCoordinatedMine(MakeQuery(2, 5), {"127.0.0.1:1"}, options)
              .status()
              .code(),
          StatusCode::kInvalidArgument)
          << bad;
    }
  }
}

/// A scripted worker for the steal path. It plans a one-seed job,
/// acknowledges every shardsubmit, and answers every shardstop with a
/// yield that covered no seed — what a stop returns when it lands
/// before the victim's first seed (its job still queued, or still
/// reducing the graph). A shard nobody stops completes after `settle`
/// with an empty answer. Several endpoints may share one state.
struct StallingWorkers {
  static constexpr uint64_t kHash = 0x5eed;
  std::chrono::milliseconds settle{500};
  std::mutex mutex;
  std::condition_variable cv;
  std::map<uint64_t, QueryRequest> shards;  // by job id
  std::set<uint64_t> stopped;
  uint64_t submits = 0;
  bool closing = false;

  uint64_t Submits() {
    std::lock_guard<std::mutex> lock(mutex);
    return submits;
  }
  void Close() {
    std::lock_guard<std::mutex> lock(mutex);
    closing = true;
    cv.notify_all();
  }
};

class StallingSession : public WireSession {
 public:
  StallingSession(std::ostream& out, std::shared_ptr<StallingWorkers> state)
      : WireSession(out), state_(std::move(state)) {}

 private:
  Response Execute(const Request& request) override {
    StallingWorkers& state = *state_;
    Response response;
    response.request_id = request.id;
    std::unique_lock<std::mutex> lock(state.mutex);
    if (const auto* hello = std::get_if<HelloRequest>(&request.payload)) {
      response.payload = AnswerSessionVerb(*hello);
    } else if (const auto* plan = std::get_if<PlanRequest>(&request.payload)) {
      PlanResponse planned;
      planned.graph = plan->graph;
      planned.total_seeds = 1;
      planned.content_hash = StallingWorkers::kHash;
      planned.degrees = {1};
      planned.coreness = {1};
      response.payload = std::move(planned);
    } else if (const auto* probe =
                   std::get_if<MineShardRequest>(&request.payload)) {
      response.payload = Result(probe->query, 0, /*yielded=*/false);
    } else if (const auto* submit =
                   std::get_if<ShardSubmitRequest>(&request.payload)) {
      const uint64_t job = ++state.submits;
      state.shards[job] = submit->query;
      response.payload = ShardSubmitResponse{job, StallingWorkers::kHash};
    } else if (const auto* stop =
                   std::get_if<ShardStopRequest>(&request.payload)) {
      state.stopped.insert(stop->job);
      state.cv.notify_all();
      response.payload = ShardStopResponse{stop->job};
    } else if (const auto* wait =
                   std::get_if<ShardWaitRequest>(&request.payload)) {
      const bool yielded = state.cv.wait_for(lock, state.settle, [&] {
        return state.closing || state.stopped.count(wait->job) > 0;
      });
      response.payload = Result(state.shards[wait->job], wait->job, yielded);
    } else {
      response.payload = ErrorResponse{Status::InvalidArgument("unscripted")};
    }
    return response;
  }

  static ShardResultResponse Result(const QueryRequest& query, uint64_t job,
                                    bool yielded) {
    JobInfo info;
    info.id = job;
    info.request = query;
    info.state = JobState::kDone;
    info.started = true;
    info.result.total_seeds = 1;
    info.result.yielded = yielded;
    info.result.covered_begin = query.seed_begin;
    info.result.covered_end = yielded ? query.seed_begin : query.seed_end;
    return ShardResultResponse{std::move(info), StallingWorkers::kHash};
  }

  std::shared_ptr<StallingWorkers> state_;
};

TEST(Coordinator, ZeroCoverageYieldIsNotStolenAgain) {
  // Two lanes, one chunk. The idle lane steals it, and the stop lands
  // before the victim's first seed: nothing merges, and the whole chunk
  // goes back on the queue. Were it stealable, the lane that did not
  // pick it up would steal it again at once, forever. It runs to the
  // end instead: one resubmit, then done.
  auto state = std::make_shared<StallingWorkers>();
  std::vector<std::unique_ptr<TcpServer>> servers;
  CoordinatorOptions options;
  options.chunks_per_worker = 1;
  options.steal_min_seconds = 0;
  Coordinator coordinator(options);
  for (int i = 0; i < 2; ++i) {
    servers.push_back(std::make_unique<TcpServer>(
        [state](std::ostream& out) -> std::unique_ptr<WireSession> {
          return std::make_unique<StallingSession>(out, state);
        },
        [state] { state->Close(); }, TcpServerOptions{}));
    ASSERT_TRUE(servers.back()->Start().ok());
    ASSERT_TRUE(coordinator
                    .AddWorker("127.0.0.1:" +
                               std::to_string(servers.back()->port()))
                    .ok());
  }
  auto id = coordinator.Submit(MakeQuery(2, 5));
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Poll rather than Wait, so a ping-pong fails on the bound instead
  // of hanging the test.
  constexpr uint64_t kMaxSubmits = 10;
  std::string job_state;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (state->Submits() <= kMaxSubmits &&
         std::chrono::steady_clock::now() < deadline) {
    job_state = coordinator.Jobs().front().state;
    if (job_state == "done" || job_state == "failed") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const uint64_t submits = state->Submits();
  coordinator.Stop();
  for (auto& server : servers) server->Stop();
  ASSERT_LE(submits, kMaxSubmits) << "the chunk was stolen over and over";
  ASSERT_EQ(job_state, "done") << coordinator.Jobs().front().status.ToString();
  // The first submit, and one resubmit after the empty yield.
  EXPECT_EQ(submits, 2u);
  const CoordJobInfo job = coordinator.Jobs().front();
  EXPECT_EQ(job.num_plexes, 0u);
  EXPECT_EQ(job.steals, 0u);  // a yield that covered nothing is no steal
  ASSERT_EQ(job.outcomes.size(), 1u);
  EXPECT_EQ(job.outcomes[0].begin, 0u);
  EXPECT_EQ(job.outcomes[0].end, 1u);
  EXPECT_FALSE(job.outcomes[0].yielded);
}

TEST(CoordSession, ServesTheDaemonVerbsOverTheWire) {
  const Graph graph = GenerateErdosRenyi(150, 0.1, 5);
  Worker worker;
  ASSERT_TRUE(worker.StartWith("g", graph).ok());
  const Reference reference = FullRun(graph, 2, 5);

  auto coordinator = std::make_shared<Coordinator>();
  TcpServer daemon(
      [coordinator](std::ostream& out) -> std::unique_ptr<WireSession> {
        return std::make_unique<CoordSession>(out, coordinator);
      },
      [coordinator] { coordinator->Stop(); }, TcpServerOptions{});
  ASSERT_TRUE(daemon.Start().ok());

  // Negotiation takes the minimum, so requiring the current version
  // pins the daemon to exactly kProtocolVersion.
  TcpClient client;
  ASSERT_TRUE(client
                  .ConnectFramed("127.0.0.1:" + std::to_string(daemon.port()),
                                 /*timeout_seconds=*/30, kProtocolVersion,
                                 "the daemon verbs")
                  .ok());

  // register the worker over the wire.
  Request reg;
  reg.id = 2;
  reg.payload = RegisterRequest{worker.endpoint()};
  ASSERT_TRUE(client.SendLine(FormatFramedRequest(reg)).ok());
  auto reg_line = client.ReadLine();
  ASSERT_TRUE(reg_line.ok());
  auto ack = ParseFramedWorkerAck(*reg_line);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->state, "idle");

  // mine end-to-end: the response is a plain mine verdict.
  Request mine;
  mine.id = 3;
  mine.payload = MineRequest{MakeQuery(2, 5)};
  ASSERT_TRUE(client.SendLine(FormatFramedRequest(mine)).ok());
  auto mine_line = client.ReadLine();
  ASSERT_TRUE(mine_line.ok());
  auto verdict = ParseFramedMineResult(*mine_line);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_EQ(verdict->state, "done");
  EXPECT_EQ(verdict->plexes, reference.count);
  EXPECT_EQ(verdict->fingerprint, reference.fingerprint);

  // Worker-holding verbs are refused by name.
  Request load;
  load.id = 4;
  load.payload = StatsRequest{};
  ASSERT_TRUE(client.SendLine(FormatFramedRequest(load)).ok());
  auto refused = client.ReadLine();
  ASSERT_TRUE(refused.ok());
  // Error frames parse as their embedded status, so peeking the type
  // must fail; the raw frame names the refused verb.
  EXPECT_FALSE(PeekFramedResponseType(*refused).ok());
  EXPECT_NE(refused->find("\"ok\":false"), std::string::npos) << *refused;
  EXPECT_NE(refused->find("not a coordinator command"), std::string::npos)
      << *refused;

  daemon.Stop();
}

TEST(CoordSession, KeepsTheSharedWireLoopRules) {
  // The line rules every endpoint shares, driven on the daemon's own
  // session: text mode skips blank and '#' lines and closes silently on
  // quit; framed mode answers a bad frame under its id, refuses a
  // worker-only verb by name, and acknowledges quit with a bye frame.
  auto coordinator = std::make_shared<Coordinator>();
  const std::string refusal =
      "'stats' is not a coordinator command; this endpoint schedules work "
      "across workers (connect to a `serve --listen` worker for it)";
  {
    std::ostringstream out;
    CoordSession session(out, coordinator);
    EXPECT_TRUE(session.ExecuteLine(""));
    EXPECT_TRUE(session.ExecuteLine("  \t"));
    EXPECT_TRUE(session.ExecuteLine("# a comment"));
    EXPECT_EQ(out.str(), "");
    EXPECT_EQ(session.errors(), 0u);
    EXPECT_TRUE(session.ExecuteLine("stats"));
    EXPECT_EQ(out.str(), "error: INVALID_ARGUMENT: " + refusal + "\n");
    EXPECT_EQ(session.errors(), 1u);
    out.str("");
    EXPECT_FALSE(session.ExecuteLine("quit"));
    EXPECT_EQ(out.str(), "");
  }
  {
    std::ostringstream out;
    CoordSession session(out, coordinator);
    EXPECT_TRUE(session.ExecuteLine("hello proto=6 mode=framed"));
    EXPECT_EQ(session.mode(), WireMode::kFramed);
    EXPECT_EQ(out.str(),
              "{\"id\":0,\"ok\":true,\"type\":\"hello\",\"proto\":6,"
              "\"mode\":\"framed\"}\n");
    out.str("");
    EXPECT_TRUE(session.ExecuteLine("   "));  // keep-alive
    EXPECT_EQ(out.str(), "");
    EXPECT_TRUE(session.ExecuteLine(
        "{\"id\":7,\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,"
        "\"bogus\":1}"));
    EXPECT_EQ(out.str().find("{\"id\":7,\"ok\":false,\"type\":\"error\","
                             "\"code\":\"INVALID_ARGUMENT\""),
              0u)
        << out.str();
    EXPECT_EQ(session.errors(), 1u);
    out.str("");
    EXPECT_TRUE(session.ExecuteLine("{\"id\":8,\"cmd\":\"stats\"}"));
    EXPECT_EQ(out.str().find("{\"id\":8,\"ok\":false"), 0u) << out.str();
    EXPECT_NE(out.str().find(refusal), std::string::npos) << out.str();
    EXPECT_EQ(session.errors(), 2u);
    out.str("");
    EXPECT_FALSE(session.ExecuteLine("{\"id\":9,\"cmd\":\"quit\"}"));
    EXPECT_EQ(out.str(), "{\"id\":9,\"ok\":true,\"type\":\"bye\"}\n");
  }
}

}  // namespace
}  // namespace kplex

#else

namespace kplex {
TEST(Coordinator, SkippedWithoutPosixSockets) { GTEST_SKIP(); }
}  // namespace kplex

#endif  // KPLEX_TEST_SOCKETS
