#include "coord/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <map>
#include <utility>

#include "coord/planner.h"
#include "core/sink.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/protocol.h"
#include "service/tcp_client.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kplex {
namespace {

Counter& CoordChunksTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_coord_chunks_total");
  return counter;
}
Counter& CoordStealsTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_coord_steals_total");
  return counter;
}
Counter& CoordRequeuesTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_coord_requeues_total");
  return counter;
}
Counter& CoordWorkersJoinedTotal() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "kplex_coord_workers_joined_total");
  return counter;
}
Counter& CoordWorkersLeftTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_coord_workers_left_total");
  return counter;
}
Histogram& CoordChunkSeconds() {
  static Histogram& histogram =
      MetricsRegistry::Global().GetHistogram("kplex_coord_chunk_seconds");
  return histogram;
}

Status ConnectWorker(TcpClient& client, const std::string& endpoint,
                     double timeout_seconds) {
  return client.ConnectFramed(endpoint, timeout_seconds,
                              kProtocolVersionCoordination, "coordination");
}

std::string HexHash(uint64_t hash) {
  char text[24];
  std::snprintf(text, sizeof(text), "0x%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

/// One framed round trip keeping socket failures (chunk may not have
/// completed; retryable elsewhere) apart from decoded worker verdicts
/// (deterministic; they would repeat).
struct RoundTrip {
  bool transport_failed = false;
  Status transport_error;
  std::string line;  ///< the response line when transport succeeded
};

RoundTrip RoundTripLine(TcpClient& client, const std::string& request) {
  RoundTrip out;
  Status sent = client.SendLine(request);
  if (!sent.ok()) {
    out.transport_failed = true;
    out.transport_error = sent;
    return out;
  }
  auto line = client.ReadLine();
  if (!line.ok()) {
    out.transport_failed = true;
    out.transport_error = line.status();
    return out;
  }
  out.line = *std::move(line);
  return out;
}

/// What a planning or admission probe learned from one worker.
struct Probe {
  uint64_t content_hash = 0;
  uint64_t total_seeds = 0;
  std::vector<uint64_t> costs;  ///< empty => uniform fallback
  bool transport_failed = false;
  Status transport_error;
  Status verdict;  ///< non-OK: deterministic failure, abort the job
};

/// Probes one worker: with `plan` set, a `plan` probe for per-seed
/// costs; otherwise (an admission check of a further worker, or ctcp,
/// whose seed order the plan probe refuses) an empty-range mineshard
/// that returns only the hash and the seed-space size.
Probe ProbeWorker(const std::string& endpoint, const QueryRequest& query,
                  bool plan, double timeout_seconds) {
  Probe probe;
  TcpClient client;
  Status connected = ConnectWorker(client, endpoint, timeout_seconds);
  if (!connected.ok()) {
    probe.transport_failed = true;
    probe.transport_error = connected;
    return probe;
  }
  if (plan && !query.use_ctcp) {
    Request request;
    request.id = 1;
    PlanRequest plan_request;
    plan_request.graph = query.graph;
    plan_request.k = query.k;
    plan_request.q = query.q;
    request.payload = std::move(plan_request);
    RoundTrip trip = RoundTripLine(client, FormatFramedRequest(request));
    if (trip.transport_failed) {
      probe.transport_failed = true;
      probe.transport_error = trip.transport_error;
      return probe;
    }
    auto parsed = ParseFramedPlan(trip.line);
    if (!parsed.ok()) {
      probe.verdict = parsed.status();
      return probe;
    }
    probe.content_hash = parsed->content_hash;
    probe.total_seeds = parsed->total_seeds;
    probe.costs = EstimateSeedCosts(parsed->degrees, parsed->coreness);
    return probe;
  }
  // An empty shard reports the admission hash and the seed-space size
  // without enumerating. Under ctcp it is also the planning probe: the
  // canonical seed order differs from the core ordering, so cost
  // signals are unavailable.
  Request request;
  request.id = 1;
  MineShardRequest shard;
  shard.query = query;
  shard.query.seed_begin = 0;
  shard.query.seed_end = 0;
  shard.expected_hash = 0;
  request.payload = std::move(shard);
  RoundTrip trip = RoundTripLine(client, FormatFramedRequest(request));
  if (trip.transport_failed) {
    probe.transport_failed = true;
    probe.transport_error = trip.transport_error;
    return probe;
  }
  auto parsed = ParseFramedShardResult(trip.line);
  if (!parsed.ok()) {
    probe.verdict = parsed.status();
    return probe;
  }
  probe.content_hash = parsed->content_hash;
  probe.total_seeds = parsed->total_seeds;
  return probe;
}

/// Best-effort steal signal: a fresh ephemeral connection (so the
/// victim lane's own connection stays undisturbed, and a dropped
/// stealer cancels nothing — shardstop submits no jobs). Benign
/// refusals (the shard already finished) count as delivered.
Status SendShardStop(const std::string& endpoint, uint64_t remote_job,
                     double timeout_seconds) {
  TcpClient client;
  KPLEX_RETURN_IF_ERROR(ConnectWorker(client, endpoint, timeout_seconds));
  Request request;
  request.id = 2;
  ShardStopRequest stop;
  stop.job = remote_job;
  request.payload = stop;
  RoundTrip trip = RoundTripLine(client, FormatFramedRequest(request));
  if (trip.transport_failed) return trip.transport_error;
  auto acked = ParseFramedShardStop(trip.line);
  if (!acked.ok() && acked.status().code() != StatusCode::kFailedPrecondition) {
    return acked.status();
  }
  return Status::Ok();
}

}  // namespace

/// Shared fan-out state of one running job: the chunk queue, the
/// in-flight table stealers scan, and the merge fold — all under one
/// mutex. Lanes hold a shared_ptr so a late-joining lane outliving an
/// aborted RunJob never dangles.
struct Coordinator::JobRun {
  std::mutex mutex;
  std::condition_variable cv;

  // Immutable after construction.
  CoordinatorOptions options;
  QueryRequest query;  ///< base query; lanes stamp seed ranges onto it
  uint64_t content_hash = 0;
  uint64_t total_seeds = 0;
  uint64_t trace_id = 0;

  struct PendingChunk {
    uint32_t begin = 0;
    uint32_t end = 0;
    /// False for the requeue of a yield that covered no seed: stealing
    /// that chunk again at once could repeat forever with nothing
    /// merged, so the lane that pops it runs it to the end.
    bool stealable = true;
  };
  std::deque<PendingChunk> queue;

  struct InFlight {
    uint32_t begin = 0;
    uint32_t end = 0;
    uint64_t worker_id = 0;
    std::string endpoint;
    uint64_t remote_job = 0;  ///< 0 until the shardsubmit ack lands
    int64_t started_nanos = 0;
    bool steal_requested = false;
  };
  std::map<uint64_t, InFlight> in_flight;  // key: local ticket
  uint64_t next_ticket = 1;

  MergeableResult merged;
  std::vector<std::pair<uint32_t, uint32_t>> covered;
  std::vector<CoordChunkOutcome> outcomes;
  uint64_t steals = 0;
  uint64_t requeues = 0;
  uint64_t chunk_count = 0;

  bool failed = false;
  Status failure;
  bool finished = false;  ///< RunJob observed completion (or failure)

  uint32_t active_lanes = 0;
  /// Worker ids that currently have a lane (prevents duplicate lanes
  /// when a live worker re-registers; a dead lane removes itself, so
  /// a restarted worker's re-register gets a fresh lane).
  std::vector<uint64_t> laned_workers;
  /// Live lane sockets, for unblocking lanes parked in a recv when the
  /// job aborts (TcpClient::Shutdown is the cross-thread-safe method).
  std::vector<TcpClient*> lane_clients;
  std::vector<std::thread> lane_threads;

  bool HasLaneLocked(uint64_t worker_id) const {
    return std::find(laned_workers.begin(), laned_workers.end(), worker_id) !=
           laned_workers.end();
  }

  void FailLocked(Status status) {
    if (!failed) {
      failed = true;
      failure = std::move(status);
    }
    for (TcpClient* client : lane_clients) client->Shutdown();
    cv.notify_all();
  }
};

Coordinator::Coordinator(CoordinatorOptions options)
    : options_(std::move(options)) {
  scheduler_ = std::thread([this] { SchedulerLoop(); });
}

Coordinator::~Coordinator() { Stop(); }

StatusOr<uint64_t> Coordinator::AddWorker(const std::string& endpoint) {
  std::string host;
  uint16_t port = 0;
  KPLEX_RETURN_IF_ERROR(SplitEndpoint(endpoint, &host, &port));
  const uint64_t id = pool_.Register(endpoint);
  CoordWorkersJoinedTotal().Increment();
  // A registration during a running job joins it immediately: the new
  // lane pops queued chunks and participates in stealing like any
  // other.
  std::lock_guard<std::mutex> lock(mutex_);
  std::shared_ptr<JobRun> run = active_run_;
  if (run != nullptr) {
    std::lock_guard<std::mutex> run_lock(run->mutex);
    if (!run->finished && !run->failed && !run->HasLaneLocked(id)) {
      ++run->active_lanes;
      run->laned_workers.push_back(id);
      run->lane_threads.emplace_back(
          [this, run, id, endpoint] { LaneMain(run, id, endpoint); });
    }
  }
  return id;
}

Status Coordinator::Heartbeat(uint64_t worker) {
  return pool_.Heartbeat(worker);
}

Status Coordinator::Drain(uint64_t worker) { return pool_.Drain(worker); }

std::vector<WorkerRecord> Coordinator::Workers() const {
  return pool_.Snapshot();
}

StatusOr<uint64_t> Coordinator::Submit(const QueryRequest& query) {
  // Checked here rather than at construction, so both the daemon and
  // the one-shot RunCoordinatedMine refuse a job they would schedule
  // with an overflowing socket timeout or steal age.
  KPLEX_RETURN_IF_ERROR(
      CheckQueryDuration("io-timeout", options_.io_timeout_seconds));
  KPLEX_RETURN_IF_ERROR(
      CheckQueryDuration("steal-min-seconds", options_.steal_min_seconds));
  KPLEX_RETURN_IF_ERROR(ValidateCoordinatedQuery(query));
  if (query.HasSeedRange()) {
    return Status::InvalidArgument(
        "a coordinated mine owns the seed split; submit the query without "
        "a seed range");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) {
    return Status::FailedPrecondition("the coordinator is stopping");
  }
  auto job = std::make_unique<CoordJobInfo>();
  job->id = next_job_id_++;
  job->query = query;
  job->query.cancel = nullptr;
  job->query.yield = nullptr;
  job->state = "queued";
  const uint64_t id = job->id;
  jobs_.push_back(std::move(job));
  cv_.notify_all();
  return id;
}

StatusOr<CoordJobInfo> Coordinator::Wait(uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  CoordJobInfo* job = nullptr;
  for (auto& candidate : jobs_) {
    if (candidate->id == id) {
      job = candidate.get();
      break;
    }
  }
  if (job == nullptr) {
    return Status::NotFound("unknown job " + std::to_string(id));
  }
  cv_.wait(lock,
           [job] { return job->state == "done" || job->state == "failed"; });
  return *job;
}

std::vector<CoordJobInfo> Coordinator::Jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CoordJobInfo> out;
  out.reserve(jobs_.size());
  for (const auto& job : jobs_) out.push_back(*job);
  return out;
}

void Coordinator::Stop() {
  std::thread scheduler;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && !scheduler_.joinable()) return;
    stopping_ = true;
    if (active_run_ != nullptr) {
      std::lock_guard<std::mutex> run_lock(active_run_->mutex);
      active_run_->FailLocked(
          Status::FailedPrecondition("the coordinator is stopping"));
    }
    // Queued jobs will never run; fail them so waiters unblock.
    for (auto& job : jobs_) {
      if (job->state == "queued") {
        job->state = "failed";
        job->status =
            Status::FailedPrecondition("the coordinator is stopping");
      }
    }
    scheduler.swap(scheduler_);
    cv_.notify_all();
  }
  if (scheduler.joinable()) scheduler.join();
}

void Coordinator::SchedulerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    CoordJobInfo* job = nullptr;
    cv_.wait(lock, [this, &job] {
      if (stopping_) return true;
      for (auto& candidate : jobs_) {
        if (candidate->state == "queued") {
          job = candidate.get();
          return true;
        }
      }
      return false;
    });
    if (stopping_ || job == nullptr) break;
    job->state = "running";
    auto run = std::make_shared<JobRun>();
    run->options = options_;
    run->query = job->query;
    run->trace_id = NextTraceId();
    active_run_ = run;
    lock.unlock();
    RunJob(*job, run);
    lock.lock();
    active_run_.reset();
    cv_.notify_all();
  }
}

void Coordinator::RunJob(CoordJobInfo& job, const std::shared_ptr<JobRun>& run) {
  WallTimer timer;
  auto finish_failed = [this, &job, &timer](Status status) {
    std::lock_guard<std::mutex> lock(mutex_);
    job.state = "failed";
    job.status = std::move(status);
    job.seconds = timer.ElapsedSeconds();
    cv_.notify_all();
  };

  // Admission + planning: every schedulable worker is probed before a
  // single chunk is cut. The first reachable one answers the planning
  // probe and fixes the reference hash; the rest answer an empty-range
  // shard probe, and any disagreement fails the job (a merge over
  // different graphs would be garbage with a valid-looking
  // fingerprint). A worker verdict (unknown graph, bad options) is
  // deterministic and fails the job too; an unreachable worker is
  // marked dead and skipped.
  std::vector<WorkerRecord> workers = pool_.Schedulable();
  if (workers.empty()) {
    finish_failed(Status::FailedPrecondition(
        "no schedulable worker (register at least one `serve --listen` "
        "endpoint)"));
    return;
  }
  Probe probe;
  std::string reference_endpoint;
  Status last_transport = Status::Ok();
  for (const WorkerRecord& worker : workers) {
    Probe answer =
        ProbeWorker(worker.endpoint, run->query,
                    /*plan=*/reference_endpoint.empty(),
                    options_.io_timeout_seconds);
    if (answer.transport_failed) {
      last_transport = answer.transport_error;
      pool_.MarkDead(worker.id);
      CoordWorkersLeftTotal().Increment();
      continue;
    }
    if (!answer.verdict.ok()) {
      finish_failed(answer.verdict);
      return;
    }
    if (reference_endpoint.empty()) {
      probe = std::move(answer);
      reference_endpoint = worker.endpoint;
    } else if (answer.content_hash != probe.content_hash) {
      finish_failed(Status::FailedPrecondition(
          "graph content hash mismatch for '" + run->query.graph +
          "' between workers: " + reference_endpoint + " has " +
          HexHash(probe.content_hash) + ", " + worker.endpoint + " has " +
          HexHash(answer.content_hash) + " (mismatched snapshot?)"));
      return;
    }
  }
  if (reference_endpoint.empty()) {
    finish_failed(Status::IoError(
        "the planning probe failed on every schedulable worker (last: " +
        last_transport.ToString() + ")"));
    return;
  }
  run->content_hash = probe.content_hash;
  run->total_seeds = probe.total_seeds;

  workers = pool_.Schedulable();  // minus any the probes killed
  const uint32_t target_chunks =
      std::max<uint32_t>(1, options_.chunks_per_worker) *
      std::max<std::size_t>(1, workers.size());
  std::vector<CoordChunk> chunks =
      probe.costs.empty()
          ? PlanUniformChunks(probe.total_seeds, target_chunks)
          : PlanCostChunks(probe.costs, target_chunks);
  const bool cost_planned = !probe.costs.empty();

  {
    std::unique_lock<std::mutex> lock(run->mutex);
    for (const CoordChunk& chunk : chunks) {
      run->queue.push_back({chunk.begin, chunk.end});
    }
    // Spawn one lane per schedulable worker (an empty seed space skips
    // straight to the empty merge below).
    if (!run->queue.empty()) {
      for (const WorkerRecord& worker : workers) {
        if (run->HasLaneLocked(worker.id)) continue;
        ++run->active_lanes;
        run->laned_workers.push_back(worker.id);
        auto self = run;
        run->lane_threads.emplace_back(
            [this, self, id = worker.id, endpoint = worker.endpoint] {
              LaneMain(self, id, endpoint);
            });
      }
    }

    // Completion wait: all chunks merged, the job failed, or every
    // lane died with work left (requeues with nobody to serve them).
    for (;;) {
      if (run->failed) break;
      if (run->queue.empty() && run->in_flight.empty()) break;
      if (run->active_lanes == 0) {
        uint64_t unfinished = 0;
        for (const auto& pending : run->queue) {
          unfinished += pending.end - pending.begin;
        }
        run->FailLocked(Status::IoError(
            "every worker lane exited with " + std::to_string(unfinished) +
            " seed(s) still unassigned; register a live worker and retry"));
        break;
      }
      run->cv.wait(lock);
    }
    run->finished = true;
    run->cv.notify_all();
  }

  // Join every lane (including late joiners). New lanes cannot appear
  // past this point: AddWorker checks run->finished under run->mutex.
  std::vector<std::thread> lanes;
  {
    std::lock_guard<std::mutex> lock(run->mutex);
    lanes.swap(run->lane_threads);
  }
  for (std::thread& lane : lanes) {
    if (lane.joinable()) lane.join();
  }

  // Collect the outcome under run->mutex, then publish under mutex_.
  // Never hold both: Stop() and AddWorker() take mutex_ before
  // run->mutex, so the reverse order here would deadlock.
  bool run_failed = false;
  Status run_failure;
  bool exact = true;
  uint64_t cursor = 0;
  uint64_t total_seeds = 0;
  {
    std::lock_guard<std::mutex> run_lock(run->mutex);
    run_failed = run->failed;
    run_failure = run->failure;
    total_seeds = run->total_seeds;
    if (!run_failed) {
      // Coverage assertion: the merged spans must partition exactly
      // [0, total_seeds) — anything else means the merge algebra was
      // fed a hole or an overlap and the fingerprint would be silently
      // wrong.
      std::sort(run->covered.begin(), run->covered.end());
      for (const auto& span : run->covered) {
        if (span.first != cursor) {
          exact = false;
          break;
        }
        cursor = span.second;
      }
      if (cursor != total_seeds) exact = false;
    }
  }
  if (run_failed) {
    finish_failed(run_failure);
    return;
  }
  if (!exact) {
    finish_failed(Status::Internal(
        "merged chunk ranges do not partition the seed space (covered " +
        std::to_string(cursor) + " of " + std::to_string(total_seeds) +
        " seeds)"));
    return;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  job.state = "done";
  job.status = Status::Ok();
  job.num_plexes = run->merged.count;
  job.max_plex_size = run->merged.max_plex_size;
  job.fingerprint = run->merged.fingerprint();
  job.fingerprint_xor = run->merged.xor_hash;
  job.content_hash = run->content_hash;
  job.total_seeds = run->total_seeds;
  job.cost_planned = cost_planned;
  job.chunks = run->chunk_count;
  job.steals = run->steals;
  job.requeues = run->requeues;
  job.outcomes = std::move(run->outcomes);
  job.seconds = timer.ElapsedSeconds();
  cv_.notify_all();
}

void Coordinator::LaneMain(const std::shared_ptr<JobRun>& run,
                           uint64_t worker_id, std::string endpoint) {
  TcpClient client;
  Status connected =
      ConnectWorker(client, endpoint, run->options.io_timeout_seconds);
  std::unique_lock<std::mutex> lock(run->mutex);
  if (!connected.ok()) {
    pool_.MarkDead(worker_id);
    CoordWorkersLeftTotal().Increment();
    --run->active_lanes;
    run->laned_workers.erase(std::remove(run->laned_workers.begin(),
                                         run->laned_workers.end(), worker_id),
                             run->laned_workers.end());
    run->cv.notify_all();
    return;
  }
  run->lane_clients.push_back(&client);
  if (run->failed) client.Shutdown();  // aborted while we connected

  bool lane_alive = true;
  bool left_via_drain = false;
  while (lane_alive) {
    if (run->failed || run->finished) break;
    auto record = pool_.Get(worker_id);
    if (!record.ok() || record->state == WorkerState::kDraining ||
        record->state == WorkerState::kDead) {
      left_via_drain = record.ok() &&
                       record->state == WorkerState::kDraining;
      break;
    }
    if (!run->queue.empty()) {
      JobRun::PendingChunk chunk = run->queue.front();
      run->queue.pop_front();
      const uint64_t ticket = run->next_ticket++;
      JobRun::InFlight flight;
      flight.begin = chunk.begin;
      flight.end = chunk.end;
      flight.worker_id = worker_id;
      flight.endpoint = endpoint;
      flight.started_nanos = WallTimer::NowNanos();
      flight.steal_requested = !chunk.stealable;
      run->in_flight.emplace(ticket, flight);
      pool_.MarkBusy(worker_id);

      // ---- chunk round trip (unlocked) -------------------------------
      lock.unlock();
      Request submit_request;
      submit_request.id = ticket;
      ShardSubmitRequest submit;
      submit.query = run->query;
      submit.query.seed_begin = chunk.begin;
      submit.query.seed_end = chunk.end;
      submit.expected_hash = run->content_hash;
      submit_request.payload = std::move(submit);
      RoundTrip trip =
          RoundTripLine(client, FormatFramedRequest(submit_request));
      StatusOr<ShardSubmitResponse> submitted =
          trip.transport_failed ? StatusOr<ShardSubmitResponse>(
                                      trip.transport_error)
                                : ParseFramedShardSubmit(trip.line);
      lock.lock();

      if (trip.transport_failed || !submitted.ok()) {
        run->in_flight.erase(ticket);
        pool_.NoteChunkFailed(worker_id);
        if (!trip.transport_failed &&
            submitted.status().code() != StatusCode::kFailedPrecondition) {
          // A deterministic verdict (bad options, unknown graph): it
          // would repeat on every worker. Abort the job.
          run->FailLocked(submitted.status());
          break;
        }
        // Transport failure (the worker died) or an admission refusal
        // (this worker joined after planning, or its snapshot was
        // swapped mid-run, and it holds different graph bytes): requeue
        // the chunk for the surviving, matching lanes and retire this
        // one.
        ++run->requeues;
        CoordRequeuesTotal().Increment();
        run->queue.push_back(chunk);
        pool_.MarkDead(worker_id);
        CoordWorkersLeftTotal().Increment();
        run->cv.notify_all();
        lane_alive = false;
        break;
      }
      {
        auto it = run->in_flight.find(ticket);
        if (it != run->in_flight.end()) {
          it->second.remote_job = submitted->job;
        }
        run->cv.notify_all();  // stealers wait for remote_job
      }
      if (run->failed) break;

      lock.unlock();
      Request wait_request;
      wait_request.id = ticket;
      ShardWaitRequest wait;
      wait.job = submitted->job;
      wait_request.payload = wait;
      WallTimer chunk_timer;
      trip = RoundTripLine(client, FormatFramedRequest(wait_request));
      const double chunk_seconds = chunk_timer.ElapsedSeconds();
      StatusOr<JobSummary> result =
          trip.transport_failed
              ? StatusOr<JobSummary>(trip.transport_error)
              : ParseFramedShardResult(trip.line);
      if (!trip.transport_failed && result.ok()) {
        RecordSpan(run->trace_id, "coord_chunk", chunk_seconds,
                   &CoordChunkSeconds(),
                   {{"range", std::to_string(chunk.begin) + ":" +
                                  std::to_string(chunk.end)},
                    {"endpoint", endpoint}});
      }
      lock.lock();

      run->in_flight.erase(ticket);
      if (run->failed) break;
      if (trip.transport_failed) {
        // The worker vanished mid-chunk; its result never merged, so
        // re-running the whole range elsewhere stays exact.
        ++run->requeues;
        CoordRequeuesTotal().Increment();
        run->queue.push_back(chunk);
        pool_.NoteChunkFailed(worker_id);
        pool_.MarkDead(worker_id);
        CoordWorkersLeftTotal().Increment();
        run->cv.notify_all();
        lane_alive = false;
        break;
      }
      if (!result.ok()) {
        pool_.NoteChunkFailed(worker_id);
        run->FailLocked(result.status());
        break;
      }
      // Merges [chunk.begin, end) — a complete answer for that range.
      auto merge = [&](uint32_t end, bool yielded) {
        MergeableResult piece;
        piece.count = result->plexes;
        piece.xor_hash = result->fingerprint_xor;
        piece.max_plex_size = static_cast<std::size_t>(result->max_size);
        run->merged.Merge(piece);
        run->covered.emplace_back(chunk.begin, end);
        CoordChunkOutcome outcome;
        outcome.begin = chunk.begin;
        outcome.end = end;
        outcome.endpoint = endpoint;
        outcome.plexes = result->plexes;
        outcome.seconds = result->seconds;
        outcome.yielded = yielded;
        run->outcomes.push_back(std::move(outcome));
        ++run->chunk_count;
        CoordChunksTotal().Increment();
        pool_.NoteChunkDone(worker_id);
      };
      if (result->yielded) {
        // A stolen chunk: the prefix [begin, covered_end) is complete
        // and merges; the tail goes back on the queue for the stealer.
        if (result->covered_begin != chunk.begin ||
            result->covered_end > chunk.end) {
          run->FailLocked(Status::Internal(
              "yielded shard covered " +
              std::to_string(result->covered_begin) + ":" +
              std::to_string(result->covered_end) +
              " outside its assigned range " +
              std::to_string(chunk.begin) + ":" +
              std::to_string(chunk.end)));
          break;
        }
        const uint32_t split =
            static_cast<uint32_t>(result->covered_end);
        if (split > chunk.begin) {
          merge(split, /*yielded=*/true);
          ++run->steals;
          CoordStealsTotal().Increment();
        }
        if (split < chunk.end) {
          run->queue.push_back({split, chunk.end,
                                /*stealable=*/split > chunk.begin});
        }
      } else if (!result->IsComplete()) {
        std::string how = result->state;
        if (result->timed_out) how += ", time limit hit";
        if (result->stopped_early) how += ", result cap hit";
        if (result->cancelled && result->state == "done") how += ", cancelled";
        pool_.NoteChunkFailed(worker_id);
        run->FailLocked(Status::FailedPrecondition(
            "chunk " + std::to_string(chunk.begin) + ":" +
            std::to_string(chunk.end) + " on " + endpoint +
            " is not a complete answer (" + how + ")"));
        break;
      } else {
        merge(chunk.end, /*yielded=*/false);
      }
      pool_.MarkIdle(worker_id);
      run->cv.notify_all();
      continue;
    }
    if (run->in_flight.empty()) break;  // job drained; RunJob finishes it

    // Queue empty, chunks still running: steal from the
    // longest-running un-stolen chunk so its tail lands back on the
    // queue for this idle lane.
    if (run->options.enable_stealing) {
      uint64_t victim_ticket = 0;
      const JobRun::InFlight* victim = nullptr;
      const int64_t now = WallTimer::NowNanos();
      const int64_t min_age = static_cast<int64_t>(
          run->options.steal_min_seconds * 1e9);
      for (const auto& [ticket, flight] : run->in_flight) {
        if (flight.remote_job == 0 || flight.steal_requested) continue;
        if (now - flight.started_nanos < min_age) continue;
        if (victim == nullptr ||
            flight.started_nanos < victim->started_nanos) {
          victim = &flight;
          victim_ticket = ticket;
        }
      }
      if (victim != nullptr) {
        run->in_flight[victim_ticket].steal_requested = true;
        const std::string victim_endpoint = victim->endpoint;
        const uint64_t victim_job = victim->remote_job;
        lock.unlock();
        Status stopped = SendShardStop(victim_endpoint, victim_job,
                                       run->options.io_timeout_seconds);
        lock.lock();
        if (!stopped.ok()) {
          // The victim may have finished or died; either way its lane
          // settles the chunk. Allow future steal attempts on it.
          auto it = run->in_flight.find(victim_ticket);
          if (it != run->in_flight.end()) {
            it->second.steal_requested = false;
          }
        }
        continue;
      }
    }
    run->cv.wait_for(lock, std::chrono::milliseconds(20));
  }

  if (left_via_drain) CoordWorkersLeftTotal().Increment();
  run->lane_clients.erase(std::remove(run->lane_clients.begin(),
                                      run->lane_clients.end(), &client),
                          run->lane_clients.end());
  run->laned_workers.erase(std::remove(run->laned_workers.begin(),
                                       run->laned_workers.end(), worker_id),
                           run->laned_workers.end());
  --run->active_lanes;
  run->cv.notify_all();
}

Status ValidateCoordinatedQuery(const QueryRequest& query) {
  if (query.algo == QueryAlgo::kFp) {
    return Status::InvalidArgument(
        "the fp baseline does not support seed ranges (pick another algo)");
  }
  if (query.max_results > 0) {
    return Status::InvalidArgument(
        "max-results does not compose with a coordinated mine: each worker "
        "would stop after the cap within its own shard, so the merged total "
        "would depend on the shard split. Coordinated mines are count-exact; "
        "run a single-process mine for a truncated answer");
  }
  if (query.collect_bodies || query.chunk_size > 0) {
    return Status::InvalidArgument(
        "results=stream does not compose with a coordinated mine: shards "
        "return mergeable summaries (count + fingerprint), not plex bodies. "
        "Stream from a single worker instead");
  }
  if (query.HasFilter() || query.top_k > 0) {
    return Status::InvalidArgument(
        "server-side selection (filter/contain/top) does not compose with a "
        "coordinated mine: the merge algebra is exact only over the full "
        "result set of each shard");
  }
  if (query.maximum) {
    return Status::InvalidArgument(
        "mode=maximum does not compose with a coordinated mine: the maximum "
        "search is not seed-range partitionable. Run it against one worker");
  }
  if (query.has_cursor) {
    return Status::InvalidArgument(
        "cursor resume does not compose with a coordinated mine: cursors "
        "describe a sequential single-process enumeration order");
  }
  return Status::Ok();
}

StatusOr<std::vector<std::string>> ParseEndpointList(const std::string& list) {
  std::vector<std::string> endpoints;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string token =
        list.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!token.empty()) {
      std::string host;
      uint16_t port = 0;
      KPLEX_RETURN_IF_ERROR(SplitEndpoint(token, &host, &port));
      endpoints.push_back(token);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (endpoints.empty()) {
    return Status::InvalidArgument("endpoint list is empty");
  }
  return endpoints;
}

StatusOr<CoordJobInfo> RunCoordinatedMine(
    const QueryRequest& query, const std::vector<std::string>& endpoints,
    const CoordinatorOptions& options) {
  if (endpoints.empty()) {
    return Status::InvalidArgument("at least one worker endpoint is needed");
  }
  Coordinator coordinator(options);
  for (const std::string& endpoint : endpoints) {
    auto id = coordinator.AddWorker(endpoint);
    if (!id.ok()) return id.status();
  }
  auto id = coordinator.Submit(query);
  if (!id.ok()) return id.status();
  auto job = coordinator.Wait(*id);
  coordinator.Stop();
  if (!job.ok()) return job.status();
  if (job->state != "done") return job->status;
  return job;
}

}  // namespace kplex
