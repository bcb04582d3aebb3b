#include "service/service_session.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/timer.h"

namespace kplex {
namespace {

Counter& StreamChunksTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_stream_chunks_total");
  return counter;
}
Counter& StreamPlexesTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_stream_plexes_total");
  return counter;
}
Counter& StreamBytesTotal() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("kplex_stream_bytes_total");
  return counter;
}
Histogram& StreamWriteSeconds() {
  static Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "kplex_session_stream_write_seconds");
  return histogram;
}

}  // namespace

ServiceSession::ServiceSession(std::ostream& out, ServiceApiOptions options)
    : ServiceSession(out, std::make_shared<ServiceApi>(std::move(options))) {}

ServiceSession::ServiceSession(std::ostream& out,
                               std::shared_ptr<ServiceApi> api, bool echo)
    : WireSession(out, echo), api_(std::move(api)) {}

Response ServiceSession::Execute(const Request& request) {
  Response response = api_->Execute(
      request, [this](uint64_t job) { RecordSubmittedJob(job); });
  CountJobFailures(response);
  // Streamed delivery: a results=stream mine's plex bodies travel as
  // bounded result_chunk frames ahead of the final verdict frame.
  // Backpressure is the transport's: each chunk is a blocking write, so
  // a slow client throttles this (the session's own) thread, never a
  // dispatcher worker.
  if (const auto* mine = std::get_if<MineRequest>(&request.payload)) {
    if (mine->query.collect_bodies) {
      if (const auto* outcome = std::get_if<MineResponse>(&response.payload);
          outcome != nullptr && outcome->job.result.plexes != nullptr) {
        EmitResultChunks(request.id, mine->query, outcome->job);
      }
    }
  }
  return response;
}

void ServiceSession::EmitResultChunks(uint64_t request_id,
                                      const QueryRequest& query,
                                      const JobInfo& job) {
  const std::vector<std::vector<VertexId>>& plexes = *job.result.plexes;
  const uint32_t chunk_size =
      query.chunk_size > 0 ? query.chunk_size : kDefaultResultChunkSize;
  uint64_t seq = 0;
  std::size_t offset = 0;
  WallTimer timer;
  // An empty result still sends one empty last chunk, so a streaming
  // client always sees the chunk phase terminate explicitly.
  do {
    const std::size_t take =
        std::min<std::size_t>(chunk_size, plexes.size() - offset);
    ResultChunkResponse chunk;
    chunk.job = job.id;
    chunk.seq = seq++;
    chunk.plexes.assign(plexes.begin() + static_cast<std::ptrdiff_t>(offset),
                        plexes.begin() +
                            static_cast<std::ptrdiff_t>(offset + take));
    offset += take;
    chunk.last = offset == plexes.size();
    const uint64_t plex_count = chunk.plexes.size();
    Response response;
    response.request_id = request_id;
    response.payload = std::move(chunk);
    const std::size_t bytes = Write(response);
    StreamChunksTotal().Increment();
    StreamPlexesTotal().Increment(plex_count);
    StreamBytesTotal().Increment(bytes);
  } while (offset < plexes.size());
  StreamWriteSeconds().Observe(timer.ElapsedSeconds());
}

void ServiceSession::RecordSubmittedJob(uint64_t id) {
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    submitted_jobs_.push_back(id);
    if (!abandoned_) return;
  }
  // The disconnect watcher already swept this session's jobs while the
  // submit was in flight; this one would otherwise run unattended.
  (void)api_->dispatcher().Cancel(id);
}

void ServiceSession::CountJobFailures(const Response& response) {
  const JobInfo* job = nullptr;
  if (const auto* mine = std::get_if<MineResponse>(&response.payload)) {
    job = &mine->job;
  } else if (const auto* shard =
                 std::get_if<ShardResultResponse>(&response.payload)) {
    job = &shard->job;
  } else if (const auto* wait = std::get_if<WaitResponse>(&response.payload)) {
    job = &wait->job;
  } else if (const auto* all =
                 std::get_if<WaitAllResponse>(&response.payload)) {
    for (uint64_t id : all->failed_jobs) CountFailedJob(id);
  }
  if (job != nullptr && job->state == JobState::kFailed) {
    CountFailedJob(job->id);
  }
}

void ServiceSession::CountFailedJob(uint64_t id) {
  if (counted_failed_jobs_.insert(id).second) CountError();
}

uint64_t ServiceSession::RunScript(std::istream& in) {
  std::string line;
  while (std::getline(in, line)) {
    if (!ExecuteLine(line)) break;
  }
  // Sweep failures of jobs nobody waited on: the batch exit code must
  // not depend on whether the script bothered to view results. Jobs
  // still running here are cancelled by the dispatcher destructor, not
  // counted as failures.
  for (const JobInfo& info : api_->dispatcher().Jobs()) {
    if (info.state == JobState::kFailed) CountFailedJob(info.id);
  }
  return errors();
}

void ServiceSession::CancelOutstandingJobs() {
  std::vector<uint64_t> jobs;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    abandoned_ = true;
    jobs = submitted_jobs_;
  }
  ServiceDispatcher& dispatcher = api_->dispatcher();
  for (uint64_t id : jobs) {
    auto info = dispatcher.GetJob(id);
    if (info.ok() && (info->state == JobState::kQueued ||
                      info->state == JobState::kRunning)) {
      (void)dispatcher.Cancel(id);  // lost races with completion are fine
    }
  }
}

}  // namespace kplex
