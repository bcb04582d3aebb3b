#include "coord/coord_session.h"

#include <utility>
#include <variant>

#include "service/dispatcher.h"

namespace kplex {
namespace {

/// Shapes a coordinated job as the dispatcher JobInfo the shared
/// response formatters (and the remote-mine client decoders) already
/// understand: the merged totals land in a synthesized QueryResult
/// covering the whole seed space.
JobInfo ToJobInfo(const CoordJobInfo& job) {
  JobInfo info;
  info.id = job.id;
  info.request = job.query;
  if (job.state == "done") {
    info.state = JobState::kDone;
    info.started = true;
  } else if (job.state == "failed") {
    info.state = JobState::kFailed;
    info.started = true;
    info.status = job.status;
  } else if (job.state == "running") {
    info.state = JobState::kRunning;
    info.started = true;
  } else {
    info.state = JobState::kQueued;
  }
  QueryResult& result = info.result;
  result.num_plexes = job.num_plexes;
  result.max_plex_size = static_cast<std::size_t>(job.max_plex_size);
  result.fingerprint = job.fingerprint;
  result.fingerprint_xor = job.fingerprint_xor;
  result.total_seeds = job.total_seeds;
  result.covered_begin = 0;
  result.covered_end = static_cast<uint32_t>(job.total_seeds);
  result.seconds = job.seconds;
  result.compute_seconds = job.seconds;
  return info;
}

ErrorResponse NotACoordinatorVerb(const char* verb) {
  return ErrorResponse{Status::InvalidArgument(
      std::string("'") + verb +
      "' is not a coordinator command; this endpoint schedules work "
      "across workers (connect to a `serve --listen` worker for it)")};
}

}  // namespace

CoordSession::CoordSession(std::ostream& out,
                           std::shared_ptr<Coordinator> coordinator)
    : WireSession(out), coordinator_(std::move(coordinator)) {}

Response CoordSession::Execute(const Request& request) {
  Response response;
  response.request_id = request.id;
  response.payload = std::visit(
      [this, &request](const auto& verb) -> ResponsePayload {
        if constexpr (requires { AnswerSessionVerb(verb); }) {
          return AnswerSessionVerb(verb);
        } else {
          return Schedule(request.payload);
        }
      },
      request.payload);
  return response;
}

ResponsePayload CoordSession::Schedule(const RequestPayload& payload) {
  if (const auto* mine = std::get_if<MineRequest>(&payload)) {
    auto id = coordinator_->Submit(mine->query);
    if (!id.ok()) return ErrorResponse{id.status()};
    auto job = coordinator_->Wait(*id);
    if (!job.ok()) return ErrorResponse{job.status()};
    return MineResponse{ToJobInfo(*job)};
  }
  if (const auto* submit = std::get_if<SubmitRequest>(&payload)) {
    auto id = coordinator_->Submit(submit->query);
    if (!id.ok()) return ErrorResponse{id.status()};
    return SubmitResponse{*id, submit->query};
  }
  if (const auto* wait = std::get_if<WaitRequest>(&payload)) {
    if (!wait->job.has_value()) {
      return ErrorResponse{Status::InvalidArgument(
          "the coordinator needs an explicit job id: wait ID")};
    }
    auto job = coordinator_->Wait(*wait->job);
    if (!job.ok()) return ErrorResponse{job.status()};
    return WaitResponse{ToJobInfo(*job)};
  }
  if (std::holds_alternative<JobsRequest>(payload)) {
    JobsResponse response;
    for (const CoordJobInfo& job : coordinator_->Jobs()) {
      response.jobs.push_back(ToJobInfo(job));
    }
    return response;
  }
  if (const auto* join = std::get_if<RegisterRequest>(&payload)) {
    auto id = coordinator_->AddWorker(join->endpoint);
    if (!id.ok()) return ErrorResponse{id.status()};
    return WorkerAckResponse{*id, "idle"};
  }
  if (const auto* beat = std::get_if<HeartbeatRequest>(&payload)) {
    Status alive = coordinator_->Heartbeat(beat->worker);
    if (!alive.ok()) return ErrorResponse{alive};
    auto record = [&]() -> std::string {
      for (const WorkerRecord& worker : coordinator_->Workers()) {
        if (worker.id == beat->worker) return WorkerStateName(worker.state);
      }
      return "idle";
    }();
    return WorkerAckResponse{beat->worker, record};
  }
  if (const auto* drain = std::get_if<DrainRequest>(&payload)) {
    Status draining = coordinator_->Drain(drain->worker);
    if (!draining.ok()) return ErrorResponse{draining};
    return WorkerAckResponse{drain->worker, "draining"};
  }
  if (std::holds_alternative<WorkersRequest>(payload)) {
    WorkersResponse response;
    for (const WorkerRecord& worker : coordinator_->Workers()) {
      WorkerInfo info;
      info.id = worker.id;
      info.endpoint = worker.endpoint;
      info.state = WorkerStateName(worker.state);
      info.chunks_done = worker.chunks_done;
      info.chunks_failed = worker.chunks_failed;
      response.workers.push_back(std::move(info));
    }
    return response;
  }
  return NotACoordinatorVerb(RequestVerbName(payload));
}

}  // namespace kplex
