// serve_mix driver of the benchmark.
//
//   perfbench_serve prepare --workdir DIR --seed S
//       writes the seeded input graphs and the server's preload script
//       (graph loads plus the store and cache fill).
//   perfbench_serve load --port P --workdir DIR --seed S --seconds X
//       drives a running `kplex_cli serve --listen` in a closed loop over
//       two connections (one text, one framed), checks every reply
//       against an in-process reference and scrapes the `metrics` verb
//       before and after. Then it re-asks the text connection's
//       signatures over the framed codec to check their fingerprints.
//   perfbench_serve replay --workdir DIR --seed S --seconds X
//       the traced counterpart: the same request sequence through an
//       in-process ServiceSession (no transport), plus the protocol
//       codecs timed on the recorded requests and responses.
//
// Request mix (per connection, in shuffled blocks of 20 so every run
// carries the same proportions): 14 `hit` (count-only memory-cache
// hits), 3 `stream` (memory hits with results=stream), 2 `disk` (a
// rotation of 34 signatures per connection, more than the cache holds,
// so each misses memory and is served by the result store) and 1 `cold`
// (cache=off, a full enumeration). One block is one end-to-end
// operation: its latency is the sum of its 20 request latencies.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/enumerator.h"
#include "core/sink.h"
#include "graph/edge_list_io.h"
#include "service/protocol.h"
#include "service/service_session.h"
#include "service/tcp_client.h"
#include "util/flags.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using kplex::VertexId;

// Must match the --cache-capacity run.py starts the server with: the
// hit and stream signatures stay resident, the disk rotation cannot.
constexpr std::size_t kCacheCapacity = 24;
constexpr uint32_t kKarateVertices = 34;

enum Class { kHit = 0, kStream, kDisk, kCold, kNumClasses };
const char* const kClassNames[kNumClasses] = {"hit", "stream", "disk", "cold"};

struct Query {
  Class cls;
  std::string text;  // text-wire command line
  int ref;           // index into the reference answers
};

// ------------------------------------------------------ the signatures

// Reference answers, indexed like Signatures().
struct Answer {
  uint64_t count = 0;
  uint64_t fingerprint = 0;
  uint64_t max_size = 0;
};

struct Signature {
  std::string text;
  std::string graph;  // "wv" or "kc"
  uint32_t k, q;
  int contain;  // -1 = none
};

// 0: hit A, 1: hit B, 2: stream, 3: cold; then the disk rotations:
// connection 0 owns [4, 38), connection 1 owns [38, 72).
const std::vector<Signature>& Signatures() {
  static const std::vector<Signature> sigs = [] {
    std::vector<Signature> s = {
        {"mine wv 3 15", "wv", 3, 15, -1},
        {"mine wv 3 16", "wv", 3, 16, -1},
        {"mine wv 3 15 results=stream", "wv", 3, 15, -1},
        {"mine wv 3 15 cache=off", "wv", 3, 15, -1},
    };
    for (uint32_t conn = 0; conn < 2; ++conn) {
      const uint32_t k = conn == 0 ? 2 : 3, q = conn == 0 ? 4 : 5;
      for (uint32_t v = 0; v < kKarateVertices; ++v) {
        s.push_back({"mine kc " + std::to_string(k) + " " +
                         std::to_string(q) + " contain=" + std::to_string(v),
                     "kc", k, q, static_cast<int>(v)});
      }
    }
    return s;
  }();
  return sigs;
}

int DiskSignature(int conn, uint64_t nth) {
  return 4 + conn * kKarateVertices + static_cast<int>(nth % kKarateVertices);
}

// The request sequence of one connection: blocks of 20 shuffled by the
// seed; hit signatures drawn by the seed; disk signatures in rotation.
class Sequence {
 public:
  static constexpr int kBlockSize = 20;

  Sequence(uint64_t seed, int conn)
      : rng_(seed * 0x9e3779b97f4a7c15ULL + 1 + conn), conn_(conn) {}

  Query Next() {
    if (pos_ == block_.size()) Refill();
    const Class cls = block_[pos_++];
    int ref = 0;
    switch (cls) {
      case kHit: ref = static_cast<int>(rng_.NextBounded(2)); break;
      case kStream: ref = 2; break;
      case kCold: ref = 3; break;
      default: ref = DiskSignature(conn_, disk_++); break;
    }
    return {cls, Signatures()[ref].text, ref};
  }

 private:
  void Refill() {
    block_.assign(14, kHit);
    block_.insert(block_.end(), 3, kStream);
    block_.insert(block_.end(), 2, kDisk);
    block_.push_back(kCold);
    for (std::size_t i = block_.size(); i > 1; --i) {
      std::swap(block_[i - 1], block_[rng_.NextBounded(i)]);
    }
    pos_ = 0;
  }

  kplex::Rng rng_;
  int conn_;
  std::vector<Class> block_;
  std::size_t pos_ = 0;
  uint64_t disk_ = 0;
};

std::string GraphPath(const std::string& workdir, const std::string& name) {
  return workdir + "/" + name + ".txt";
}

// The preload script: graph loads, then the store fill (disk rotations
// interleaved so the first-requested are the least recent), then the
// memory-resident hit and stream signatures.
std::vector<std::string> PreloadLines(const std::string& workdir) {
  std::vector<std::string> lines = {"load wv " + GraphPath(workdir, "wv"),
                                    "load kc " + GraphPath(workdir, "kc")};
  for (uint64_t i = 0; i < kKarateVertices; ++i) {
    for (int conn = 0; conn < 2; ++conn) {
      lines.push_back(Signatures()[DiskSignature(conn, i)].text);
    }
  }
  lines.push_back(Signatures()[2].text);
  lines.push_back(Signatures()[1].text);
  lines.push_back(Signatures()[0].text);
  return lines;
}

// ------------------------------------------------------ reference

// The answers of the base cells (graph, k, q without a contain= filter)
// are reported by dataset name, so run.py can pin them to expected.json.
struct Reference {
  std::vector<Answer> answers;  // indexed like Signatures()
  std::map<std::string, Answer> cells;
};

const char* DatasetOf(const std::string& graph) {
  return graph == "wv" ? "wiki-vote-syn" : "karate";
}

Reference ComputeReference(const std::string& workdir, std::string* error) {
  std::map<std::string, kplex::Graph> graphs;
  for (const char* name : {"wv", "kc"}) {
    auto g = kplex::LoadEdgeList(GraphPath(workdir, name));
    if (!g.ok()) {
      *error = g.status().ToString();
      return {};
    }
    graphs.emplace(name, std::move(*g));
  }
  // One collecting run per (graph, k, q); contain= filters are applied
  // here, independently of the server's filter code.
  std::map<std::string, std::vector<std::vector<VertexId>>> bodies;
  Reference ref;
  for (const Signature& sig : Signatures()) {
    const std::string cell = std::string(DatasetOf(sig.graph)) + "/" +
                             std::to_string(sig.k) + "/" +
                             std::to_string(sig.q);
    if (!bodies.count(cell)) {
      kplex::CollectingSink sink;
      auto r = kplex::EnumerateMaximalKPlexes(
          graphs.at(sig.graph), kplex::EnumOptions::Ours(sig.k, sig.q), sink);
      if (!r.ok()) {
        *error = r.status().ToString();
        return {};
      }
      bodies[cell] = sink.Results();
      kplex::HashingSink base;
      for (const auto& plex : bodies[cell]) base.Emit(plex);
      ref.cells[cell] = {base.count(), base.fingerprint(), 0};
    }
    kplex::HashingSink hash;
    Answer a;
    for (const auto& plex : bodies[cell]) {
      if (sig.contain >= 0 &&
          !std::binary_search(plex.begin(), plex.end(),
                              static_cast<VertexId>(sig.contain))) {
        continue;
      }
      hash.Emit(plex);
      a.max_size = std::max<uint64_t>(a.max_size, plex.size());
    }
    a.count = hash.count();
    a.fingerprint = hash.fingerprint();
    ref.answers.push_back(a);
  }
  return ref;
}

// ------------------------------------------------------ reply parsing

struct Reply {
  bool ok = false;
  std::string error;
  uint64_t count = 0, max_size = 0, fingerprint = 0;
  bool has_fingerprint = false;
  bool cached = false;
  // Streamed bodies, re-hashed on arrival.
  kplex::HashingSink streamed;
  uint64_t bytes = 0;
};

void HashBodies(const std::vector<std::vector<VertexId>>& plexes,
                kplex::HashingSink& sink) {
  for (const auto& p : plexes) sink.Emit(p);
}

// "chunk 3[ last]: 1 2 3 | 4 5 6"
void ParseTextChunk(const std::string& line, kplex::HashingSink& sink) {
  const std::size_t colon = line.find(':');
  std::istringstream in(line.substr(colon + 1));
  std::vector<VertexId> plex;
  std::string tok;
  auto flush = [&] {
    if (!plex.empty()) sink.Emit(plex);
    plex.clear();
  };
  while (in >> tok) {
    if (tok == "|") {
      flush();
    } else {
      plex.push_back(static_cast<VertexId>(std::stoul(tok)));
    }
  }
  flush();
}

// "mined wv k=3 q=15 algo=ours: 6795 plexes, max size 17, 0.0000s [cached]"
bool ParseTextMine(const std::string& line, Reply& r) {
  unsigned long long count = 0, max_size = 0;
  const std::size_t colon = line.find(": ");
  if (line.rfind("mined ", 0) != 0 || colon == std::string::npos ||
      std::sscanf(line.c_str() + colon + 2, "%llu plexes, max size %llu",
                  &count, &max_size) != 2) {
    return false;
  }
  r.count = count;
  r.max_size = max_size;
  r.cached = line.find("[cached]") != std::string::npos;
  return true;
}

// Reads the lines of one reply: chunk lines, then the final line. The
// caller stops its clock before any of them is parsed.
kplex::Status ReadReplyLines(kplex::TcpClient& client, bool framed,
                             std::vector<std::string>& lines) {
  lines.clear();
  while (true) {
    auto line = client.ReadLine();
    if (!line.ok()) return line.status();
    const bool chunk =
        framed ? line->find("\"type\":\"result_chunk\"") != std::string::npos
               : line->rfind("chunk ", 0) == 0;
    lines.push_back(std::move(*line));
    if (!chunk) return kplex::Status::Ok();
  }
}

void ParseTextReply(const std::vector<std::string>& lines, Reply& r) {
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    ParseTextChunk(lines[i], r.streamed);
  }
  r.ok = ParseTextMine(lines.back(), r);
  if (!r.ok) r.error = lines.back();
}

void ParseFramedReply(const std::vector<std::string>& lines, Reply& r) {
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    auto chunk = kplex::ParseFramedResultChunk(lines[i]);
    if (!chunk.ok()) {
      r.error = chunk.status().ToString();
      return;
    }
    HashBodies(chunk->plexes, r.streamed);
  }
  auto mine = kplex::ParseFramedMineResult(lines.back());
  if (!mine.ok()) {
    r.error = mine.status().ToString();
    return;
  }
  r.ok = mine->state == "done";
  if (!r.ok) r.error = "state " + mine->state;
  r.count = mine->plexes;
  r.max_size = mine->max_size;
  r.fingerprint = mine->fingerprint;
  r.has_fingerprint = true;
  r.cached = mine->cached;
}

// Empty string when the reply is right.
std::string Check(const Query& q, const Reply& r, const Answer& want) {
  if (!r.ok) return "reply error: " + r.error;
  if (r.count != want.count || r.max_size != want.max_size) {
    return "count/max mismatch on '" + q.text + "'";
  }
  if (r.has_fingerprint && r.fingerprint != want.fingerprint) {
    return "fingerprint mismatch on '" + q.text + "'";
  }
  if (q.cls == kStream && (r.streamed.count() != want.count ||
                           r.streamed.fingerprint() != want.fingerprint)) {
    return "streamed bodies do not re-hash to the reference on '" + q.text +
           "'";
  }
  if (r.cached != (q.cls != kCold)) {
    return std::string("unexpected cache state on '") + q.text + "'";
  }
  return "";
}

// ------------------------------------------------------ metrics scrape

struct Series {
  double value = 0;  // counters and gauges
  double count = 0, sum = 0;  // histograms
};

kplex::StatusOr<std::map<std::string, Series>> Scrape(uint16_t port) {
  kplex::TcpClient client;
  KPLEX_RETURN_IF_ERROR(client.Connect("127.0.0.1", port, 30));
  KPLEX_RETURN_IF_ERROR(client.SendLine("metrics"));
  auto header = client.ReadLine();
  if (!header.ok()) return header.status();
  unsigned n = 0;
  if (std::sscanf(header->c_str(), "metrics %u series", &n) != 1) {
    return kplex::Status::Internal("bad metrics header: " + *header);
  }
  std::map<std::string, Series> out;
  for (unsigned i = 0; i < n; ++i) {
    auto line = client.ReadLine();
    if (!line.ok()) return line.status();
    std::istringstream in(*line);
    std::string kind, name, tok;
    in >> kind >> name;
    Series s;
    if (kind == "histogram") {
      while (in >> tok) {
        if (tok.rfind("count=", 0) == 0) s.count = std::stod(tok.substr(6));
        if (tok.rfind("sum=", 0) == 0) s.sum = std::stod(tok.substr(4));
      }
    } else {
      in >> s.value;
    }
    out[name] = s;
  }
  client.SendLine("quit");
  return out;
}

// ------------------------------------------------------ load

struct Lane {
  std::vector<double> ms[kNumClasses];
  std::vector<double> block_ms;  // completed blocks without a failure
  uint64_t attempted = 0, failed = 0;
  uint64_t stream_bytes = 0;
  double stream_seconds = 0;
  std::vector<std::string> failures;  // the first few

  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 5) failures.push_back(why);
  }
};

kplex::Status Open(kplex::TcpClient& client, uint16_t port, bool framed) {
  KPLEX_RETURN_IF_ERROR(client.Connect("127.0.0.1", port, 60));
  if (!framed) return kplex::Status::Ok();
  KPLEX_RETURN_IF_ERROR(client.SendLine("hello mode=framed"));
  return client.ReadLine().status();
}

// Sends one request and reads its whole reply. `seconds` runs from the
// send to the last reply line, before any of it is parsed.
kplex::Status Exchange(kplex::TcpClient& client, bool framed, const Query& q,
                       uint64_t id, Reply& r, double* seconds) {
  std::string line = q.text;
  if (framed) {
    auto req = kplex::ParseTextRequest(q.text);
    if (!req.ok()) return req.status();
    req->id = id;
    line = kplex::FormatFramedRequest(*req);
  }
  std::vector<std::string> lines;
  const double t0 = Now();
  KPLEX_RETURN_IF_ERROR(client.SendLine(line));
  KPLEX_RETURN_IF_ERROR(ReadReplyLines(client, framed, lines));
  *seconds = Now() - t0;
  for (const std::string& l : lines) r.bytes += l.size() + 1;
  if (framed) {
    ParseFramedReply(lines, r);
  } else {
    ParseTextReply(lines, r);
  }
  return kplex::Status::Ok();
}

void DriveLane(uint16_t port, int conn, uint64_t seed, double deadline,
               const std::vector<Answer>& ref, Lane& lane) {
  const bool framed = conn == 1;
  kplex::TcpClient client;
  if (kplex::Status st = Open(client, port, framed); !st.ok()) {
    ++lane.attempted;
    lane.Fail("connect: " + st.ToString());
    return;
  }
  Sequence seq(seed, conn);
  uint64_t id = 0;
  int in_block = 0;
  double block_ms = 0;
  bool block_clean = true;
  auto end_request = [&](double ms, bool ok) {
    block_ms += ms;
    block_clean = block_clean && ok;
    if (++in_block < Sequence::kBlockSize) return;
    if (block_clean) lane.block_ms.push_back(block_ms);
    in_block = 0;
    block_ms = 0;
    block_clean = true;
  };
  while (Now() < deadline) {
    const Query q = seq.Next();
    ++lane.attempted;
    Reply r;
    double dt = 0;
    if (kplex::Status st = Exchange(client, framed, q, ++id, r, &dt);
        !st.ok()) {
      lane.Fail("exchange: " + st.ToString());
      break;
    }
    const std::string why = Check(q, r, ref[q.ref]);
    end_request(dt * 1e3, why.empty());
    if (!why.empty()) {
      lane.Fail(why);
      if (!r.ok) break;  // the connection may be out of step
      continue;
    }
    lane.ms[q.cls].push_back(dt * 1e3);
    if (q.cls == kStream) {
      lane.stream_bytes += r.bytes;
      lane.stream_seconds += dt;
    }
  }
  client.SendLine("quit");
}

// Text replies carry no fingerprint, so the text connection checks them
// by count and max size. After the measured window, every signature it
// asked for is asked again over the framed codec and checked by
// fingerprint -- apart from the stream, whose bodies it re-hashed, and
// the cold mine, which the framed connection also runs.
void RecheckTextSignatures(uint16_t port, const std::vector<Answer>& ref,
                           Lane& lane) {
  kplex::TcpClient client;
  if (kplex::Status st = Open(client, port, true); !st.ok()) {
    ++lane.attempted;
    lane.Fail("connect: " + st.ToString());
    return;
  }
  std::vector<Query> queries = {{kHit, Signatures()[0].text, 0},
                                {kHit, Signatures()[1].text, 1}};
  for (uint64_t v = 0; v < kKarateVertices; ++v) {
    const int sig = DiskSignature(0, v);
    queries.push_back({kDisk, Signatures()[sig].text, sig});
  }
  uint64_t id = 0;
  for (const Query& q : queries) {
    ++lane.attempted;
    Reply r;
    double dt = 0;
    const kplex::Status st = Exchange(client, true, q, ++id, r, &dt);
    const std::string why = st.ok() ? Check(q, r, ref[q.ref]) : st.ToString();
    if (!why.empty()) lane.Fail("framed re-check: " + why);
    if (!st.ok()) break;
  }
  client.SendLine("quit");
}

double Delta(const std::map<std::string, Series>& a,
             const std::map<std::string, Series>& b, const std::string& name,
             bool sum = false) {
  auto get = [&](const std::map<std::string, Series>& m) {
    auto it = m.find(name);
    if (it == m.end()) return 0.0;
    return sum ? it->second.sum : (it->second.count > 0 ? it->second.count
                                                        : it->second.value);
  };
  return get(b) - get(a);
}

// Mean of a histogram over the scrape interval, in milliseconds.
double DeltaMeanMs(const std::map<std::string, Series>& a,
                   const std::map<std::string, Series>& b,
                   const std::string& name) {
  const double n = Delta(a, b, name);
  return n > 0 ? Delta(a, b, name, true) / n * 1e3 : 0.0;
}

int Load(uint16_t port, const std::string& workdir, uint64_t seed,
         double seconds) {
  std::string error;
  const Reference reference = ComputeReference(workdir, &error);
  const std::vector<Answer>& ref = reference.answers;
  if (ref.empty()) {
    std::fprintf(stderr, "reference failed: %s\n", error.c_str());
    return 1;
  }
  auto before = Scrape(port);
  if (!before.ok()) {
    std::fprintf(stderr, "metrics scrape failed: %s\n",
                 before.status().ToString().c_str());
    return 1;
  }
  Lane lanes[2];
  const double start = Now();
  const double deadline = start + seconds;
  {
    std::thread text(DriveLane, port, 0, seed, deadline, std::cref(ref),
                     std::ref(lanes[0]));
    std::thread framed(DriveLane, port, 1, seed, deadline, std::cref(ref),
                       std::ref(lanes[1]));
    text.join();
    framed.join();
  }
  const double elapsed = Now() - start;
  auto after = Scrape(port);
  if (!after.ok()) {
    std::fprintf(stderr, "metrics scrape failed: %s\n",
                 after.status().ToString().c_str());
    return 1;
  }
  Lane recheck;
  RecheckTextSignatures(port, ref, recheck);

  Lane total;
  std::vector<double> all;
  for (const Lane* lane : {&lanes[0], &lanes[1], &recheck}) {
    total.block_ms.insert(total.block_ms.end(), lane->block_ms.begin(),
                          lane->block_ms.end());
    total.attempted += lane->attempted;
    total.failed += lane->failed;
    total.stream_bytes += lane->stream_bytes;
    total.stream_seconds += lane->stream_seconds;
    for (const auto& f : lane->failures) total.failures.push_back(f);
    for (int c = 0; c < kNumClasses; ++c) {
      total.ms[c].insert(total.ms[c].end(), lane->ms[c].begin(),
                         lane->ms[c].end());
      all.insert(all.end(), lane->ms[c].begin(), lane->ms[c].end());
    }
  }
  // The disk class must be served by the store, once per request.
  const double store_hits =
      Delta(*before, *after, "kplex_store_hits_total");
  if (static_cast<uint64_t>(store_hits) != total.ms[kDisk].size()) {
    total.Fail("store hits " +
               std::to_string(static_cast<uint64_t>(store_hits)) +
               " != disk requests " + std::to_string(total.ms[kDisk].size()));
  }
  const double cache_hits =
      Delta(*before, *after, "kplex_engine_cache_hits_total");
  const double cache_misses =
      Delta(*before, *after, "kplex_engine_cache_misses_total");

  JsonObject classes;
  for (int c = 0; c < kNumClasses; ++c) {
    JsonObject o;
    o.Int("n", total.ms[c].size()).Num("p50_ms", Median(total.ms[c]));
    classes.Raw(kClassNames[c], o.str());
  }
  JsonObject cells;
  for (const auto& [cell, answer] : reference.cells) {
    cells.Raw(cell, JsonObject()
                        .Int("count", answer.count)
                        .Str("fingerprint", Hex(answer.fingerprint))
                        .str());
  }
  std::string failures = "[";
  for (std::size_t i = 0; i < total.failures.size(); ++i) {
    JsonObject f;
    f.Str("why", total.failures[i]);
    failures += (i ? "," : "") + f.str();
  }
  failures += "]";
  JsonObject doc;
  doc.Raw("host", HostJson(2))
      .Int("attempted", total.attempted)
      .Int("failed", total.failed)
      .Raw("failures", failures)
      .Raw("reference", cells.str())
      .Num("elapsed_s", elapsed)
      .Int("completed", all.size())
      .Raw("latency_ms", NumList(all))
      .Raw("block_ms", NumList(total.block_ms))
      .Raw("classes", classes.str())
      .Num("stream_mb_per_s",
           total.stream_seconds > 0
               ? total.stream_bytes / total.stream_seconds / 1e6
               : 0.0)
      .Num("store_hits", store_hits)
      .Num("store_misses", Delta(*before, *after, "kplex_store_misses_total"))
      .Num("store_read_ms",
           DeltaMeanMs(*before, *after, "kplex_stage_store_read_seconds"))
      .Num("cache_hit_frac", cache_hits + cache_misses > 0
                                 ? cache_hits / (cache_hits + cache_misses)
                                 : 0.0)
      .Num("queue_wait_ms", DeltaMeanMs(*before, *after,
                                        "kplex_dispatcher_queue_wait_seconds"))
      .Num("stream_write_ms",
           DeltaMeanMs(*before, *after, "kplex_session_stream_write_seconds"));
  std::printf("%s\n", doc.str().c_str());
  return 0;
}

// ------------------------------------------------------ replay

// Accepts and discards everything, so formatting work is still done.
class NullBuf : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

// Mean microseconds of `fn` over `items`, cycled for at least `seconds`.
template <typename T, typename Fn>
double MeanMicros(const std::vector<T>& items, double seconds, Fn fn) {
  uint64_t calls = 0;
  const double start = Now();
  do {
    for (const T& item : items) fn(item);
    calls += items.size();
  } while (Now() - start < seconds);
  return (Now() - start) / static_cast<double>(calls) * 1e6;
}

int Replay(const std::string& workdir, uint64_t seed, double seconds) {
  NullBuf null_buf;
  std::ostream null_out(&null_buf);
  auto api = std::make_shared<kplex::ServiceApi>(kplex::ServiceApiOptions{
      0, kCacheCapacity, 2, workdir + "/replay_store", 0});
  if (!api->store_status().ok()) {
    std::fprintf(stderr, "replay store: %s\n",
                 api->store_status().ToString().c_str());
    return 1;
  }
  kplex::ServiceSession session(null_out, api);
  for (const std::string& line : PreloadLines(workdir)) {
    session.ExecuteLine(line);
  }
  if (session.errors() != 0) {
    std::fprintf(stderr, "replay preload failed\n");
    return 1;
  }

  // Same sequences as the live connections, interleaved.
  Sequence seqs[2] = {Sequence(seed, 0), Sequence(seed, 1)};
  std::vector<double> us[kNumClasses];
  std::vector<Query> recorded;
  const double session_budget = 0.6 * seconds;
  const double start = Now();
  for (uint64_t i = 0; Now() - start < session_budget || i < 40; ++i) {
    const Query q = seqs[i % 2].Next();
    const double t0 = Now();
    session.ExecuteLine(q.text);
    us[q.cls].push_back((Now() - t0) * 1e6);
    if (recorded.size() < 200) recorded.push_back(q);
  }
  const uint64_t errors = session.errors();

  // Codecs on the recorded requests and their responses.
  std::vector<std::string> text_lines, framed_lines;
  std::vector<kplex::Response> responses;
  for (const Query& q : recorded) {
    auto req = kplex::ParseTextRequest(q.text);
    if (!req.ok()) return 1;
    text_lines.push_back(q.text);
    framed_lines.push_back(kplex::FormatFramedRequest(*req));
    if (q.cls != kCold) responses.push_back(api->Execute(*req));
  }
  // Every codec call must succeed; a failure counts as a replay error.
  uint64_t codec_failures = 0;
  const double codec_budget = 0.1 * seconds;
  const double text_parse_us =
      MeanMicros(text_lines, codec_budget, [&](const std::string& l) {
        codec_failures += !kplex::ParseTextRequest(l).ok();
      });
  const double framed_parse_us =
      MeanMicros(framed_lines, codec_budget, [&](const std::string& l) {
        codec_failures += !kplex::ParseFramedRequest(l).ok();
      });
  const double text_format_us =
      MeanMicros(responses, codec_budget, [&](const kplex::Response& r) {
        kplex::FormatTextResponse(r, null_out);
      });
  const double framed_format_us =
      MeanMicros(responses, codec_budget, [&](const kplex::Response& r) {
        codec_failures += kplex::FormatFramedResponse(r).empty();
      });
  JsonObject doc;
  doc.Int("errors", errors + codec_failures)
      .Num("text_parse_us", text_parse_us)
      .Num("framed_parse_us", framed_parse_us)
      .Num("text_format_us", text_format_us)
      .Num("framed_format_us", framed_format_us);
  for (int c = 0; c < kNumClasses; ++c) {
    doc.Num(std::string("session_") + kClassNames[c] + "_us", Median(us[c]));
  }
  std::printf("%s\n", doc.str().c_str());
  return 0;
}

int Prepare(const std::string& workdir, uint64_t seed) {
  const std::pair<const char*, const char*> inputs[] = {
      {"wv", "wiki-vote-syn"}, {"kc", "karate"}};
  for (auto [name, dataset] : inputs) {
    kplex::Status st =
        WriteSeededEdgeList(dataset, seed, GraphPath(workdir, name));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::ofstream script(workdir + "/preload.txt", std::ios::trunc);
  for (const std::string& line : PreloadLines(workdir)) script << line << "\n";
  script.close();
  return script ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr, "usage: perfbench_serve prepare|load|replay "
                       "--workdir DIR --seed S [--port P] [--seconds X]\n");
  return 2;
}

int Main(int argc, char** argv) {
  auto flags = kplex::FlagParser::Parse(argc, argv);
  if (!flags.ok() || flags->positional().size() != 1 ||
      flags->GetString("workdir", "").empty()) {
    return Usage();
  }
  auto seed = flags->GetInt("seed", 1);
  auto port = flags->GetInt("port", 0);
  auto seconds = flags->GetDouble("seconds", 10);
  if (!seed.ok() || !port.ok() || !seconds.ok() || *port < 0 ||
      *port > 65535) {
    return Usage();
  }
  const std::string mode = flags->positional()[0];
  const std::string workdir = flags->GetString("workdir", "");
  const uint64_t s = static_cast<uint64_t>(*seed);
  if (mode == "prepare") return Prepare(workdir, s);
  if (mode == "load") {
    return Load(static_cast<uint16_t>(*port), workdir, s, *seconds);
  }
  if (mode == "replay") return Replay(workdir, s, *seconds);
  std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
