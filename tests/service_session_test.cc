// End-to-end tests of the ServiceSession command interpreter — the same
// code path `kplex_cli serve` drives. Covers the ISSUE 1 acceptance
// demo: a script loads a graph, snapshots it, repeats a (k, q) query
// into a cache hit with an identical plex count, and snapshot reloading
// beats edge-list re-parsing.

#include "service/service_session.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/enumerator.h"
#include "core/sink.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "graph/snapshot.h"
#include "obs/metrics.h"
#include "tests/test_util.h"
#include "util/timer.h"

namespace kplex {
namespace {

using testing_util::UniqueTempPath;

// Extracts N from "... : N plexes, ..." in a `mined` output line.
uint64_t PlexCountOf(const std::string& line) {
  const std::size_t colon = line.rfind(": ");
  EXPECT_NE(colon, std::string::npos) << line;
  return std::stoull(line.substr(colon + 2));
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(ServiceSession, EndToEndScriptWithCachedRepeatQuery) {
  Graph graph = GenerateErdosRenyi(150, 0.1, 21);
  const std::string edges_path = UniqueTempPath("e2e_edges");
  const std::string snapshot_path = UniqueTempPath("e2e_snap");
  ASSERT_TRUE(SaveEdgeList(graph, edges_path).ok());

  std::ostringstream out;
  ServiceSession session(out);
  std::istringstream script(
      "# end-to-end demo script\n"
      "load web " + edges_path + "\n"
      "snapshot web " + snapshot_path + "\n"
      "load websnap " + snapshot_path + "\n"
      "mine web 2 5\n"
      "mine web 2 5\n"
      "mine websnap 2 5\n"
      "evict web\n"
      "mine web 2 5\n"
      "stats\n"
      "quit\n"
      "mine web 2 5\n");  // must never execute
  EXPECT_EQ(session.RunScript(script), 0u) << out.str();

  std::vector<std::string> mined;
  for (const auto& line : Lines(out.str())) {
    if (line.rfind("mined ", 0) == 0) mined.push_back(line);
  }
  ASSERT_EQ(mined.size(), 4u) << out.str();

  // Reference count straight from the sequential engine.
  CountingSink reference;
  ASSERT_TRUE(EnumerateMaximalKPlexes(graph, EnumOptions::Ours(2, 5),
                                      reference)
                  .ok());
  EXPECT_EQ(PlexCountOf(mined[0]), reference.count());

  // Cold, then warm with identical count.
  EXPECT_EQ(mined[0].find("[cached]"), std::string::npos) << mined[0];
  EXPECT_NE(mined[1].find("[cached]"), std::string::npos) << mined[1];
  EXPECT_EQ(PlexCountOf(mined[1]), PlexCountOf(mined[0]));

  // The snapshot-loaded copy produces the same answer (cold: different
  // catalog name means a different signature).
  EXPECT_EQ(mined[2].find("[cached]"), std::string::npos) << mined[2];
  EXPECT_EQ(PlexCountOf(mined[2]), PlexCountOf(mined[0]));

  // Result cache survives a catalog eviction of the graph.
  EXPECT_NE(mined[3].find("[cached]"), std::string::npos) << mined[3];
  EXPECT_EQ(PlexCountOf(mined[3]), PlexCountOf(mined[0]));

  EXPECT_NE(out.str().find("loaded web: "), std::string::npos);
  EXPECT_NE(out.str().find("snapshot web -> "), std::string::npos);
  EXPECT_NE(out.str().find("evicted web"), std::string::npos);
  EXPECT_NE(out.str().find("result cache: "), std::string::npos);

  std::remove(edges_path.c_str());
  std::remove(snapshot_path.c_str());
}

TEST(ServiceSession, MineShardTextFlowAndStatsHashColumn) {
  // The sharded-mining session surface: a probe reports the seed-space
  // size and content hash, disjoint shards partition the full mine's
  // count, a wrong hash is refused with both hashes in the error, and
  // `stats` reports the content hash once the admission check computed
  // it (the diagnosability satellite of ISSUE 5).
  Graph graph = GenerateErdosRenyi(150, 0.1, 21);
  std::ostringstream out;
  ServiceSession session(out);
  ASSERT_TRUE(session.catalog().RegisterGraph("g", graph).ok());

  // Before any shard work, stats shows no hash yet.
  EXPECT_TRUE(session.ExecuteLine("stats"));
  EXPECT_EQ(out.str().find("0x"), std::string::npos) << out.str();

  EXPECT_TRUE(session.ExecuteLine("mine g 2 5"));
  EXPECT_TRUE(session.ExecuteLine("mineshard g 2 5 seed-range=0:0"));
  std::vector<std::string> lines = Lines(out.str());
  const std::string probe = lines.back();
  ASSERT_EQ(probe.find("shard g k=2 q=5 algo=ours seeds=0:0: 0 plexes"),
            0u) << probe;
  // Parse "total seeds N" and "hash 0x..." out of the probe line.
  const std::size_t seeds_at = probe.find("total seeds ");
  ASSERT_NE(seeds_at, std::string::npos);
  const uint64_t total_seeds = std::stoull(probe.substr(seeds_at + 12));
  ASSERT_GT(total_seeds, 0u);
  const std::size_t hash_at = probe.find("hash 0x");
  ASSERT_NE(hash_at, std::string::npos);
  const std::string hash = probe.substr(hash_at + 5, 18);

  // Two disjoint shards carrying the right hash partition the count.
  const uint64_t half = total_seeds / 2;
  EXPECT_TRUE(session.ExecuteLine("mineshard g 2 5 seed-range=0:" +
                                  std::to_string(half) + " hash=" + hash));
  EXPECT_TRUE(session.ExecuteLine("mineshard g 2 5 seed-range=" +
                                  std::to_string(half) + ":end hash=" +
                                  hash));
  lines = Lines(out.str());
  const uint64_t full_count = PlexCountOf(lines[lines.size() - 4]);
  const uint64_t lo_count = PlexCountOf(lines[lines.size() - 2]);
  const uint64_t hi_count = PlexCountOf(lines[lines.size() - 1]);
  EXPECT_EQ(lo_count + hi_count, full_count);

  // A wrong hash is refused, and the error names both hashes.
  EXPECT_TRUE(session.ExecuteLine(
      "mineshard g 2 5 seed-range=0:5 hash=0x0000000000000001"));
  lines = Lines(out.str());
  EXPECT_EQ(lines.back().find("error: FAILED_PRECONDITION: graph content "
                              "hash mismatch for 'g'"),
            0u) << lines.back();
  EXPECT_NE(lines.back().find("0x0000000000000001"), std::string::npos);
  EXPECT_NE(lines.back().find(hash), std::string::npos);

  // And stats now reports the hash for the graph.
  EXPECT_TRUE(session.ExecuteLine("stats"));
  lines = Lines(out.str());
  bool hash_in_stats = false;
  for (const std::string& line : lines) {
    hash_in_stats = hash_in_stats ||
                    (line.rfind("g ", 0) == 0 &&
                     line.find(hash) != std::string::npos);
  }
  EXPECT_TRUE(hash_in_stats) << out.str();
  EXPECT_EQ(session.errors(), 1u);  // exactly the refused shard
}

TEST(ServiceSession, SnapshotReloadFasterThanEdgeListParse) {
  // The snapshot exists to beat re-parsing; assert it actually does on a
  // graph big enough that the margin is far from timer noise (~200k
  // edges: text parse is tens of ms, snapshot load is ~1ms).
  Graph graph = GenerateBarabasiAlbert(20000, 10, 3);
  const std::string edges_path = UniqueTempPath("timing_edges");
  const std::string snapshot_path = UniqueTempPath("timing_snap");
  ASSERT_TRUE(SaveEdgeList(graph, edges_path).ok());
  ASSERT_TRUE(SaveSnapshot(graph, snapshot_path).ok());

  // Warm the page cache once for both files, then take the best of 3.
  ASSERT_TRUE(LoadEdgeList(edges_path).ok());
  ASSERT_TRUE(LoadSnapshot(snapshot_path).ok());
  double parse_seconds = 1e9, snapshot_seconds = 1e9;
  for (int i = 0; i < 3; ++i) {
    WallTimer timer;
    ASSERT_TRUE(LoadEdgeList(edges_path).ok());
    parse_seconds = std::min(parse_seconds, timer.ElapsedSeconds());
    timer.Restart();
    ASSERT_TRUE(LoadSnapshot(snapshot_path).ok());
    snapshot_seconds = std::min(snapshot_seconds, timer.ElapsedSeconds());
  }
  EXPECT_LT(snapshot_seconds, parse_seconds)
      << "snapshot load " << snapshot_seconds << "s vs parse "
      << parse_seconds << "s";

  std::remove(edges_path.c_str());
  std::remove(snapshot_path.c_str());
}

TEST(ServiceSession, DatasetCommandLoadsRegistryGraphs) {
  std::ostringstream out;
  ServiceSession session(out);
  EXPECT_TRUE(session.ExecuteLine("dataset kc karate"));
  EXPECT_TRUE(session.ExecuteLine("mine kc 2 6"));
  EXPECT_EQ(session.errors(), 0u) << out.str();
  EXPECT_NE(out.str().find("loaded kc: 34 vertices, 78 edges"),
            std::string::npos)
      << out.str();
}

TEST(ServiceSession, ErrorsAreCountedAndSessionContinues) {
  std::ostringstream out;
  ServiceSession session(out);
  EXPECT_TRUE(session.ExecuteLine("frobnicate"));
  EXPECT_TRUE(session.ExecuteLine("load broken /no/such/file"));
  EXPECT_TRUE(session.ExecuteLine("mine nothere 2 5"));
  EXPECT_TRUE(session.ExecuteLine("mine"));
  EXPECT_EQ(session.errors(), 4u) << out.str();
  // Negative and overflowing numbers must be malformed-value errors,
  // not silently wrapped uint32 casts.
  EXPECT_TRUE(session.ExecuteLine("mine nothere -1 5"));
  EXPECT_TRUE(session.ExecuteLine("mine nothere 2 99999999999"));
  EXPECT_TRUE(session.ExecuteLine("mine nothere 2 5 threads=-2"));
  EXPECT_EQ(session.errors(), 7u) << out.str();
  // A failed load must not leave a half-registered entry behind.
  EXPECT_FALSE(session.catalog().Contains("broken"));
  // And the session still works afterwards.
  EXPECT_TRUE(session.ExecuteLine("dataset kc karate"));
  EXPECT_EQ(session.errors(), 7u) << out.str();
}

TEST(ServiceSession, OneWireRequestMovesOnlyItsOwnVerbSeries) {
  // A synchronous mine or mineshard is one request: it moves its own
  // verb's counter and latency histogram, and not the submit or wait
  // series, although it submits a job and waits for it.
  MetricsRegistry& registry = MetricsRegistry::Global();
  auto count = [&registry](const std::string& verb) {
    return registry.GetCounter("kplex_requests_" + verb + "_total").Value();
  };
  auto observed = [&registry](const std::string& verb) {
    return registry.GetHistogram("kplex_request_" + verb + "_seconds")
        .Count();
  };
  std::ostringstream out;
  ServiceSession session(out);
  ASSERT_TRUE(session.ExecuteLine("dataset kc karate"));
  for (const std::string verb : {"mine", "mineshard"}) {
    SCOPED_TRACE(verb);
    const uint64_t own = count(verb);
    const uint64_t own_seconds = observed(verb);
    const uint64_t submits = count("submit");
    const uint64_t waits = count("wait");
    ASSERT_TRUE(session.ExecuteLine(verb + " kc 2 6"));
    EXPECT_EQ(count(verb), own + 1);
    EXPECT_EQ(observed(verb), own_seconds + 1);
    EXPECT_EQ(count("submit"), submits);
    EXPECT_EQ(count("wait"), waits);
  }
  EXPECT_EQ(session.errors(), 0u) << out.str();
}

TEST(ServiceSession, MemoryBudgetFlowsThroughToCatalog) {
  ServiceApiOptions options;
  options.memory_budget_bytes = 123456;
  std::ostringstream out;
  ServiceSession session(out, options);
  EXPECT_EQ(session.catalog().MemoryBudgetBytes(), 123456u);
}

TEST(ServiceSession, WorkersFourMatchesWorkersOneJobForJob) {
  // The ISSUE 3 acceptance shape at the command-interpreter level: the
  // same submit batch over one catalog must print identical result
  // lines at --workers 4 and --workers 1 (modulo timings, which the
  // comparison strips along with completion order).
  Graph graph = GenerateErdosRenyi(150, 0.1, 33);
  const std::string edges_path = UniqueTempPath("workers_edges");
  ASSERT_TRUE(SaveEdgeList(graph, edges_path).ok());

  std::string script_text = "load g " + edges_path + "\n";
  for (uint32_t q = 4; q <= 9; ++q) {
    script_text += "submit g 2 " + std::to_string(q) + " cache=off\n";
  }
  script_text += "wait\njobs\nquit\n";

  auto run_session = [&](uint32_t workers) {
    ServiceApiOptions options;
    options.workers = workers;
    std::ostringstream out;
    ServiceSession session(out, options);
    std::istringstream script(script_text);
    EXPECT_EQ(session.RunScript(script), 0u) << out.str();
    // Keep the "done" rows of the jobs table, stripping the trailing
    // seconds column (the last whitespace-separated field) so only
    // id/query/state/plexes are compared.
    std::vector<std::string> results;
    for (const auto& line : Lines(out.str())) {
      if (line.find(" done ") == std::string::npos) continue;
      std::string row = line;
      while (!row.empty() && row.back() == ' ') row.pop_back();
      row.erase(row.find_last_of(' ') + 1);
      while (!row.empty() && row.back() == ' ') row.pop_back();
      results.push_back(row);
    }
    return results;
  };

  const std::vector<std::string> serial = run_session(1);
  const std::vector<std::string> concurrent = run_session(4);
  ASSERT_EQ(serial.size(), 6u) << "expected one jobs row per submit";
  EXPECT_EQ(serial, concurrent);

  std::remove(edges_path.c_str());
}

TEST(ServiceSession, SubmitCancelWaitJobsFlow) {
  std::ostringstream out;
  ServiceSession session(out);
  EXPECT_TRUE(session.ExecuteLine("dataset kc karate"));
  EXPECT_TRUE(session.ExecuteLine("submit kc 2 6"));
  EXPECT_TRUE(session.ExecuteLine("wait 1"));
  EXPECT_NE(out.str().find("job 1 submitted: mine kc k=2 q=6 algo=ours"),
            std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("job 1: mined kc k=2 q=6"), std::string::npos)
      << out.str();

  // Unknown job ids and malformed ids are counted errors.
  EXPECT_TRUE(session.ExecuteLine("cancel 99"));
  EXPECT_TRUE(session.ExecuteLine("wait nope"));
  EXPECT_EQ(session.errors(), 2u) << out.str();

  // A job against an unregistered graph fails at run time, and waiting
  // on it surfaces (and counts) the error.
  EXPECT_TRUE(session.ExecuteLine("submit ghost 2 6"));
  EXPECT_TRUE(session.ExecuteLine("wait 2"));
  EXPECT_EQ(session.errors(), 3u) << out.str();
  EXPECT_NE(out.str().find("job 2: error: NOT_FOUND"), std::string::npos)
      << out.str();
  // Viewing the same failure again is not another error.
  EXPECT_TRUE(session.ExecuteLine("wait 2"));
  EXPECT_EQ(session.errors(), 3u) << out.str();

  // Cancelling an already-finished job is a FAILED_PRECONDITION.
  EXPECT_TRUE(session.ExecuteLine("cancel 1"));
  EXPECT_EQ(session.errors(), 4u) << out.str();

  EXPECT_TRUE(session.ExecuteLine("wait"));
  EXPECT_NE(out.str().find("all jobs finished: 1 done, 0 cancelled, "
                           "1 failed"),
            std::string::npos)
      << out.str();
}

TEST(ServiceSession, JobRecordedAfterTheDisconnectSweepIsCancelled) {
  // A transport's disconnect watcher can sweep the session's jobs while
  // a submit is still between the dispatcher and the session's job
  // list. The job recorded after that sweep must not run on
  // unattended: a wiki-vote-syn 3/10 mine takes about a second, so
  // anything but an immediate cancel shows up as "1 done".
  std::ostringstream out;
  ServiceSession session(out);
  EXPECT_TRUE(session.ExecuteLine("dataset ws wiki-vote-syn"));
  session.CancelOutstandingJobs();
  EXPECT_TRUE(session.ExecuteLine("submit ws 3 10"));
  EXPECT_TRUE(session.ExecuteLine("wait"));
  EXPECT_NE(out.str().find("all jobs finished: 0 done, 1 cancelled, "
                           "0 failed"),
            std::string::npos)
      << out.str();
}

TEST(ServiceSession, BareWaitCountsUnviewedJobFailures) {
  // A failed job must flip the batch exit code even when no one ever
  // `wait ID`s it — the bare-wait summary counts it exactly once.
  std::ostringstream out;
  ServiceSession session(out);
  EXPECT_TRUE(session.ExecuteLine("submit ghost 2 6"));
  EXPECT_TRUE(session.ExecuteLine("wait"));
  EXPECT_EQ(session.errors(), 1u) << out.str();
  EXPECT_TRUE(session.ExecuteLine("wait 1"));
  EXPECT_EQ(session.errors(), 1u) << out.str();  // no double count
}

TEST(ServiceSession, TranscriptGoldenThroughTheProtocolAdapter) {
  // The byte-compatibility contract of the api_redesign: the text wire
  // through ParseTextRequest -> ServiceApi -> FormatTextResponse must
  // reproduce the historical session transcript exactly (timings are
  // the one nondeterministic field, normalized to <T>).
  std::ostringstream out;
  ServiceSession session(out);
  std::istringstream script(
      "# golden transcript\n"
      "dataset kc karate\n"
      "mine kc 2 6\n"
      "mine kc 2 6\n"
      "mine kc 2 6 ctcp=on\n"
      "submit kc 2 5\n"
      "wait 1\n"
      "badcmd\n"
      "evict nope\n"
      "quit\n");
  EXPECT_EQ(session.RunScript(script), 2u) << out.str();

  std::string transcript = out.str();
  // Normalize "0.0001s" -> "<T>s".
  for (std::size_t pos = transcript.find('.'); pos != std::string::npos;
       pos = transcript.find('.', pos + 1)) {
    std::size_t start = pos;
    while (start > 0 && std::isdigit(static_cast<unsigned char>(
                            transcript[start - 1]))) {
      --start;
    }
    std::size_t end = pos + 1;
    while (end < transcript.size() &&
           std::isdigit(static_cast<unsigned char>(transcript[end]))) {
      ++end;
    }
    if (start < pos && end < transcript.size() && transcript[end] == 's') {
      transcript.replace(start, end - start, "<T>");
      pos = start;
    }
  }
  EXPECT_EQ(transcript,
            "loaded kc: 34 vertices, 78 edges (dataset karate)\n"
            "mined kc k=2 q=6 algo=ours: 1 plexes, max size 6, <T>s\n"
            "mined kc k=2 q=6 algo=ours: 1 plexes, max size 6, <T>s "
            "[cached]\n"
            "mined kc k=2 q=6 algo=ours: 1 plexes, max size 6, <T>s\n"
            "job 4 submitted: mine kc k=2 q=5 algo=ours\n"
            "job 1: mined kc k=2 q=6 algo=ours: 1 plexes, max size 6, "
            "<T>s\n"
            "error: INVALID_ARGUMENT: unknown command 'badcmd' (try "
            "'help')\n"
            "error: NOT_FOUND: no graph named 'nope' is registered\n");
}

TEST(ServiceSession, CtcpQueriesProduceTheSameAnswerUnderTheirOwnKey) {
  // ctcp=on runs the CTCP reduction (same result set) and caches under
  // a distinct signature, so it can be benchmarked against the plain
  // pipeline without evicting its entries. The golden test above
  // asserts the plex count matches; here the cache accounting.
  std::ostringstream out;
  ServiceSession session(out);
  EXPECT_TRUE(session.ExecuteLine("dataset kc karate"));
  EXPECT_TRUE(session.ExecuteLine("mine kc 2 6"));
  EXPECT_TRUE(session.ExecuteLine("mine kc 2 6 ctcp=on"));
  EXPECT_TRUE(session.ExecuteLine("mine kc 2 6 ctcp=on"));
  EXPECT_EQ(session.errors(), 0u) << out.str();
  const QueryEngine::CacheStats stats = session.engine().cache_stats();
  EXPECT_EQ(stats.entries, 2u);  // plain and ctcp cached separately
  EXPECT_EQ(stats.hits, 1u);     // the ctcp repeat
  // Both pipelines count the same single 6-vertex 2-plex.
  EXPECT_EQ(Lines(out.str()).size(), 4u) << out.str();
  EXPECT_NE(out.str().find("[cached]"), std::string::npos);
}

TEST(ServiceSession, HelloSwitchesWireModesMidSession) {
  std::ostringstream out;
  ServiceSession session(out);
  EXPECT_TRUE(session.ExecuteLine("dataset kc karate"));
  EXPECT_EQ(session.mode(), WireMode::kText);

  // The handshake response is already framed.
  EXPECT_TRUE(session.ExecuteLine("hello proto=7 mode=framed"));
  EXPECT_EQ(session.mode(), WireMode::kFramed);
  std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 2u) << out.str();
  // Version negotiation: min(7, kProtocolVersion).
  EXPECT_EQ(lines[1],
            "{\"id\":0,\"ok\":true,\"type\":\"hello\",\"proto\":6,"
            "\"mode\":\"framed\"}");

  // Framed request with a correlation id; the response echoes it.
  EXPECT_TRUE(session.ExecuteLine(
      "{\"id\":12,\"cmd\":\"mine\",\"graph\":\"kc\",\"k\":2,\"q\":6}"));
  lines = Lines(out.str());
  ASSERT_EQ(lines.size(), 3u) << out.str();
  EXPECT_EQ(lines[2].find("{\"id\":12,\"ok\":true,\"type\":\"mine\""), 0u)
      << lines[2];
  EXPECT_NE(lines[2].find("\"plexes\":1"), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("\"fingerprint\":\"0x"), std::string::npos)
      << lines[2];

  // Malformed frames are framed errors (counted, session continues).
  EXPECT_TRUE(session.ExecuteLine("not json"));
  EXPECT_EQ(session.errors(), 1u);
  lines = Lines(out.str());
  EXPECT_EQ(lines.back().find("{\"id\":0,\"ok\":false,\"type\":\"error\","
                              "\"code\":\"INVALID_ARGUMENT\""),
            0u)
      << lines.back();

  // A frame that parses far enough to yield an id but fails validation
  // still answers under that id, so pipelining clients stay correlated.
  EXPECT_TRUE(session.ExecuteLine(
      "{\"id\":44,\"cmd\":\"mine\",\"graph\":\"kc\",\"k\":2,\"q\":6,"
      "\"bogus\":1}"));
  EXPECT_EQ(session.errors(), 2u);
  lines = Lines(out.str());
  EXPECT_EQ(lines.back().find("{\"id\":44,\"ok\":false"), 0u)
      << lines.back();

  // '#' is not a comment marker on the framed wire: every non-blank
  // line gets a response (a request/response client would otherwise
  // hang), and only truly blank keep-alives are tolerated.
  const std::size_t lines_before = Lines(out.str()).size();
  EXPECT_TRUE(session.ExecuteLine("   "));
  EXPECT_EQ(Lines(out.str()).size(), lines_before);
  EXPECT_TRUE(session.ExecuteLine("# not a comment here"));
  EXPECT_EQ(session.errors(), 3u);
  lines = Lines(out.str());
  ASSERT_EQ(lines.size(), lines_before + 1);
  EXPECT_EQ(lines.back().find("{\"id\":0,\"ok\":false"), 0u)
      << lines.back();

  // And back to text.
  EXPECT_TRUE(session.ExecuteLine("{\"cmd\":\"hello\",\"mode\":\"text\"}"));
  EXPECT_EQ(session.mode(), WireMode::kText);
  lines = Lines(out.str());
  EXPECT_EQ(lines.back(), "hello proto=6 mode=text");
  EXPECT_TRUE(session.ExecuteLine("evict kc"));
  lines = Lines(out.str());
  EXPECT_EQ(lines.back(), "evicted kc");

  // Framed quit ends the session with a bye frame.
  EXPECT_TRUE(session.ExecuteLine("hello mode=framed"));
  EXPECT_FALSE(session.ExecuteLine("{\"id\":9,\"cmd\":\"quit\"}"));
  lines = Lines(out.str());
  EXPECT_EQ(lines.back(), "{\"id\":9,\"ok\":true,\"type\":\"bye\"}");
}

TEST(ServiceSession, LoadErrorsNeverEchoAbsolutePaths) {
  // The structured-error path scrubs host layout out of every failure
  // a client sees: a missing absolute path is reported by basename
  // only, with the strerror-style suffix intact.
  std::ostringstream out;
  ServiceSession session(out);
  EXPECT_TRUE(
      session.ExecuteLine("load broken /no/such/secret-dir/graph.txt"));
  EXPECT_EQ(session.errors(), 1u);
  EXPECT_NE(out.str().find("error: IO_ERROR:"), std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("'graph.txt'"), std::string::npos) << out.str();
  EXPECT_EQ(out.str().find("/no/such"), std::string::npos) << out.str();
  EXPECT_EQ(out.str().find("secret-dir"), std::string::npos) << out.str();

  // A *job* failure takes a different path to the client (the Status
  // stored in JobInfo, surfaced through mine/wait/jobs) — it must be
  // scrubbed identically.
  ASSERT_TRUE(session.catalog()
                  .RegisterFile("lazy", "/no/such/secret-dir/lazy.txt")
                  .ok());
  EXPECT_TRUE(session.ExecuteLine("mine lazy 2 5"));
  EXPECT_TRUE(session.ExecuteLine("jobs"));
  EXPECT_EQ(session.errors(), 2u) << out.str();
  EXPECT_NE(out.str().find("'lazy.txt'"), std::string::npos) << out.str();
  EXPECT_EQ(out.str().find("/no/such"), std::string::npos) << out.str();
}

TEST(ServiceSession, QuitStopsTheScript) {
  std::ostringstream out;
  ServiceSession session(out);
  EXPECT_FALSE(session.ExecuteLine("quit"));
  EXPECT_FALSE(session.ExecuteLine("exit"));
  EXPECT_TRUE(session.ExecuteLine(""));
  EXPECT_TRUE(session.ExecuteLine("   # just a comment"));
  EXPECT_EQ(session.errors(), 0u);
}

}  // namespace
}  // namespace kplex
