// Protocol v1 codec tests: every request round-trips through both wire
// encodings (format -> parse -> format is the identity on the wire
// bytes), malformed frames come back as structured errors instead of
// crashes, response formatting is pinned against golden strings (the
// byte-compatibility contract of the text wire), and error sanitation
// strips absolute host paths.

#include "service/protocol.h"

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

namespace kplex {
namespace {

// ----------------------------------------------------------- round trips

/// The request corpus: one (or more) of every variant, with token-safe
/// strings (the text grammar splits on whitespace; arbitrary strings
/// are the framed codec's job) and parse-stable numeric values.
std::vector<Request> Corpus() {
  std::vector<Request> corpus;
  auto add = [&corpus](RequestPayload payload, uint64_t id = 0) {
    Request request;
    request.id = id;
    request.payload = std::move(payload);
    corpus.push_back(std::move(request));
  };

  add(HelloRequest{});
  add(HelloRequest{3, WireMode::kFramed}, 11);
  add(HelloRequest{1, WireMode::kText});
  add(LoadRequest{"web", "/data/web.kpx"}, 42);
  add(DatasetRequest{"kc", "karate"});
  add(SnapshotRequest{"web", "/tmp/web.kpx", false, {}});
  add(SnapshotRequest{"web", "/tmp/web.kpx", true, {}});
  add(SnapshotRequest{"web", "/tmp/web.kpx", true, {4, 8, 10}}, 7);

  MineRequest defaults;
  defaults.query.graph = "web";
  defaults.query.k = 2;
  defaults.query.q = 12;
  add(defaults);

  MineRequest loaded;
  loaded.query.graph = "web";
  loaded.query.k = 3;
  loaded.query.q = 9;
  loaded.query.algo = QueryAlgo::kListPlex;
  loaded.query.threads = 8;
  loaded.query.max_results = 1000;
  loaded.query.time_limit_seconds = 2.5;
  loaded.query.tau_ms = 0.25;
  loaded.query.use_ctcp = true;
  loaded.query.use_cache = false;
  add(loaded, 99);

  SubmitRequest submit;
  submit.query.graph = "g";
  submit.query.k = 1;
  submit.query.q = 4;
  submit.query.algo = QueryAlgo::kFp;
  add(submit, 5);

  MineRequest ranged;
  ranged.query.graph = "web";
  ranged.query.k = 2;
  ranged.query.q = 12;
  ranged.query.seed_begin = 100;
  ranged.query.seed_end = 250;
  add(ranged, 6);

  MineShardRequest shard;
  shard.query.graph = "web";
  shard.query.k = 2;
  shard.query.q = 12;
  shard.query.seed_begin = 0;
  shard.query.seed_end = 1000;
  shard.query.threads = 4;
  shard.expected_hash = 0xbe7c0cfa5f1eee74ULL;
  add(shard, 21);

  MineRequest streamed;  // the v4 streamed-selection shape, all options
  streamed.query.graph = "web";
  streamed.query.k = 2;
  streamed.query.q = 12;
  streamed.query.max_results = 50;
  streamed.query.collect_bodies = true;
  streamed.query.chunk_size = 7;
  streamed.query.filter_min_size = 13;
  streamed.query.filter_max_size = 20;
  streamed.query.has_contain = true;
  streamed.query.contain = 33;
  add(streamed, 12);

  MineRequest top;  // top=K implies bodies on the wire
  top.query.graph = "web";
  top.query.k = 2;
  top.query.q = 12;
  top.query.collect_bodies = true;
  top.query.top_k = 5;
  add(top, 13);

  MineRequest maximum;  // FindMaximumKPlex through the service stack
  maximum.query.graph = "web";
  maximum.query.k = 3;
  maximum.query.q = 2;
  maximum.query.collect_bodies = true;
  maximum.query.maximum = true;
  add(maximum, 14);

  MineRequest resumed;  // cursor resume of a truncated run
  resumed.query.graph = "web";
  resumed.query.k = 2;
  resumed.query.q = 12;
  resumed.query.max_results = 7;
  resumed.query.collect_bodies = true;
  resumed.query.has_cursor = true;
  resumed.query.cursor_seed = 17;
  resumed.query.cursor_ordinal = 4;
  add(resumed, 15);

  MineShardRequest probe;  // the coordinator's planning probe shape
  probe.query.graph = "web";
  probe.query.k = 2;
  probe.query.q = 12;
  probe.query.seed_begin = 0;
  probe.query.seed_end = 0;
  add(probe);

  MineRequest open_range;  // open upper bound ("end") + max-only filter
  open_range.query.graph = "web";
  open_range.query.k = 2;
  open_range.query.q = 12;
  open_range.query.seed_begin = 100;
  open_range.query.filter_max_size = 20;
  open_range.query.algo = QueryAlgo::kOursP;
  open_range.query.threads = 2;
  add(open_range, 17);

  add(PlanRequest{"web", 2, 12, false});
  add(PlanRequest{"web", 3, 9, true}, 18);

  ShardSubmitRequest shard_submit;  // the async work-stealing shard
  shard_submit.query.graph = "web";
  shard_submit.query.k = 2;
  shard_submit.query.q = 12;
  shard_submit.query.seed_begin = 40;
  shard_submit.query.seed_end = 80;
  shard_submit.query.use_cache = false;
  shard_submit.expected_hash = 0x00000000c0ffee00ULL;
  add(shard_submit, 19);

  ShardSubmitRequest shard_submit_unchecked;  // no admission hash
  shard_submit_unchecked.query.graph = "g";
  shard_submit_unchecked.query.k = 1;
  shard_submit_unchecked.query.q = 3;
  add(shard_submit_unchecked);

  add(ShardWaitRequest{4}, 20);
  add(ShardStopRequest{4});
  add(RegisterRequest{"127.0.0.1:7401"}, 22);
  add(HeartbeatRequest{3});
  add(DrainRequest{3}, 23);
  add(WorkersRequest{});
  add(CancelRequest{17});
  add(JobsRequest{});
  add(WaitRequest{});
  add(WaitRequest{uint64_t{12}}, 3);
  add(StatsRequest{});
  add(MetricsRequest{});
  add(MetricsRequest{"prom"}, 24);
  add(EvictRequest{"web"});
  add(StoreRequest{});
  StoreRequest evict_store;  // v6: `store evict`
  evict_store.evict = true;
  add(evict_store, 16);
  add(HelpRequest{});
  add(QuitRequest{});
  return corpus;
}

TEST(ProtocolCorpus, CoversEveryRequestPayload) {
  std::vector<bool> seen(std::variant_size_v<RequestPayload>, false);
  for (const Request& request : Corpus()) seen[request.payload.index()] = true;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "no corpus entry for RequestPayload index " << i;
  }
}

/// Wire bytes of every corpus entry, index-aligned with Corpus(): the
/// text line and the framed line. Round trips only prove format and
/// parse agree with each other; these pin the bytes themselves (field
/// order, defaults left out, number spelling).
const std::vector<std::pair<std::string, std::string>>& WireGoldens() {
  static const std::vector<std::pair<std::string, std::string>> goldens = {
      {"hello proto=6",
       "{\"cmd\":\"hello\",\"proto\":6}"},
      {"hello proto=3 mode=framed",
       "{\"id\":11,\"cmd\":\"hello\",\"proto\":3,\"mode\":\"framed\"}"},
      {"hello proto=1 mode=text",
       "{\"cmd\":\"hello\",\"proto\":1,\"mode\":\"text\"}"},
      {"load web /data/web.kpx",
       "{\"id\":42,\"cmd\":\"load\",\"name\":\"web\","
       "\"path\":\"/data/web.kpx\"}"},
      {"dataset kc karate",
       "{\"cmd\":\"dataset\",\"name\":\"kc\",\"key\":\"karate\"}"},
      {"snapshot web /tmp/web.kpx",
       "{\"cmd\":\"snapshot\",\"name\":\"web\",\"path\":\"/tmp/web.kpx\"}"},
      {"snapshot web /tmp/web.kpx precompute",
       "{\"cmd\":\"snapshot\",\"name\":\"web\",\"path\":\"/tmp/web.kpx\","
       "\"precompute\":true}"},
      {"snapshot web /tmp/web.kpx levels=4,8,10",
       "{\"id\":7,\"cmd\":\"snapshot\",\"name\":\"web\","
       "\"path\":\"/tmp/web.kpx\",\"precompute\":true,\"levels\":[4,8,10]}"},
      {"mine web 2 12",
       "{\"cmd\":\"mine\",\"graph\":\"web\",\"k\":2,\"q\":12}"},
      {"mine web 3 9 algo=listplex threads=8 max-results=1000 "
       "time-limit=2.5 tau-ms=0.25 ctcp=on cache=off",
       "{\"id\":99,\"cmd\":\"mine\",\"graph\":\"web\",\"k\":3,\"q\":9,"
       "\"algo\":\"listplex\",\"threads\":8,\"max_results\":1000,"
       "\"time_limit\":2.5,\"tau_ms\":0.25,\"ctcp\":true,\"cache\":false}"},
      {"submit g 1 4 algo=fp",
       "{\"id\":5,\"cmd\":\"submit\",\"graph\":\"g\",\"k\":1,\"q\":4,"
       "\"algo\":\"fp\"}"},
      {"mine web 2 12 seed-range=100:250",
       "{\"id\":6,\"cmd\":\"mine\",\"graph\":\"web\",\"k\":2,\"q\":12,"
       "\"seed_begin\":100,\"seed_end\":250}"},
      {"mineshard web 2 12 threads=4 seed-range=0:1000 "
       "hash=0xbe7c0cfa5f1eee74",
       "{\"id\":21,\"cmd\":\"mineshard\",\"graph\":\"web\",\"k\":2,\"q\":12,"
       "\"threads\":4,\"seed_begin\":0,\"seed_end\":1000,"
       "\"hash\":\"0xbe7c0cfa5f1eee74\"}"},
      {"mine web 2 12 max-results=50 results=stream chunk=7 filter=size>=13,"
       "size<=20 contain=33",
       "{\"id\":12,\"cmd\":\"mine\",\"graph\":\"web\",\"k\":2,\"q\":12,"
       "\"max_results\":50,\"results\":\"stream\",\"chunk\":7,"
       "\"min_size\":13,\"max_size\":20,\"contain\":33}"},
      {"mine web 2 12 results=stream top=5",
       "{\"id\":13,\"cmd\":\"mine\",\"graph\":\"web\",\"k\":2,\"q\":12,"
       "\"results\":\"stream\",\"top\":5}"},
      {"mine web 3 2 results=stream mode=maximum",
       "{\"id\":14,\"cmd\":\"mine\",\"graph\":\"web\",\"k\":3,\"q\":2,"
       "\"results\":\"stream\",\"mode\":\"maximum\"}"},
      {"mine web 2 12 max-results=7 results=stream cursor=17:4",
       "{\"id\":15,\"cmd\":\"mine\",\"graph\":\"web\",\"k\":2,\"q\":12,"
       "\"max_results\":7,\"results\":\"stream\",\"cursor\":\"17:4\"}"},
      {"mineshard web 2 12 seed-range=0:0",
       "{\"cmd\":\"mineshard\",\"graph\":\"web\",\"k\":2,\"q\":12,"
       "\"seed_begin\":0,\"seed_end\":0}"},
      {"mine web 2 12 algo=ours_p threads=2 seed-range=100:end "
       "filter=size<=20",
       "{\"id\":17,\"cmd\":\"mine\",\"graph\":\"web\",\"k\":2,\"q\":12,"
       "\"algo\":\"ours_p\",\"threads\":2,\"seed_begin\":100,"
       "\"seed_end\":4294967295,\"max_size\":20}"},
      {"plan web 2 12",
       "{\"cmd\":\"plan\",\"graph\":\"web\",\"k\":2,\"q\":12}"},
      {"plan web 3 9 ctcp",
       "{\"id\":18,\"cmd\":\"plan\",\"graph\":\"web\",\"k\":3,\"q\":9,"
       "\"ctcp\":true}"},
      {"shardsubmit web 2 12 cache=off seed-range=40:80 "
       "hash=0x00000000c0ffee00",
       "{\"id\":19,\"cmd\":\"shardsubmit\",\"graph\":\"web\",\"k\":2,"
       "\"q\":12,\"cache\":false,\"seed_begin\":40,\"seed_end\":80,"
       "\"hash\":\"0x00000000c0ffee00\"}"},
      {"shardsubmit g 1 3",
       "{\"cmd\":\"shardsubmit\",\"graph\":\"g\",\"k\":1,\"q\":3}"},
      {"shardwait 4",
       "{\"id\":20,\"cmd\":\"shardwait\",\"job\":4}"},
      {"shardstop 4",
       "{\"cmd\":\"shardstop\",\"job\":4}"},
      {"register 127.0.0.1:7401",
       "{\"id\":22,\"cmd\":\"register\",\"endpoint\":\"127.0.0.1:7401\"}"},
      {"heartbeat 3",
       "{\"cmd\":\"heartbeat\",\"worker\":3}"},
      {"drain 3",
       "{\"id\":23,\"cmd\":\"drain\",\"worker\":3}"},
      {"workers",
       "{\"cmd\":\"workers\"}"},
      {"cancel 17",
       "{\"cmd\":\"cancel\",\"job\":17}"},
      {"jobs",
       "{\"cmd\":\"jobs\"}"},
      {"wait",
       "{\"cmd\":\"wait\"}"},
      {"wait 12",
       "{\"id\":3,\"cmd\":\"wait\",\"job\":12}"},
      {"stats",
       "{\"cmd\":\"stats\"}"},
      {"metrics",
       "{\"cmd\":\"metrics\"}"},
      {"metrics format=prom",
       "{\"id\":24,\"cmd\":\"metrics\",\"format\":\"prom\"}"},
      {"evict web",
       "{\"cmd\":\"evict\",\"name\":\"web\"}"},
      {"store",
       "{\"cmd\":\"store\"}"},
      {"store evict",
       "{\"id\":16,\"cmd\":\"store\",\"evict\":true}"},
      {"help",
       "{\"cmd\":\"help\"}"},
      {"quit",
       "{\"cmd\":\"quit\"}"},
  };
  return goldens;
}

TEST(ProtocolText, FormatMatchesWireGoldens) {
  const std::vector<Request> corpus = Corpus();
  ASSERT_EQ(corpus.size(), WireGoldens().size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(FormatTextRequest(corpus[i]), WireGoldens()[i].first)
        << "corpus entry " << i;
  }
}

TEST(ProtocolFramed, FormatMatchesWireGoldens) {
  const std::vector<Request> corpus = Corpus();
  ASSERT_EQ(corpus.size(), WireGoldens().size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(FormatFramedRequest(corpus[i]), WireGoldens()[i].second)
        << "corpus entry " << i;
  }
}

TEST(ProtocolText, EveryRequestRoundTrips) {
  for (const Request& request : Corpus()) {
    const std::string wire = FormatTextRequest(request);
    auto parsed = ParseTextRequest(wire);
    ASSERT_TRUE(parsed.ok()) << wire << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->payload.index(), request.payload.index()) << wire;
    // Wire-level identity: re-formatting the parse reproduces the line.
    EXPECT_EQ(FormatTextRequest(*parsed), wire);
    // The text wire has no id channel.
    EXPECT_EQ(parsed->id, 0u) << wire;
  }
}

TEST(ProtocolFramed, EveryRequestRoundTrips) {
  for (const Request& request : Corpus()) {
    const std::string wire = FormatFramedRequest(request);
    auto parsed = ParseFramedRequest(wire);
    ASSERT_TRUE(parsed.ok()) << wire << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->payload.index(), request.payload.index()) << wire;
    EXPECT_EQ(parsed->id, request.id) << wire;
    EXPECT_EQ(FormatFramedRequest(*parsed), wire);
  }
}

TEST(ProtocolFramed, ArbitraryStringsSurviveFraming) {
  // Paths with spaces, quotes, backslashes, and control bytes cannot
  // ride the text grammar; the framed codec must carry them exactly.
  LoadRequest load;
  load.name = "weird graph";
  load.path = "/data dir/we\"ird\\file\twith\nnewline";
  Request request;
  request.payload = load;
  auto parsed = ParseFramedRequest(FormatFramedRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& round = std::get<LoadRequest>(parsed->payload);
  EXPECT_EQ(round.name, load.name);
  EXPECT_EQ(round.path, load.path);
}

// ------------------------------------------------------- malformed input

TEST(ProtocolText, MalformedLinesAreStructuredErrors) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"frobnicate", "unknown command 'frobnicate' (try 'help')"},
      {"load onlyname", "usage: load NAME PATH"},
      {"dataset a b c", "usage: dataset NAME KEY"},
      {"snapshot g", "usage: snapshot NAME PATH [precompute] "
                     "[levels=C1,C2,...]"},
      {"snapshot g p bogus", "unknown snapshot option 'bogus'"},
      {"mine", "usage: mine NAME K Q [algo=...] [threads=N] "
               "[max-results=N] [time-limit=S] [tau-ms=T] [cache=on|off] "
               "[seed-range=B:E] [results=stream|count] [chunk=N] "
               "[filter=size>=S,size<=T] [contain=V] [top=K] "
               "[mode=enumerate|maximum] [cursor=S:O]"},
      {"mine g -1 5", "malformed value for K: '-1'"},
      {"mine g 2 5 threads=-2", "malformed value for threads: '-2'"},
      // threads is capped at kMaxQueryThreads (one OS thread each).
      {"mine g 2 5 threads=1025",
       "malformed value for threads: '1025' (expected 0..1024)"},
      {"submit g 2 5 threads=4294967295",
       "malformed value for threads: '4294967295' (expected 0..1024)"},
      {"shardsubmit g 2 5 threads=99999999999",
       "malformed value for threads: '99999999999' (expected 0..1024)"},
      {"mine g 2 99999999999",
       "malformed value for Q: '99999999999' (expected 0..4294967295)"},
      {"mine g 2 5 bogus=1", "unknown mine option 'bogus'"},
      {"mine g 2 5 cache=maybe", "cache must be on or off"},
      {"mine g 2 5 ctcp=maybe", "ctcp must be on or off"},
      {"submit g 2 5 bogus=1", "unknown submit option 'bogus'"},
      {"mine g 2 5 seed-range=5",
       "seed-range must be BEGIN:END (half-open; END may be 'end'), "
       "got '5'"},
      {"mine g 2 5 seed-range=x:9", "malformed value for seed-range: 'x'"},
      {"mine g 2 5 seed-range=9:3",
       "seed-range begin must be <= end (got '9:3')"},
      {"mineshard g 2 5 hash=beef",
       "malformed value for hash: 'beef' (expected 0xHEX)"},
      {"mineshard g 2 5 hash=0xzz",
       "malformed value for hash: '0xzz' (expected 0xHEX)"},
      {"mineshard g 2 5 bogus=1", "unknown mineshard option 'bogus'"},
      {"mine g 2 5 results=maybe", "results must be stream or count"},
      {"mine g 2 5 chunk=0", "chunk must be >= 1"},
      {"mine g 2 5 chunk=999999",
       "malformed value for chunk: '999999' (expected 0..65536)"},
      {"mine g 2 5 filter=garbage",
       "malformed filter term 'garbage' (expected size>=S or size<=T)"},
      {"mine g 2 5 filter=size>=0", "filter size bound must be >= 1"},
      {"mine g 2 5 filter=size>=x", "malformed value for filter: 'x'"},
      {"mine g 2 5 filter=size>=9,size<=3",
       "filter size>=9 contradicts size<=3"},
      {"mine g 2 5 contain=x", "malformed value for contain: 'x'"},
      {"mine g 2 5 top=0", "top must be >= 1"},
      {"mine g 2 5 mode=banana", "mode must be enumerate or maximum"},
      {"mine g 2 5 cursor=7",
       "cursor must be SEED:ORDINAL (the resume token a truncated run "
       "returned), got '7'"},
      {"mine g 2 5 cursor=a:3", "malformed value for cursor: 'a'"},
      {"plan g 2", "usage: plan NAME K Q [ctcp]"},
      {"plan g 2 5 bogus", "usage: plan NAME K Q [ctcp]"},
      {"plan g 2 5 ctcp extra", "usage: plan NAME K Q [ctcp]"},
      {"plan g x 5", "malformed value for K: 'x'"},
      {"shardwait", "usage: shardwait ID"},
      {"shardwait 1 2", "usage: shardwait ID"},
      {"shardwait x", "malformed value for ID: 'x'"},
      {"shardstop", "usage: shardstop ID"},
      {"register", "usage: register HOST:PORT"},
      {"register a:1 b:2", "usage: register HOST:PORT"},
      {"heartbeat", "usage: heartbeat ID"},
      {"heartbeat -3", "malformed value for ID: '-3'"},
      {"drain", "usage: drain ID"},
      {"drain 1 2", "usage: drain ID"},
      {"metrics bogus", "usage: metrics [format=table|prom]"},
      {"shardsubmit g 2 5 hash=0xq", "malformed value for hash: '0xq' "
                                     "(expected 0xHEX)"},
      {"shardsubmit g 2 5 bogus=1", "unknown shardsubmit option 'bogus'"},
      // Durations must be finite and within [0, 1e6] (seconds for
      // time-limit, milliseconds for tau-ms): the engines turn them into
      // integer nanosecond deadlines.
      {"mine g 2 5 time-limit=inf",
       "time-limit must be a finite number in [0, 1000000], got 'inf'"},
      {"mine g 2 5 time-limit=1e300",
       "time-limit must be a finite number in [0, 1000000], got '1e+300'"},
      {"mine g 2 5 time-limit=-1",
       "time-limit must be a finite number in [0, 1000000], got '-1'"},
      {"submit g 2 5 tau-ms=nan",
       "tau-ms must be a finite number in [0, 1000000], got 'nan'"},
      {"mineshard g 2 5 tau-ms=1000001",
       "tau-ms must be a finite number in [0, 1000000], got '1000001'"},
      {"cancel", "usage: cancel ID"},
      {"cancel nope", "malformed value for ID: 'nope'"},
      {"wait 1 2", "usage: wait [ID]"},
      {"evict", "usage: evict NAME"},
      {"store sideways", "usage: store [evict]"},
      {"store evict now", "usage: store [evict]"},
      {"hello proto=x", "malformed value for proto: 'x'"},
      {"hello mode=binary", "mode must be text or framed, got 'binary'"},
      {"hello frob", "usage: hello [proto=N] [mode=text|framed]"},
  };
  for (const auto& [line, message] : cases) {
    auto parsed = ParseTextRequest(line);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_EQ(parsed.status().message(), message) << line;
  }
}

TEST(ProtocolText, ThreadsCapIsSharedByBothCodecs) {
  // Parsing only: nothing here runs a query.
  const std::string cap = std::to_string(kMaxQueryThreads);
  const std::string over = std::to_string(kMaxQueryThreads + 1);
  auto text = ParseTextRequest("mine g 2 5 threads=" + cap);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(std::get<MineRequest>(text->payload).query.threads,
            kMaxQueryThreads);
  auto framed = ParseFramedRequest(
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,\"threads\":" +
      cap + "}");
  ASSERT_TRUE(framed.ok()) << framed.status().ToString();
  EXPECT_EQ(std::get<MineRequest>(framed->payload).query.threads,
            kMaxQueryThreads);
  EXPECT_EQ(ParseTextRequest("mine g 2 5 threads=" + over).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseFramedRequest("{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,"
                               "\"q\":5,\"threads\":" + over + "}")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolFramed, MalformedFramesAreStructuredErrorsNeverCrashes) {
  const std::vector<std::string> frames = {
      "",
      "not json at all",
      "{",
      "{}",
      "[]",
      "42",
      "\"just a string\"",
      "{\"cmd\":}",
      "{\"cmd\":42}",
      "{\"cmd\":\"mine\"}",                           // missing graph/k/q
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2}",   // missing q
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":-2,\"q\":5}",
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2.5,\"q\":5}",
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,\"bogus\":1}",
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":99999999999,\"q\":5}",
      "{\"cmd\":\"load\",\"name\":\"g\"}",            // missing path
      "{\"cmd\":\"load\",\"name\":\"g\",\"path\":7}",
      "{\"cmd\":\"cancel\"}",                         // missing job
      "{\"cmd\":\"jobs\",\"extra\":true}",
      "{\"cmd\":\"nope\"}",
      "{\"id\":\"seven\",\"cmd\":\"jobs\"}",
      "{\"cmd\":\"quit\"} trailing",
      "{\"cmd\":\"quit\",}",
      "{\"cmd\" \"quit\"}",
      "{\"cmd\":\"snapshot\",\"name\":\"g\",\"path\":\"p\","
      "\"levels\":[1,\"x\"]}",
      "{\"cmd\":\"hello\",\"mode\":\"binary\"}",
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,"
      "\"seed_begin\":9,\"seed_end\":3}",            // inverted range
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,"
      "\"seed_begin\":\"x\"}",
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,"
      "\"hash\":\"0xbeef\"}",                        // hash is shard-only
      "{\"cmd\":\"mineshard\",\"graph\":\"g\",\"k\":2,\"q\":5,"
      "\"hash\":\"beef\"}",                          // missing 0x
      "{\"cmd\":\"mineshard\",\"graph\":\"g\",\"k\":2,\"q\":5,"
      "\"hash\":12}",                                // hash must be a string
      "{\"cmd\":\"mineshard\",\"graph\":\"g\"}",     // missing k/q
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,"
      "\"results\":\"maybe\"}",
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,\"chunk\":0}",
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,"
      "\"chunk\":\"seven\"}",
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,\"min_size\":0}",
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,"
      "\"min_size\":9,\"max_size\":3}",              // contradictory filter
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,\"top\":0}",
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,"
      "\"mode\":\"banana\"}",
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,"
      "\"cursor\":\"bogus\"}",                       // no SEED:ORDINAL shape
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,\"cursor\":7}",
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,"
      "\"cursor\":\"3:x\"}",
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,"
      "\"time_limit\":1e300}",                     // duration out of range
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,"
      "\"time_limit\":-1}",
      "{\"cmd\":\"submit\",\"graph\":\"g\",\"k\":2,\"q\":5,"
      "\"tau_ms\":-0.5}",
      "{\"cmd\":\"shardsubmit\",\"graph\":\"g\",\"k\":2,\"q\":5,"
      "\"tau_ms\":1000001}",
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,"
      "\"threads\":1025}",                            // above kMaxQueryThreads
      "{\"cmd\":\"mineshard\",\"graph\":\"g\",\"k\":2,\"q\":5,"
      "\"threads\":4294967295}",
      "{\"cmd\":\"submit\",\"graph\":\"g\",\"k\":2,\"q\":5,"
      "\"threads\":-1}",
      "{\"cmd\":\"store\",\"bogus\":1}",              // unknown field
      "{\"cmd\":\"store\",\"evict\":\"yes\"}",        // evict must be bool
      "{\"cmd\":\"quit\",\"cmd\"",
      "{\"a\":\"\\u12\"}",
      "{\"a\":\"\\q\"}",
      "{\"a\":\"unterminated",
      "{\"a\":truu}",
      "{\"a\":nul}",
      "{\"a\":1e}",
      std::string(64, '['),  // nesting bomb
      std::string("{\"cmd\":\"evict\",\"name\":\"") + std::string(1, '\x01') +
          "\"}",
  };
  for (const std::string& frame : frames) {
    auto parsed = ParseFramedRequest(frame);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << frame;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << frame;
      EXPECT_FALSE(parsed.status().message().empty()) << frame;
    }
  }
}

TEST(ProtocolFramed, FingerprintsAreExactUint64) {
  // 2^53-breaking values must survive the integer path (no double
  // round-trip): job ids and max_results use raw uint64.
  auto parsed = ParseFramedRequest(
      "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":5,"
      "\"max_results\":18446744073709551615}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(std::get<MineRequest>(parsed->payload).query.max_results,
            UINT64_MAX);
  // One past UINT64_MAX falls back to double and is rejected as
  // non-integer.
  EXPECT_FALSE(ParseFramedRequest("{\"cmd\":\"cancel\",\"job\":"
                                  "18446744073709551616}")
                   .ok());
}

// ------------------------------------------------------- response goldens

std::string TextOf(ResponsePayload payload) {
  Response response;
  response.payload = std::move(payload);
  std::ostringstream out;
  FormatTextResponse(response, out);
  return out.str();
}

TEST(ProtocolText, ResponseGoldens) {
  LoadResponse loaded;
  loaded.name = "web";
  loaded.num_vertices = 875713;
  loaded.num_edges = 4322051;
  loaded.load_seconds = 0.0021;
  EXPECT_EQ(TextOf(loaded),
            "loaded web: 875713 vertices, 4322051 edges (0.0021s)\n");

  LoadResponse dataset = loaded;
  dataset.name = "kc";
  dataset.num_vertices = 34;
  dataset.num_edges = 78;
  dataset.dataset_key = "karate";
  EXPECT_EQ(TextOf(dataset),
            "loaded kc: 34 vertices, 78 edges (dataset karate)\n");

  SnapshotResponse snapshot;
  snapshot.name = "web";
  snapshot.path = "/tmp/web.kpx";
  snapshot.with_precompute = true;
  EXPECT_EQ(TextOf(snapshot),
            "snapshot web -> /tmp/web.kpx (with precompute sections)\n");

  JobInfo done;
  done.id = 3;
  done.request.graph = "web";
  done.request.k = 2;
  done.request.q = 12;
  done.state = JobState::kDone;
  done.started = true;
  done.result.num_plexes = 2566;
  done.result.max_plex_size = 14;
  done.result.seconds = 1.8102;
  EXPECT_EQ(TextOf(MineResponse{done}),
            "mined web k=2 q=12 algo=ours: 2566 plexes, max size 14, "
            "1.810s\n");
  EXPECT_EQ(TextOf(WaitResponse{done}),
            "job 3: mined web k=2 q=12 algo=ours: 2566 plexes, max size 14, "
            "1.810s\n");

  JobInfo cached = done;
  cached.result.from_cache = true;
  cached.result.reduction_precomputed = true;  // suppressed when cached
  EXPECT_EQ(TextOf(MineResponse{cached}),
            "mined web k=2 q=12 algo=ours: 2566 plexes, max size 14, "
            "1.810s [cached]\n");

  JobInfo partial = done;
  partial.result.timed_out = true;
  partial.result.stopped_early = true;
  EXPECT_EQ(TextOf(MineResponse{partial}),
            "mined web k=2 q=12 algo=ours: 2566 plexes, max size 14, "
            "1.810s [time limit hit] [result cap hit]\n");

  JobInfo never_ran = done;
  never_ran.state = JobState::kCancelled;
  never_ran.started = false;
  EXPECT_EQ(TextOf(WaitResponse{never_ran}),
            "job 3: cancelled web k=2 q=12 algo=ours before it started\n");

  JobInfo failed = done;
  failed.state = JobState::kFailed;
  failed.status = Status::NotFound("no graph named 'web' is registered");
  EXPECT_EQ(TextOf(MineResponse{failed}),
            "error: NOT_FOUND: no graph named 'web' is registered\n");

  SubmitResponse submit;
  submit.job = 4;
  submit.query = done.request;
  EXPECT_EQ(TextOf(submit), "job 4 submitted: mine web k=2 q=12 algo=ours\n");

  EXPECT_EQ(TextOf(CancelResponse{4}), "cancel requested for job 4\n");
  EXPECT_EQ(TextOf(EvictResponse{"web"}), "evicted web\n");

  WaitAllResponse all;
  all.counts.done = 2;
  all.counts.cancelled = 1;
  all.counts.failed = 1;
  all.failed_jobs = {9};
  EXPECT_EQ(TextOf(all),
            "all jobs finished: 2 done, 1 cancelled, 1 failed\n");

  EXPECT_EQ(TextOf(ErrorResponse{Status::InvalidArgument("boom")}),
            "error: INVALID_ARGUMENT: boom\n");
  EXPECT_EQ(TextOf(ByeResponse{}), "");  // quit prints nothing on text

  EXPECT_EQ(TextOf(HelloResponse{}), "hello proto=6 mode=text\n");

  // v6 store verbs: status line, evict outcome, and the off state.
  StoreResponse store_status;
  store_status.info.enabled = true;
  store_status.info.entries = 3;
  store_status.info.bytes = 2048;
  store_status.info.byte_budget = 4 << 20;
  store_status.info.hits = 7;
  store_status.info.misses = 2;
  store_status.info.writes = 5;
  store_status.info.evictions = 1;
  store_status.info.corrupt_entries = 0;
  EXPECT_EQ(TextOf(store_status),
            "store: 3 entries, 2.0KiB (budget 4.0MiB), 7 hits, 2 misses, "
            "5 writes, 1 evictions, 0 corrupt\n");

  StoreResponse store_evicted = store_status;
  store_evicted.evicted = true;
  store_evicted.evicted_entries = 3;
  store_evicted.evicted_bytes = 2048;
  store_evicted.info.entries = 0;
  store_evicted.info.bytes = 0;
  store_evicted.info.evictions = 4;
  EXPECT_EQ(TextOf(store_evicted),
            "store evicted: 3 entries, 2.0KiB freed\n"
            "store: 0 entries, 0B (budget 4.0MiB), 7 hits, 2 misses, "
            "5 writes, 4 evictions, 0 corrupt\n");

  StoreResponse store_off;
  EXPECT_EQ(TextOf(store_off), "store: off\n");

  // Shard outcomes carry every number a merge needs.
  JobInfo shard_done = done;
  shard_done.request.seed_begin = 100;
  shard_done.request.seed_end = 200;
  shard_done.result.fingerprint = 0x0123456789abcdefULL;
  shard_done.result.fingerprint_xor = 0x00000000deadbeefULL;
  shard_done.result.total_seeds = 5000;
  ShardResultResponse shard;
  shard.job = shard_done;
  shard.content_hash = 0x00000000c0ffee00ULL;
  EXPECT_EQ(TextOf(shard),
            "shard web k=2 q=12 algo=ours seeds=100:200: 2566 plexes, "
            "max size 14, xor 0x00000000deadbeef, fingerprint "
            "0x0123456789abcdef, total seeds 5000, hash 0x00000000c0ffee00, "
            "1.810s\n");

  ShardResultResponse failed_shard;
  failed_shard.job = failed;
  EXPECT_EQ(TextOf(failed_shard),
            "error: NOT_FOUND: no graph named 'web' is registered\n");
}

TEST(ProtocolFramed, ResponseShape) {
  JobInfo done;
  done.id = 3;
  done.request.graph = "web";
  done.request.k = 2;
  done.request.q = 12;
  done.state = JobState::kDone;
  done.started = true;
  done.result.num_plexes = 7;
  done.result.fingerprint = 0x0123456789abcdefULL;

  Response response;
  response.request_id = 9;
  response.payload = MineResponse{done};
  const std::string frame = FormatFramedResponse(response);
  EXPECT_EQ(frame.find('\n'), std::string::npos) << frame;
  EXPECT_NE(frame.find("\"id\":9"), std::string::npos) << frame;
  EXPECT_NE(frame.find("\"ok\":true"), std::string::npos) << frame;
  EXPECT_NE(frame.find("\"type\":\"mine\""), std::string::npos) << frame;
  EXPECT_NE(frame.find("\"fingerprint\":\"0x0123456789abcdef\""),
            std::string::npos)
      << frame;

  StoreResponse store_response;
  store_response.info.enabled = true;
  store_response.info.entries = 2;
  store_response.info.bytes = 258;
  store_response.evicted = true;
  store_response.evicted_entries = 1;
  store_response.evicted_bytes = 129;
  response.payload = store_response;
  const std::string store_frame = FormatFramedResponse(response);
  EXPECT_NE(store_frame.find("\"type\":\"store\""), std::string::npos)
      << store_frame;
  EXPECT_NE(store_frame.find("\"evicted\":true"), std::string::npos)
      << store_frame;
  EXPECT_NE(store_frame.find("\"evicted_entries\":1"), std::string::npos)
      << store_frame;
  EXPECT_NE(store_frame.find("\"store\":{\"enabled\":true"),
            std::string::npos)
      << store_frame;

  // A server without --store reports the tier as disabled in stats.
  response.payload = StatsResponse{};
  EXPECT_NE(FormatFramedResponse(response)
                .find("\"store\":{\"enabled\":false}"),
            std::string::npos);

  response.payload = ErrorResponse{Status::NotFound("nope")};
  const std::string error = FormatFramedResponse(response);
  EXPECT_NE(error.find("\"ok\":false"), std::string::npos) << error;
  EXPECT_NE(error.find("\"code\":\"NOT_FOUND\""), std::string::npos)
      << error;
  EXPECT_NE(error.find("\"message\":\"nope\""), std::string::npos) << error;
}

// ------------------------------------------------------- response corpus

/// A finished job over `query` with every result field set.
JobInfo DoneJob(uint64_t id, QueryRequest query) {
  JobInfo job;
  job.id = id;
  job.request = std::move(query);
  job.state = JobState::kDone;
  job.started = true;
  job.result.num_plexes = 2566;
  job.result.max_plex_size = 14;
  job.result.fingerprint = 0x0123456789abcdefULL;
  job.result.fingerprint_xor = 0x00000000deadbeefULL;
  job.result.total_seeds = 5000;
  job.result.seconds = 1.8102;
  job.result.compute_seconds = 1.75;
  return job;
}

QueryRequest WebQuery() {
  QueryRequest query;
  query.graph = "web";
  query.k = 2;
  query.q = 12;
  return query;
}

/// The response corpus: one (or more) of every ResponsePayload
/// alternative, covering each conditional part of the framed shapes.
std::vector<Response> ResponseCorpus() {
  std::vector<Response> corpus;
  auto add = [&corpus](ResponsePayload payload, uint64_t id = 0) {
    Response response;
    response.request_id = id;
    response.payload = std::move(payload);
    corpus.push_back(std::move(response));
  };

  add(HelloResponse{});
  add(HelloResponse{2, WireMode::kFramed}, 11);
  add(LoadResponse{"web", 875713, 4322051, 0.0021, ""}, 42);
  add(LoadResponse{"kc", 34, 78, 0.5, "karate"});
  add(SnapshotResponse{"web", "/tmp/web.kpx", true}, 7);

  // The echo carries the run options and leaves the selection out.
  QueryRequest loaded = WebQuery();
  loaded.algo = QueryAlgo::kListPlex;
  loaded.threads = 8;
  loaded.max_results = 1000;
  loaded.time_limit_seconds = 2.5;
  loaded.tau_ms = 0.25;
  loaded.use_ctcp = true;
  loaded.use_cache = false;
  loaded.collect_bodies = true;
  loaded.chunk_size = 7;
  loaded.filter_min_size = 13;
  loaded.top_k = 5;
  JobInfo streamed = DoneJob(3, loaded);
  streamed.result.from_cache = true;
  streamed.result.reduction_precomputed = true;
  streamed.result.stopped_early = true;
  streamed.result.plexes =
      std::make_shared<std::vector<std::vector<VertexId>>>(
          std::vector<std::vector<VertexId>>{{1, 2}, {3, 4}, {5, 6}});
  streamed.result.has_cursor = true;
  streamed.result.cursor_seed = 17;
  streamed.result.cursor_ordinal = 4;
  add(MineResponse{streamed}, 9);

  JobInfo plain = DoneJob(4, WebQuery());
  add(MineResponse{plain});

  JobInfo empty_bodies = DoneJob(5, WebQuery());  // bodies, none found
  empty_bodies.result.num_plexes = 0;
  empty_bodies.result.max_plex_size = 0;
  empty_bodies.result.timed_out = true;
  empty_bodies.result.plexes =
      std::make_shared<std::vector<std::vector<VertexId>>>();
  add(MineResponse{empty_bodies}, 10);

  JobInfo failed;
  failed.id = 6;
  failed.request = WebQuery();
  failed.state = JobState::kFailed;
  failed.status = Status::NotFound("no graph named 'web' is registered");
  add(MineResponse{failed}, 12);

  JobInfo never_ran;
  never_ran.id = 7;
  never_ran.request = WebQuery();
  never_ran.state = JobState::kCancelled;
  add(MineResponse{never_ran});

  JobInfo cut = DoneJob(8, WebQuery());  // cancelled mid-run: partial
  cut.state = JobState::kCancelled;
  cut.result.cancelled = true;
  add(MineResponse{cut}, 13);

  add(SubmitResponse{4, loaded}, 14);

  QueryRequest ranged = WebQuery();
  ranged.seed_begin = 100;
  ranged.seed_end = 200;
  add(ShardResultResponse{DoneJob(9, ranged), 0x00000000c0ffee00ULL}, 15);

  JobInfo yielded = DoneJob(10, ranged);
  yielded.result.yielded = true;
  yielded.result.covered_begin = 100;
  yielded.result.covered_end = 140;
  add(ShardResultResponse{yielded, 0x00000000c0ffee00ULL});

  JobInfo failed_shard = failed;
  failed_shard.request = ranged;
  failed_shard.status = Status::FailedPrecondition(
      "graph content hash mismatch for 'web'");
  add(ShardResultResponse{failed_shard, 0}, 16);

  add(PlanResponse{"web", 3, 0xbe7c0cfa5f1eee74ULL, 5, {4, 0, 2}, {5, 1, 3},
                   true, 0.004},
      17);
  add(PlanResponse{"g", 0, 0x1ULL, 0, {}, {}, false, 0.5});
  add(ShardSubmitResponse{21, 0x00000000c0ffee00ULL}, 18);
  add(ShardStopResponse{21});
  add(WorkerAckResponse{3, "idle"}, 19);
  add(WorkersResponse{{{1, "127.0.0.1:7401", "busy", 4, 0},
                       {2, "127.0.0.1:7402", "dead", 1, 2}}});
  add(WorkersResponse{});
  add(ResultChunkResponse{3, 1, false, {{1, 2, 3}, {4, 5}}}, 20);
  add(ResultChunkResponse{3, 0, true, {}});
  add(CancelResponse{17});

  JobInfo running;
  running.id = 11;
  running.request = WebQuery();
  running.state = JobState::kRunning;
  running.started = true;
  add(JobsResponse{{running, plain, failed}}, 22);
  add(WaitResponse{plain});
  add(WaitAllResponse{{0, 0, 2, 1, 1}, {6}}, 23);

  StatsResponse stats;
  CatalogEntryInfo graph;
  graph.name = "kc";
  graph.source = "dataset:karate";
  graph.resident = true;
  graph.evictable = true;
  graph.num_vertices = 34;
  graph.num_edges = 78;
  graph.memory_bytes = 2048;
  graph.precompute = "none";
  graph.content_hash = 0x00000000c0ffee00ULL;
  graph.loads = 1;
  graph.last_load_seconds = 0.25;
  stats.graphs.push_back(graph);
  stats.resident_bytes = 2048;
  stats.memory_budget_bytes = 1 << 20;
  stats.cache = {3, 1, 2, 64};
  stats.jobs = {0, 1, 2, 0, 0};
  stats.workers = 2;
  add(stats);  // store off
  StoreResponse store;
  store.info = {true, 3, 2048, 4 << 20, 7, 2, 5, 1, 0};
  stats.store = store.info;
  add(stats, 24);  // store on

  MetricsResponse metrics;
  metrics.snapshot.counters = {{"kplex_requests_total", 5}};
  metrics.snapshot.gauges = {{"kplex_jobs_running", -1}};
  metrics.snapshot.histograms = {
      {"kplex_request_seconds", 2, 0.5, 0.1, 0.4, 0.4, {0.1, 1}, {1, 1, 0}}};
  add(metrics, 25);
  add(EvictResponse{"web"});
  add(store, 26);
  StoreResponse evicted = store;
  evicted.evicted = true;
  evicted.evicted_entries = 3;
  evicted.evicted_bytes = 2048;
  add(evicted);
  add(StoreResponse{});  // store off
  add(HelpResponse{});
  add(ByeResponse{}, 27);
  add(ErrorResponse{Status::InvalidArgument("usage: cancel ID")}, 28);
  return corpus;
}

TEST(ProtocolCorpus, CoversEveryResponsePayload) {
  std::vector<bool> seen(std::variant_size_v<ResponsePayload>, false);
  for (const Response& response : ResponseCorpus()) {
    seen[response.payload.index()] = true;
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "no corpus entry for ResponsePayload index " << i;
  }
}

/// The help text as the framed wire escapes it (newlines as \\n).
std::string EscapedHelpText() {
  std::string escaped;
  for (char c : TextOf(HelpResponse{})) {
    if (c == '\n') {
      escaped += "\\n";
    } else {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
  }
  return escaped;
}

/// Framed bytes of every response corpus entry, index-aligned with
/// ResponseCorpus(): key order, conditional keys, number and hex
/// spelling.
const std::vector<std::string>& ResponseWireGoldens() {
  static const std::vector<std::string> goldens = {
      "{\"id\":0,\"ok\":true,\"type\":\"hello\",\"proto\":6,"
      "\"mode\":\"framed\"}",
      "{\"id\":11,\"ok\":true,\"type\":\"hello\",\"proto\":2,"
      "\"mode\":\"framed\"}",
      "{\"id\":42,\"ok\":true,\"type\":\"load\",\"name\":\"web\","
      "\"vertices\":875713,\"edges\":4322051,\"seconds\":0.0021}",
      "{\"id\":0,\"ok\":true,\"type\":\"load\",\"name\":\"kc\","
      "\"vertices\":34,\"edges\":78,\"seconds\":0.5,\"dataset\":\"karate\"}",
      "{\"id\":7,\"ok\":true,\"type\":\"snapshot\",\"name\":\"web\","
      "\"path\":\"/tmp/web.kpx\",\"precompute\":true}",
      "{\"id\":9,\"ok\":true,\"type\":\"mine\",\"job\":3,"
      "\"query\":{\"graph\":\"web\",\"k\":2,\"q\":12,\"algo\":\"listplex\","
      "\"threads\":8,\"max_results\":1000,\"time_limit\":2.5,\"tau_ms\":0.25,"
      "\"ctcp\":true,\"cache\":false},\"state\":\"done\",\"started\":true,"
      "\"plexes\":2566,\"max_size\":14,"
      "\"fingerprint\":\"0x0123456789abcdef\",\"seconds\":1.8102,"
      "\"compute_seconds\":1.75,\"cached\":true,\"precomputed\":true,"
      "\"timed_out\":false,\"stopped_early\":true,\"cancelled\":false,"
      "\"bodies\":3,\"cursor\":\"17:4\"}",
      "{\"id\":0,\"ok\":true,\"type\":\"mine\",\"job\":4,"
      "\"query\":{\"graph\":\"web\",\"k\":2,\"q\":12,\"algo\":\"ours\"},"
      "\"state\":\"done\",\"started\":true,\"plexes\":2566,\"max_size\":14,"
      "\"fingerprint\":\"0x0123456789abcdef\",\"seconds\":1.8102,"
      "\"compute_seconds\":1.75,\"cached\":false,\"precomputed\":false,"
      "\"timed_out\":false,\"stopped_early\":false,\"cancelled\":false}",
      "{\"id\":10,\"ok\":true,\"type\":\"mine\",\"job\":5,"
      "\"query\":{\"graph\":\"web\",\"k\":2,\"q\":12,\"algo\":\"ours\"},"
      "\"state\":\"done\",\"started\":true,\"plexes\":0,\"max_size\":0,"
      "\"fingerprint\":\"0x0123456789abcdef\",\"seconds\":1.8102,"
      "\"compute_seconds\":1.75,\"cached\":false,\"precomputed\":false,"
      "\"timed_out\":true,\"stopped_early\":false,\"cancelled\":false,"
      "\"bodies\":0}",
      "{\"id\":12,\"ok\":true,\"type\":\"mine\",\"job\":6,"
      "\"query\":{\"graph\":\"web\",\"k\":2,\"q\":12,\"algo\":\"ours\"},"
      "\"state\":\"failed\",\"started\":false,"
      "\"error\":{\"code\":\"NOT_FOUND\","
      "\"message\":\"no graph named 'web' is registered\"}}",
      "{\"id\":0,\"ok\":true,\"type\":\"mine\",\"job\":7,"
      "\"query\":{\"graph\":\"web\",\"k\":2,\"q\":12,\"algo\":\"ours\"},"
      "\"state\":\"cancelled\",\"started\":false}",
      "{\"id\":13,\"ok\":true,\"type\":\"mine\",\"job\":8,"
      "\"query\":{\"graph\":\"web\",\"k\":2,\"q\":12,\"algo\":\"ours\"},"
      "\"state\":\"cancelled\",\"started\":true,\"plexes\":2566,"
      "\"max_size\":14,\"fingerprint\":\"0x0123456789abcdef\","
      "\"seconds\":1.8102,\"compute_seconds\":1.75,\"cached\":false,"
      "\"precomputed\":false,\"timed_out\":false,\"stopped_early\":false,"
      "\"cancelled\":true}",
      "{\"id\":14,\"ok\":true,\"type\":\"submitted\",\"job\":4,"
      "\"query\":{\"graph\":\"web\",\"k\":2,\"q\":12,\"algo\":\"listplex\","
      "\"threads\":8,\"max_results\":1000,\"time_limit\":2.5,\"tau_ms\":0.25,"
      "\"ctcp\":true,\"cache\":false}}",
      "{\"id\":15,\"ok\":true,\"type\":\"shard_result\",\"job\":9,"
      "\"query\":{\"graph\":\"web\",\"k\":2,\"q\":12,\"algo\":\"ours\","
      "\"seed_begin\":100,\"seed_end\":200},\"state\":\"done\","
      "\"started\":true,\"plexes\":2566,\"max_size\":14,"
      "\"fingerprint\":\"0x0123456789abcdef\",\"seconds\":1.8102,"
      "\"compute_seconds\":1.75,\"cached\":false,\"precomputed\":false,"
      "\"timed_out\":false,\"stopped_early\":false,\"cancelled\":false,"
      "\"fingerprint_xor\":\"0x00000000deadbeef\",\"total_seeds\":5000,"
      "\"content_hash\":\"0x00000000c0ffee00\"}",
      "{\"id\":0,\"ok\":true,\"type\":\"shard_result\",\"job\":10,"
      "\"query\":{\"graph\":\"web\",\"k\":2,\"q\":12,\"algo\":\"ours\","
      "\"seed_begin\":100,\"seed_end\":200},\"state\":\"done\","
      "\"started\":true,\"plexes\":2566,\"max_size\":14,"
      "\"fingerprint\":\"0x0123456789abcdef\",\"seconds\":1.8102,"
      "\"compute_seconds\":1.75,\"cached\":false,\"precomputed\":false,"
      "\"timed_out\":false,\"stopped_early\":false,\"cancelled\":false,"
      "\"fingerprint_xor\":\"0x00000000deadbeef\",\"total_seeds\":5000,"
      "\"yielded\":true,\"covered_begin\":100,\"covered_end\":140,"
      "\"content_hash\":\"0x00000000c0ffee00\"}",
      "{\"id\":16,\"ok\":true,\"type\":\"shard_result\",\"job\":6,"
      "\"query\":{\"graph\":\"web\",\"k\":2,\"q\":12,\"algo\":\"ours\","
      "\"seed_begin\":100,\"seed_end\":200},\"state\":\"failed\","
      "\"started\":false,\"error\":{\"code\":\"FAILED_PRECONDITION\","
      "\"message\":\"graph content hash mismatch for 'web'\"},"
      "\"content_hash\":\"0x0000000000000000\"}",
      "{\"id\":17,\"ok\":true,\"type\":\"plan\",\"graph\":\"web\","
      "\"total_seeds\":3,\"content_hash\":\"0xbe7c0cfa5f1eee74\","
      "\"degeneracy\":5,\"precomputed\":true,\"seconds\":0.004,"
      "\"degrees\":[4,0,2],\"coreness\":[5,1,3]}",
      "{\"id\":0,\"ok\":true,\"type\":\"plan\",\"graph\":\"g\","
      "\"total_seeds\":0,\"content_hash\":\"0x0000000000000001\","
      "\"degeneracy\":0,\"precomputed\":false,\"seconds\":0.5,\"degrees\":[],"
      "\"coreness\":[]}",
      "{\"id\":18,\"ok\":true,\"type\":\"shard_submitted\",\"job\":21,"
      "\"content_hash\":\"0x00000000c0ffee00\"}",
      "{\"id\":0,\"ok\":true,\"type\":\"shard_stopping\",\"job\":21}",
      "{\"id\":19,\"ok\":true,\"type\":\"worker_ack\",\"worker\":3,"
      "\"state\":\"idle\"}",
      "{\"id\":0,\"ok\":true,\"type\":\"workers\",\"workers\":[{\"worker\":1,"
      "\"endpoint\":\"127.0.0.1:7401\",\"state\":\"busy\",\"chunks_done\":4,"
      "\"chunks_failed\":0},{\"worker\":2,\"endpoint\":\"127.0.0.1:7402\","
      "\"state\":\"dead\",\"chunks_done\":1,\"chunks_failed\":2}]}",
      "{\"id\":0,\"ok\":true,\"type\":\"workers\",\"workers\":[]}",
      "{\"id\":20,\"ok\":true,\"type\":\"result_chunk\",\"job\":3,\"seq\":1,"
      "\"last\":false,\"plexes\":[[1,2,3],[4,5]]}",
      "{\"id\":0,\"ok\":true,\"type\":\"result_chunk\",\"job\":3,\"seq\":0,"
      "\"last\":true,\"plexes\":[]}",
      "{\"id\":0,\"ok\":true,\"type\":\"cancelling\",\"job\":17}",
      "{\"id\":22,\"ok\":true,\"type\":\"jobs\",\"jobs\":[{\"job\":11,"
      "\"query\":{\"graph\":\"web\",\"k\":2,\"q\":12,\"algo\":\"ours\"},"
      "\"state\":\"running\",\"started\":true},{\"job\":4,"
      "\"query\":{\"graph\":\"web\",\"k\":2,\"q\":12,\"algo\":\"ours\"},"
      "\"state\":\"done\",\"started\":true,\"plexes\":2566,\"max_size\":14,"
      "\"fingerprint\":\"0x0123456789abcdef\",\"seconds\":1.8102,"
      "\"compute_seconds\":1.75,\"cached\":false,\"precomputed\":false,"
      "\"timed_out\":false,\"stopped_early\":false,\"cancelled\":false},"
      "{\"job\":6,\"query\":{\"graph\":\"web\",\"k\":2,\"q\":12,"
      "\"algo\":\"ours\"},\"state\":\"failed\",\"started\":false,"
      "\"error\":{\"code\":\"NOT_FOUND\","
      "\"message\":\"no graph named 'web' is registered\"}}]}",
      "{\"id\":0,\"ok\":true,\"type\":\"wait\",\"job\":4,"
      "\"query\":{\"graph\":\"web\",\"k\":2,\"q\":12,\"algo\":\"ours\"},"
      "\"state\":\"done\",\"started\":true,\"plexes\":2566,\"max_size\":14,"
      "\"fingerprint\":\"0x0123456789abcdef\",\"seconds\":1.8102,"
      "\"compute_seconds\":1.75,\"cached\":false,\"precomputed\":false,"
      "\"timed_out\":false,\"stopped_early\":false,\"cancelled\":false}",
      "{\"id\":23,\"ok\":true,\"type\":\"wait_all\",\"done\":2,"
      "\"cancelled\":1,\"failed\":1,\"failed_jobs\":[6]}",
      "{\"id\":0,\"ok\":true,\"type\":\"stats\",\"graphs\":[{\"name\":\"kc\","
      "\"source\":\"dataset:karate\",\"resident\":true,\"evictable\":true,"
      "\"mapped\":false,\"vertices\":34,\"edges\":78,\"owned_bytes\":2048,"
      "\"mapped_bytes\":0,\"precompute\":\"none\","
      "\"content_hash\":\"0x00000000c0ffee00\",\"loads\":1,"
      "\"load_seconds\":0.25}],\"resident_bytes\":2048,"
      "\"mapped_resident_bytes\":0,\"budget_bytes\":1048576,"
      "\"cache\":{\"entries\":2,\"capacity\":64,\"hits\":3,\"misses\":1},"
      "\"dispatcher\":{\"workers\":2,\"queued\":0,\"running\":1,\"done\":2,"
      "\"cancelled\":0,\"failed\":0},\"store\":{\"enabled\":false}}",
      "{\"id\":24,\"ok\":true,\"type\":\"stats\","
      "\"graphs\":[{\"name\":\"kc\",\"source\":\"dataset:karate\","
      "\"resident\":true,\"evictable\":true,\"mapped\":false,\"vertices\":34,"
      "\"edges\":78,\"owned_bytes\":2048,\"mapped_bytes\":0,"
      "\"precompute\":\"none\",\"content_hash\":\"0x00000000c0ffee00\","
      "\"loads\":1,\"load_seconds\":0.25}],\"resident_bytes\":2048,"
      "\"mapped_resident_bytes\":0,\"budget_bytes\":1048576,"
      "\"cache\":{\"entries\":2,\"capacity\":64,\"hits\":3,\"misses\":1},"
      "\"dispatcher\":{\"workers\":2,\"queued\":0,\"running\":1,\"done\":2,"
      "\"cancelled\":0,\"failed\":0},\"store\":{\"enabled\":true,"
      "\"entries\":3,\"bytes\":2048,\"budget_bytes\":4194304,\"hits\":7,"
      "\"misses\":2,\"writes\":5,\"evictions\":1,\"corrupt\":0}}",
      "{\"id\":25,\"ok\":true,\"type\":\"metrics\","
      "\"counters\":[{\"name\":\"kplex_requests_total\",\"value\":5}],"
      "\"gauges\":[{\"name\":\"kplex_jobs_running\",\"value\":-1}],"
      "\"histograms\":[{\"name\":\"kplex_request_seconds\",\"count\":2,"
      "\"sum\":0.5,\"p50\":0.1,\"p95\":0.4,\"p99\":0.4,\"le\":[0.1,1],"
      "\"buckets\":[1,1,0]}]}",
      "{\"id\":0,\"ok\":true,\"type\":\"evicted\",\"name\":\"web\"}",
      "{\"id\":26,\"ok\":true,\"type\":\"store\",\"evicted\":false,"
      "\"store\":{\"enabled\":true,\"entries\":3,\"bytes\":2048,"
      "\"budget_bytes\":4194304,\"hits\":7,\"misses\":2,\"writes\":5,"
      "\"evictions\":1,\"corrupt\":0}}",
      "{\"id\":0,\"ok\":true,\"type\":\"store\",\"evicted\":true,"
      "\"evicted_entries\":3,\"evicted_bytes\":2048,"
      "\"store\":{\"enabled\":true,\"entries\":3,\"bytes\":2048,"
      "\"budget_bytes\":4194304,\"hits\":7,\"misses\":2,\"writes\":5,"
      "\"evictions\":1,\"corrupt\":0}}",
      "{\"id\":0,\"ok\":true,\"type\":\"store\",\"evicted\":false,"
      "\"store\":{\"enabled\":false}}",
      // The help text is the text wire's, JSON-escaped.
      "{\"id\":0,\"ok\":true,\"type\":\"help\",\"text\":\"" +
          EscapedHelpText() + "\"}",
      "{\"id\":27,\"ok\":true,\"type\":\"bye\"}",
      "{\"id\":28,\"ok\":false,\"type\":\"error\","
      "\"code\":\"INVALID_ARGUMENT\",\"message\":\"usage: cancel ID\"}",
  };
  return goldens;
}

TEST(ProtocolFramed, ResponseMatchesWireGoldens) {
  const std::vector<Response> corpus = ResponseCorpus();
  ASSERT_EQ(corpus.size(), ResponseWireGoldens().size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(FormatFramedResponse(corpus[i]), ResponseWireGoldens()[i])
        << "corpus entry " << i;
  }
}

// Round trips: each client decoder, fed a corpus frame it reads,
// reproduces every field the frame carries. Error frames come back
// from any decoder as the embedded status.

/// Decodes `line`, checking the correlation id of a decoded frame.
template <typename T>
StatusOr<T> Decode(StatusOr<T> (*decode)(const std::string&, uint64_t*),
                   const std::string& line, uint64_t id) {
  uint64_t decoded_id = ~uint64_t{0};
  StatusOr<T> decoded = decode(line, &decoded_id);
  if (decoded.ok()) EXPECT_EQ(decoded_id, id);
  return decoded;
}

/// The echo carries the run options; the selection stays at defaults.
void ExpectQueryEcho(const QueryRequest& echo, const QueryRequest& query) {
  EXPECT_EQ(echo.graph, query.graph);
  EXPECT_EQ(echo.k, query.k);
  EXPECT_EQ(echo.q, query.q);
  EXPECT_EQ(echo.algo, query.algo);
  EXPECT_EQ(echo.threads, query.threads);
  EXPECT_EQ(echo.max_results, query.max_results);
  EXPECT_EQ(echo.time_limit_seconds, query.time_limit_seconds);
  EXPECT_EQ(echo.tau_ms, query.tau_ms);
  EXPECT_EQ(echo.use_ctcp, query.use_ctcp);
  EXPECT_EQ(echo.use_cache, query.use_cache);
  EXPECT_EQ(echo.seed_begin, query.seed_begin);
  EXPECT_EQ(echo.seed_end, query.seed_end);
  EXPECT_FALSE(echo.collect_bodies);
  EXPECT_EQ(echo.chunk_size, 0u);
  EXPECT_EQ(echo.filter_min_size, 0u);
  EXPECT_EQ(echo.top_k, 0u);
}

/// A job frame: the result fields only when the job ran, the shard
/// fields only on a shard_result frame.
void ExpectJobDecodes(const StatusOr<JobSummary>& decoded, const JobInfo& job,
                      const ShardResultResponse* shard) {
  if (job.state == JobState::kFailed) {
    EXPECT_EQ(decoded.status(), job.status);
    return;
  }
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->job, job.id);
  ExpectQueryEcho(decoded->query, job.request);
  EXPECT_EQ(decoded->state, JobStateName(job.state));
  EXPECT_EQ(decoded->started, job.started);
  const bool ran = job.state == JobState::kDone || job.started;
  const QueryResult result = ran ? job.result : QueryResult{};
  EXPECT_EQ(decoded->plexes, result.num_plexes);
  EXPECT_EQ(decoded->max_size, result.max_plex_size);
  EXPECT_EQ(decoded->fingerprint, result.fingerprint);
  EXPECT_EQ(decoded->seconds, result.seconds);
  EXPECT_EQ(decoded->compute_seconds, result.compute_seconds);
  EXPECT_EQ(decoded->cached, result.from_cache);
  EXPECT_EQ(decoded->precomputed, result.reduction_precomputed);
  EXPECT_EQ(decoded->timed_out, result.timed_out);
  EXPECT_EQ(decoded->stopped_early, result.stopped_early);
  EXPECT_EQ(decoded->cancelled, result.cancelled);
  EXPECT_EQ(decoded->bodies,
            result.plexes != nullptr
                ? std::optional<uint64_t>(result.plexes->size())
                : std::nullopt);
  EXPECT_EQ(decoded->cursor,
            result.has_cursor
                ? std::optional<ResumeCursor>(ResumeCursor{
                      result.cursor_seed, result.cursor_ordinal})
                : std::nullopt);
  EXPECT_FALSE(decoded->error.has_value());
  const QueryResult shard_result = shard != nullptr ? result : QueryResult{};
  EXPECT_EQ(decoded->fingerprint_xor, shard_result.fingerprint_xor);
  EXPECT_EQ(decoded->total_seeds, shard_result.total_seeds);
  EXPECT_EQ(decoded->yielded, shard_result.yielded);
  EXPECT_EQ(decoded->covered_begin,
            shard_result.yielded ? shard_result.covered_begin : 0);
  EXPECT_EQ(decoded->covered_end,
            shard_result.yielded ? shard_result.covered_end : 0);
  EXPECT_EQ(decoded->content_hash, shard != nullptr ? shard->content_hash : 0);
}

void ExpectDecodes(const std::string& line, uint64_t id,
                   const HelloResponse& hello) {
  auto decoded = Decode(ParseFramedHello, line, id);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->version, hello.version);
  EXPECT_EQ(decoded->mode, hello.mode.value_or(WireMode::kFramed));
}

void ExpectDecodes(const std::string& line, uint64_t id,
                   const MineResponse& mine) {
  ExpectJobDecodes(Decode(ParseFramedMineResult, line, id), mine.job,
                   nullptr);
}

void ExpectDecodes(const std::string& line, uint64_t id,
                   const ShardResultResponse& shard) {
  ExpectJobDecodes(Decode(ParseFramedShardResult, line, id), shard.job,
                   &shard);
}

void ExpectDecodes(const std::string& line, uint64_t id,
                   const PlanResponse& plan) {
  auto decoded = Decode(ParseFramedPlan, line, id);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->graph, plan.graph);
  EXPECT_EQ(decoded->total_seeds, plan.total_seeds);
  EXPECT_EQ(decoded->content_hash, plan.content_hash);
  EXPECT_EQ(decoded->degeneracy, plan.degeneracy);
  EXPECT_EQ(decoded->degrees, plan.degrees);
  EXPECT_EQ(decoded->coreness, plan.coreness);
  EXPECT_EQ(decoded->precomputed, plan.precomputed);
  EXPECT_EQ(decoded->seconds, plan.seconds);
}

void ExpectDecodes(const std::string& line, uint64_t id,
                   const ShardSubmitResponse& submit) {
  auto decoded = Decode(ParseFramedShardSubmit, line, id);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->job, submit.job);
  EXPECT_EQ(decoded->content_hash, submit.content_hash);
}

void ExpectDecodes(const std::string& line, uint64_t id,
                   const ShardStopResponse& stop) {
  auto decoded = Decode(ParseFramedShardStop, line, id);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->job, stop.job);
}

void ExpectDecodes(const std::string& line, uint64_t id,
                   const WorkerAckResponse& ack) {
  auto decoded = Decode(ParseFramedWorkerAck, line, id);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->worker, ack.worker);
  EXPECT_EQ(decoded->state, ack.state);
}

void ExpectDecodes(const std::string& line, uint64_t id,
                   const ResultChunkResponse& chunk) {
  auto decoded = Decode(ParseFramedResultChunk, line, id);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->job, chunk.job);
  EXPECT_EQ(decoded->seq, chunk.seq);
  EXPECT_EQ(decoded->last, chunk.last);
  EXPECT_EQ(decoded->plexes, chunk.plexes);
}

void ExpectDecodes(const std::string& line, uint64_t,
                   const ErrorResponse& error) {
  EXPECT_EQ(ParseFramedHello(line).status(), error.status);
  EXPECT_EQ(ParseFramedMineResult(line).status(), error.status);
  EXPECT_EQ(ParseFramedShardResult(line).status(), error.status);
  EXPECT_EQ(ParseFramedPlan(line).status(), error.status);
  EXPECT_EQ(ParseFramedShardSubmit(line).status(), error.status);
  EXPECT_EQ(ParseFramedShardStop(line).status(), error.status);
  EXPECT_EQ(ParseFramedWorkerAck(line).status(), error.status);
  EXPECT_EQ(ParseFramedResultChunk(line).status(), error.status);
  EXPECT_EQ(PeekFramedResponseType(line).status(), error.status);
}

/// Frames no client decodes.
template <typename Payload>
void ExpectDecodes(const std::string&, uint64_t, const Payload&) {}

TEST(ProtocolFramed, DecodersRoundTripTheResponseCorpus) {
  for (const Response& response : ResponseCorpus()) {
    const std::string line = FormatFramedResponse(response);
    SCOPED_TRACE(line);
    std::visit(
        [&](const auto& payload) {
          ExpectDecodes(line, response.request_id, payload);
        },
        response.payload);
  }
}

// ------------------------------------------------ required response keys

/// One member of a compact JSON object: its key and the [begin, end)
/// span of its "key":value text.
struct Member {
  std::string key;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// The members of the compact JSON object `object` (writer output:
/// keys carry no escapes).
std::vector<Member> Members(const std::string& object) {
  std::vector<Member> members;
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < object.size(); ++i) {
    const char c = object[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (depth == 1 && (c == ',' || c == '}') && !members.empty()) {
      members.back().end = i;
    }
    if (c == '"') {
      if (depth == 1 && (object[i - 1] == '{' || object[i - 1] == ',')) {
        const std::size_t close = object.find('"', i + 1);
        members.push_back({object.substr(i + 1, close - i - 1), i, 0});
      }
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    }
  }
  return members;
}

/// `object` without `member` (and the comma that separated it).
std::string Without(const std::string& object, const Member& member) {
  std::string out = object;
  if (out[member.end] == ',') return out.erase(member.begin,
                                               member.end + 1 - member.begin);
  const std::size_t begin = out[member.begin - 1] == ',' ? member.begin - 1
                                                         : member.begin;
  return out.erase(begin, member.end - begin);
}

/// `object` with `member`'s value replaced by `value`.
std::string WithValue(const std::string& object, const Member& member,
                      const std::string& value) {
  const std::size_t colon = member.begin + member.key.size() + 3;
  std::string out = object;
  return out.replace(colon, member.end - colon, value);
}

/// The value text of `member`.
std::string ValueOf(const std::string& object, const Member& member) {
  const std::size_t colon = member.begin + member.key.size() + 3;
  return object.substr(colon, member.end - colon);
}

/// The decoder a client reads `payload`'s frame with, applied to
/// `line`; nullopt for frames no client decodes.
std::optional<Status> DecodeAs(const ResponsePayload& payload,
                               const std::string& line) {
  return std::visit(
      [&line](const auto& held) -> std::optional<Status> {
        using T = std::decay_t<decltype(held)>;
        if constexpr (std::is_same_v<T, HelloResponse>) {
          return ParseFramedHello(line).status();
        } else if constexpr (std::is_same_v<T, MineResponse>) {
          return ParseFramedMineResult(line).status();
        } else if constexpr (std::is_same_v<T, ShardResultResponse>) {
          return ParseFramedShardResult(line).status();
        } else if constexpr (std::is_same_v<T, PlanResponse>) {
          return ParseFramedPlan(line).status();
        } else if constexpr (std::is_same_v<T, ShardSubmitResponse>) {
          return ParseFramedShardSubmit(line).status();
        } else if constexpr (std::is_same_v<T, ShardStopResponse>) {
          return ParseFramedShardStop(line).status();
        } else if constexpr (std::is_same_v<T, WorkerAckResponse>) {
          return ParseFramedWorkerAck(line).status();
        } else if constexpr (std::is_same_v<T, ResultChunkResponse>) {
          return ParseFramedResultChunk(line).status();
        } else {
          return std::nullopt;
        }
      },
      payload);
}

/// Keys the writer emits only sometimes; every other key of a decoded
/// golden frame is required for that frame and job state.
bool OptionalKey(const std::string& key) {
  for (const char* optional :
       {"bodies", "cursor", "yielded", "covered_begin", "covered_end",
        // query echo: only set run options are written
        "threads", "max_results", "time_limit", "tau_ms", "ctcp", "cache",
        "seed_begin", "seed_end"}) {
    if (key == optional) return true;
  }
  return false;
}

TEST(ProtocolFramed, DecodersRefuseAFrameMissingARequiredKey) {
  const std::vector<Response> corpus = ResponseCorpus();
  std::size_t checked = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::string& golden = ResponseWireGoldens()[i];
    if (std::holds_alternative<ErrorResponse>(corpus[i].payload) ||
        !DecodeAs(corpus[i].payload, golden).has_value()) {
      continue;
    }
    auto expect_refused = [&](const std::string& mutant,
                              const std::string& key) {
      const Status status = *DecodeAs(corpus[i].payload, mutant);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << "without '" << key << "': " << mutant;
      EXPECT_NE(status.message().find(key), std::string::npos)
          << status.ToString();
      ++checked;
    };
    for (const Member& member : Members(golden)) {
      if (!OptionalKey(member.key)) {
        expect_refused(Without(golden, member), member.key);
      }
      // The nested query echo and a failed job's error object.
      if (member.key != "query" && member.key != "error") continue;
      const std::string nested = ValueOf(golden, member);
      for (const Member& inner : Members(nested)) {
        if (OptionalKey(inner.key)) continue;
        expect_refused(WithValue(golden, member, Without(nested, inner)),
                       inner.key);
      }
    }
  }
  EXPECT_GT(checked, 150u);
}

TEST(ProtocolFramed, PlanArraysMustHoldOneEntryPerSeed) {
  PlanResponse plan{"web", 3, 0x1ULL, 5, {4, 0, 2}, {5, 1, 3}, false, 0.5};
  Response response;
  response.payload = plan;
  ASSERT_TRUE(ParseFramedPlan(FormatFramedResponse(response)).ok());
  plan.total_seeds = 4;  // arrays one short of the seed space
  response.payload = plan;
  auto decoded = ParseFramedPlan(FormatFramedResponse(response));
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoded.status().message(),
            "plan frame carries 3 degrees and 3 coreness values for 4 seeds");
  plan.total_seeds = 3;
  plan.coreness.pop_back();  // arrays disagree with each other
  response.payload = plan;
  EXPECT_EQ(ParseFramedPlan(FormatFramedResponse(response)).status().code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ mutation fuzz
// Deterministic mutants of every wire golden, fed to every parser of
// untrusted protocol bytes: each must come back as a Status, never a
// crash, and a refusal is INVALID_ARGUMENT or the error code the frame
// itself carries. Each family feeds a mutant once, however many seeds
// produce it.

/// The request goldens on both wires.
std::vector<std::string> RequestSeeds() {
  std::vector<std::string> seeds;
  for (const auto& [text, framed] : WireGoldens()) {
    seeds.push_back(text);
    seeds.push_back(framed);
  }
  return seeds;
}

/// Every request and response golden.
std::vector<std::string> FuzzSeeds() {
  std::vector<std::string> seeds = RequestSeeds();
  seeds.insert(seeds.end(), ResponseWireGoldens().begin(),
               ResponseWireGoldens().end());
  return seeds;
}

/// True when `mutant` names `code` in a "code" member.
bool NamesCode(const std::string& mutant, StatusCode code) {
  for (std::size_t at = mutant.find("\"code\""); at != std::string::npos;
       at = mutant.find("\"code\"", at + 1)) {
    std::size_t begin = mutant.find_first_not_of(" \t\r\n:", at + 6);
    if (begin == std::string::npos || mutant[begin] != '"') continue;
    const std::size_t end = mutant.find('"', ++begin);
    if (end != std::string::npos &&
        StatusCodeFromName(mutant.substr(begin, end - begin)) == code) {
      return true;
    }
  }
  return false;
}

void FeedEveryParser(const std::set<std::string>& mutants) {
  for (const std::string& mutant : mutants) {
    auto expect_structured = [&mutant](const Status& status) {
      if (status.ok() || status.code() == StatusCode::kInvalidArgument ||
          NamesCode(mutant, status.code())) {
        return;
      }
      ADD_FAILURE() << status.ToString() << " from: " << mutant;
    };
    expect_structured(ParseTextRequest(mutant).status());
    expect_structured(ParseFramedRequest(mutant).status());
    expect_structured(PeekFramedResponseType(mutant).status());
    expect_structured(ParseFramedHello(mutant).status());
    expect_structured(ParseFramedMineResult(mutant).status());
    expect_structured(ParseFramedShardResult(mutant).status());
    expect_structured(ParseFramedPlan(mutant).status());
    expect_structured(ParseFramedShardSubmit(mutant).status());
    expect_structured(ParseFramedShardStop(mutant).status());
    expect_structured(ParseFramedWorkerAck(mutant).status());
    expect_structured(ParseFramedResultChunk(mutant).status());
  }
}

/// Every prefix of every seed.
std::set<std::string> Truncations(const std::vector<std::string>& seeds) {
  std::set<std::string> mutants;
  for (const std::string& seed : seeds) {
    for (std::size_t length = 0; length < seed.size(); ++length) {
      mutants.insert(seed.substr(0, length));
    }
  }
  return mutants;
}

TEST(ProtocolFuzz, TruncatedRequestsAtEveryByte) {
  FeedEveryParser(Truncations(RequestSeeds()));
}

TEST(ProtocolFuzz, TruncatedResponsesAtEveryByte) {
  // The help frame is one 3 KiB prose string: its cuts all end inside
  // that string, and they would cost more than every other cut.
  std::vector<std::string> seeds;
  for (const std::string& golden : ResponseWireGoldens()) {
    if (golden.find("\"type\":\"help\"") == std::string::npos) {
      seeds.push_back(golden);
    }
  }
  FeedEveryParser(Truncations(seeds));
}

TEST(ProtocolFuzz, ByteFlipsInsertsAndDeletes) {
  std::mt19937_64 rng(0x6b706c6578);  // fixed: every run sees one set
  std::set<std::string> mutants;
  for (const std::string& seed : FuzzSeeds()) {
    for (int round = 0; round < 24; ++round) {
      std::string mutant = seed;
      const std::size_t at = rng() % mutant.size();
      switch (round % 3) {
        case 0:
          mutant[at] = static_cast<char>(mutant[at] ^ (1 << (rng() % 8)));
          break;
        case 1:
          mutant.insert(at, 1, static_cast<char>(rng() % 256));
          break;
        case 2:
          mutant.erase(at, 1);
          break;
      }
      mutants.insert(mutant);
    }
  }
  FeedEveryParser(mutants);
}

TEST(ProtocolFuzz, ValueKindSwaps) {
  // Number, string, bool, array, 2^64, negative, float.
  const std::vector<std::string> values = {
      "7", "\"x\"", "true", "[[1]]", "18446744073709551616", "-1", "0.5"};
  std::set<std::string> mutants;
  for (const std::string& seed : FuzzSeeds()) {
    if (seed.empty() || seed[0] != '{') continue;  // the text wire
    for (const Member& member : Members(seed)) {
      for (const std::string& value : values) {
        mutants.insert(WithValue(seed, member, value));
      }
      // Inside the nested query echo and error objects too.
      const std::string nested = ValueOf(seed, member);
      if (nested.empty() || nested[0] != '{') continue;
      for (const Member& inner : Members(nested)) {
        for (const std::string& value : values) {
          mutants.insert(
              WithValue(seed, member, WithValue(nested, inner, value)));
        }
      }
    }
  }
  EXPECT_GT(mutants.size(), 3000u);
  FeedEveryParser(mutants);
}

// -------------------------------------------- framed client-side decode

TEST(ProtocolFramed, ShardResultRoundTripsThroughTheClientDecoder) {
  JobInfo done;
  done.id = 3;
  done.request.graph = "web";
  done.request.k = 2;
  done.request.q = 12;
  done.request.seed_begin = 100;
  done.request.seed_end = 200;
  done.state = JobState::kDone;
  done.started = true;
  done.result.num_plexes = 2566;
  done.result.max_plex_size = 14;
  done.result.fingerprint = 0x0123456789abcdefULL;
  done.result.fingerprint_xor = 0x00000000deadbeefULL;
  done.result.total_seeds = 5000;
  done.result.seconds = 0.25;

  Response response;
  response.request_id = 7;
  response.payload = ShardResultResponse{done, 0x00000000c0ffee00ULL};
  const std::string frame = FormatFramedResponse(response);
  EXPECT_NE(frame.find("\"type\":\"shard_result\""), std::string::npos)
      << frame;
  EXPECT_NE(frame.find("\"seed_begin\":100"), std::string::npos) << frame;

  uint64_t request_id = 0;
  auto decoded = ParseFramedShardResult(frame, &request_id);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(request_id, 7u);
  EXPECT_EQ(decoded->state, "done");
  EXPECT_EQ(decoded->plexes, 2566u);
  EXPECT_EQ(decoded->max_size, 14u);
  EXPECT_EQ(decoded->fingerprint, 0x0123456789abcdefULL);
  EXPECT_EQ(decoded->fingerprint_xor, 0x00000000deadbeefULL);
  EXPECT_EQ(decoded->total_seeds, 5000u);
  EXPECT_EQ(decoded->content_hash, 0x00000000c0ffee00ULL);
  EXPECT_DOUBLE_EQ(decoded->seconds, 0.25);
  EXPECT_TRUE(decoded->IsComplete());

  // Truncation flags survive the decode: a kDone-but-timed-out (or
  // result-capped) shard must never look complete to a coordinator.
  done.result.timed_out = true;
  response.payload = ShardResultResponse{done, 0x00000000c0ffee00ULL};
  decoded = ParseFramedShardResult(FormatFramedResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->timed_out);
  EXPECT_FALSE(decoded->IsComplete());

  done.result.timed_out = false;
  done.result.stopped_early = true;
  response.payload = ShardResultResponse{done, 0x00000000c0ffee00ULL};
  decoded = ParseFramedShardResult(FormatFramedResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->stopped_early);
  EXPECT_FALSE(decoded->IsComplete());
}

TEST(ProtocolFramed, ClientDecoderSurfacesStructuredFailures) {
  // An error frame becomes the embedded Status, code preserved.
  Response response;
  response.payload = ErrorResponse{Status::FailedPrecondition(
      "graph content hash mismatch for 'web'")};
  auto decoded = ParseFramedShardResult(FormatFramedResponse(response));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(decoded.status().message().find("hash mismatch"),
            std::string::npos);

  // A failed shard job rides inside an ok frame; the decoder unwraps
  // its error the same way.
  JobInfo failed;
  failed.request.graph = "web";
  failed.state = JobState::kFailed;
  failed.status = Status::NotFound("no graph named 'web' is registered");
  response.payload = ShardResultResponse{failed, 0};
  decoded = ParseFramedShardResult(FormatFramedResponse(response));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kNotFound);

  // Wrong frame type and garbage are structured errors, never a crash.
  EXPECT_FALSE(ParseFramedShardResult("{\"ok\":true,\"type\":\"mine\"}")
                   .ok());
  EXPECT_FALSE(ParseFramedShardResult("not json").ok());
  EXPECT_FALSE(ParseFramedShardResult("{}").ok());
}

TEST(ProtocolFramed, HelloVersionDecoder) {
  Response response;
  HelloResponse hello;
  hello.version = 2;
  hello.mode = WireMode::kFramed;
  response.payload = hello;
  auto decoded = ParseFramedHello(FormatFramedResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->version, 2u);

  // A v1 server's hello decodes to 1 (the coordinator's refusal path).
  hello.version = 1;
  response.payload = hello;
  decoded = ParseFramedHello(FormatFramedResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->version, 1u);

  EXPECT_FALSE(ParseFramedHello("{\"ok\":true,\"type\":\"bye\"}").ok());
  EXPECT_FALSE(ParseFramedHello("nope").ok());
}

// ------------------------------------------- v4 streamed result delivery

TEST(ProtocolText, ResultChunkGoldens) {
  ResultChunkResponse chunk;
  chunk.job = 3;
  chunk.seq = 0;
  chunk.plexes = {{1, 2, 3}, {4, 5}};
  EXPECT_EQ(TextOf(chunk), "chunk 0: 1 2 3 | 4 5\n");

  ResultChunkResponse last;
  last.job = 3;
  last.seq = 2;
  last.last = true;
  last.plexes = {{7}};
  EXPECT_EQ(TextOf(last), "chunk 2 last: 7\n");

  // An empty result's single terminating chunk.
  ResultChunkResponse empty;
  empty.seq = 0;
  empty.last = true;
  EXPECT_EQ(TextOf(empty), "chunk 0 last:\n");
}

TEST(ProtocolText, TruncatedMineLineCarriesTheResumeCursor) {
  JobInfo truncated;
  truncated.id = 3;
  truncated.request.graph = "web";
  truncated.request.k = 2;
  truncated.request.q = 12;
  truncated.state = JobState::kDone;
  truncated.started = true;
  truncated.result.num_plexes = 7;
  truncated.result.max_plex_size = 9;
  truncated.result.seconds = 0.1;
  truncated.result.stopped_early = true;
  truncated.result.has_cursor = true;
  truncated.result.cursor_seed = 17;
  truncated.result.cursor_ordinal = 4;
  EXPECT_EQ(TextOf(MineResponse{truncated}),
            "mined web k=2 q=12 algo=ours: 7 plexes, max size 9, 0.100s "
            "[result cap hit] [cursor 17:4]\n");
}

TEST(ProtocolFramed, ResultChunkFrameGoldenAndClientDecode) {
  ResultChunkResponse chunk;
  chunk.job = 3;
  chunk.seq = 1;
  chunk.last = true;
  chunk.plexes = {{1, 2, 3}, {4, 5}};
  Response response;
  response.request_id = 9;
  response.payload = chunk;
  const std::string frame = FormatFramedResponse(response);
  // The golden streamed transcript unit: nested vertex-id arrays.
  EXPECT_EQ(frame,
            "{\"id\":9,\"ok\":true,\"type\":\"result_chunk\",\"job\":3,"
            "\"seq\":1,\"last\":true,\"plexes\":[[1,2,3],[4,5]]}");

  auto type = PeekFramedResponseType(frame);
  ASSERT_TRUE(type.ok()) << type.status().ToString();
  EXPECT_EQ(*type, "result_chunk");

  uint64_t request_id = 0;
  auto decoded = ParseFramedResultChunk(frame, &request_id);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(request_id, 9u);
  EXPECT_EQ(decoded->job, 3u);
  EXPECT_EQ(decoded->seq, 1u);
  EXPECT_TRUE(decoded->last);
  EXPECT_EQ(decoded->plexes, chunk.plexes);

  // An empty chunk round-trips as an empty plexes array.
  ResultChunkResponse empty;
  empty.last = true;
  response.payload = empty;
  const std::string empty_frame = FormatFramedResponse(response);
  EXPECT_NE(empty_frame.find("\"plexes\":[]"), std::string::npos)
      << empty_frame;
  decoded = ParseFramedResultChunk(empty_frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->plexes.empty());
  EXPECT_TRUE(decoded->last);
}

TEST(ProtocolFramed, MalformedResultChunkFramesAreErrorsNeverCrashes) {
  const std::vector<std::string> frames = {
      "",
      "not json",
      "{}",
      "{\"ok\":true,\"type\":\"mine\"}",  // wrong frame type
      // Truncated mid-plexes (a cut TCP stream's final partial line).
      "{\"id\":1,\"ok\":true,\"type\":\"result_chunk\",\"plexes\":[[1",
      // Missing the plexes array entirely.
      "{\"id\":1,\"ok\":true,\"type\":\"result_chunk\",\"job\":3,"
      "\"seq\":0,\"last\":false}",
      // Flat array where nested vertex-id arrays are required.
      "{\"id\":1,\"ok\":true,\"type\":\"result_chunk\",\"job\":3,"
      "\"seq\":0,\"last\":false,\"plexes\":[1,2]}",
      // Non-numeric vertex id.
      "{\"id\":1,\"ok\":true,\"type\":\"result_chunk\",\"job\":3,"
      "\"seq\":0,\"last\":false,\"plexes\":[[1,\"x\"]]}",
      // Wrong-typed seq / last.
      "{\"id\":1,\"ok\":true,\"type\":\"result_chunk\",\"job\":3,"
      "\"seq\":\"zero\",\"last\":false,\"plexes\":[]}",
      "{\"id\":1,\"ok\":true,\"type\":\"result_chunk\",\"job\":3,"
      "\"seq\":0,\"last\":\"yes\",\"plexes\":[]}",
      // An error frame surfaces as its embedded status, not a chunk.
      "{\"id\":1,\"ok\":false,\"type\":\"error\","
      "\"code\":\"INTERNAL\",\"message\":\"boom\"}",
  };
  for (const std::string& frame : frames) {
    auto decoded = ParseFramedResultChunk(frame);
    EXPECT_FALSE(decoded.ok()) << "accepted: " << frame;
  }
}

TEST(ProtocolFramed, MineResultDecoderReadsBodiesAndCursor) {
  JobInfo done;
  done.id = 3;
  done.request.graph = "web";
  done.request.k = 2;
  done.request.q = 12;
  done.request.collect_bodies = true;
  done.state = JobState::kDone;
  done.started = true;
  done.result.num_plexes = 7;
  done.result.max_plex_size = 9;
  done.result.fingerprint = 0x0123456789abcdefULL;
  done.result.seconds = 0.25;
  done.result.stopped_early = true;
  done.result.plexes =
      std::make_shared<std::vector<std::vector<VertexId>>>(
          std::vector<std::vector<VertexId>>{{1, 2}, {3, 4}, {5, 6}});
  done.result.has_cursor = true;
  done.result.cursor_seed = 17;
  done.result.cursor_ordinal = 4;

  Response response;
  response.request_id = 2;
  response.payload = MineResponse{done};
  const std::string frame = FormatFramedResponse(response);
  EXPECT_NE(frame.find("\"bodies\":3"), std::string::npos) << frame;
  EXPECT_NE(frame.find("\"cursor\":\"17:4\""), std::string::npos) << frame;

  uint64_t request_id = 0;
  auto decoded = ParseFramedMineResult(frame, &request_id);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(request_id, 2u);
  EXPECT_EQ(decoded->state, "done");
  EXPECT_EQ(decoded->plexes, 7u);
  EXPECT_EQ(decoded->max_size, 9u);
  EXPECT_EQ(decoded->bodies, 3u);
  EXPECT_EQ(decoded->fingerprint, 0x0123456789abcdefULL);
  EXPECT_TRUE(decoded->stopped_early);
  ASSERT_TRUE(decoded->cursor.has_value());
  EXPECT_EQ(decoded->cursor->seed, 17u);
  EXPECT_EQ(decoded->cursor->ordinal, 4u);

  // Without bodies or truncation both extras are absent and default.
  done.result.plexes = nullptr;
  done.result.has_cursor = false;
  done.result.stopped_early = false;
  response.payload = MineResponse{done};
  decoded = ParseFramedMineResult(FormatFramedResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->bodies.has_value());
  EXPECT_FALSE(decoded->cursor.has_value());

  // A failed mine surfaces its embedded status.
  JobInfo failed;
  failed.request.graph = "web";
  failed.state = JobState::kFailed;
  failed.status = Status::NotFound("no graph named 'web' is registered");
  response.payload = MineResponse{failed};
  auto error = ParseFramedMineResult(FormatFramedResponse(response));
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kNotFound);

  // Wrong type / garbage / bogus cursor token are structured errors.
  EXPECT_FALSE(ParseFramedMineResult("{\"ok\":true,\"type\":\"hello\"}")
                   .ok());
  EXPECT_FALSE(ParseFramedMineResult("nope").ok());
  for (const std::string bad : {"\"bogus\"", "7"}) {
    std::string mutant = frame;  // complete but for the cursor
    mutant.replace(mutant.find("\"17:4\""), 6, bad);
    EXPECT_EQ(ParseFramedMineResult(mutant).status().code(),
              StatusCode::kInvalidArgument)
        << mutant;
  }
}

TEST(ProtocolText, CursorTextParser) {
  auto cursor = ParseCursorText("17:4");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  EXPECT_EQ(cursor->seed, 17u);
  EXPECT_EQ(cursor->ordinal, 4u);
  EXPECT_EQ(FormatCursorValue(cursor->seed, cursor->ordinal), "17:4");
  EXPECT_FALSE(ParseCursorText("17").ok());
  EXPECT_FALSE(ParseCursorText("x:4").ok());
  EXPECT_FALSE(ParseCursorText("17:y").ok());
  EXPECT_FALSE(ParseCursorText("").ok());
}

TEST(ProtocolText, SeedRangeTextParser) {
  auto range = ParseSeedRangeText("100:200");
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->begin, 100u);
  EXPECT_EQ(range->end, 200u);
  range = ParseSeedRangeText("0:end");
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->begin, 0u);
  EXPECT_EQ(range->end, UINT32_MAX);
  EXPECT_TRUE(range->IsFull());
  EXPECT_FALSE(ParseSeedRangeText("5").ok());
  EXPECT_FALSE(ParseSeedRangeText("9:3").ok());
  EXPECT_FALSE(ParseSeedRangeText("a:b").ok());
}

// ------------------------------------------------------------- sanitation

TEST(ProtocolSanitize, AbsolutePathsLoseTheirDirectories) {
  EXPECT_EQ(SanitizeErrorMessage(
                "cannot open '/srv/secret/layout/web.txt' for reading: "
                "No such file or directory"),
            "cannot open 'web.txt' for reading: No such file or directory");
  EXPECT_EQ(SanitizeErrorMessage("cannot map /var/data/g.kpx: EACCES"),
            "cannot map g.kpx: EACCES");
  // Relative paths, options, and fractions pass through untouched.
  EXPECT_EQ(SanitizeErrorMessage("cannot open 'data/karate.txt'"),
            "cannot open 'data/karate.txt'");
  EXPECT_EQ(SanitizeErrorMessage("cache must be on or off"),
            "cache must be on or off");
  EXPECT_EQ(SanitizeErrorMessage("ratio 3/4 is fine"), "ratio 3/4 is fine");
  EXPECT_EQ(SanitizeErrorMessage("bare / stays"), "bare / stays");

  const Status sanitized = SanitizeErrorStatus(
      Status::IoError("cannot open '/a/b/c.txt' for writing"));
  EXPECT_EQ(sanitized.code(), StatusCode::kIoError);
  EXPECT_EQ(sanitized.message(), "cannot open 'c.txt' for writing");
  EXPECT_TRUE(SanitizeErrorStatus(Status::Ok()).ok());
}

}  // namespace
}  // namespace kplex
