// End-to-end tests of the TCP transport: concurrent clients over one
// shared ServiceApi produce fingerprints identical to an in-process
// serial run, the text and framed wires both work over a real socket,
// a client disconnect mid-job cancels its outstanding work through the
// per-job cancel flags, connections past the cap are refused with a
// structured error, and shutdown is graceful even mid-query.

#include "service/tcp_server.h"

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#define KPLEX_TEST_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/enumerator.h"
#include "core/sink.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "service/protocol.h"
#include "service/service_session.h"
#include "service/tcp_client.h"

namespace kplex {
namespace {

#if KPLEX_TEST_SOCKETS

Graph SmallGraph(uint64_t seed) { return GenerateErdosRenyi(150, 0.1, seed); }

// Dense enough that a (3, 6) query runs for many seconds — used to test
// cancellation mid-flight (the run is never allowed to finish).
Graph SlowGraph() { return GenerateBarabasiAlbert(4000, 24, 9); }

/// Minimal line-oriented TCP client for the tests.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address = {};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                           sizeof(address)) == 0;
  }
  ~TestClient() { Close(); }

  bool connected() const { return connected_; }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  /// Simulates a crashed client: SO_LINGER(0) turns close() into a TCP
  /// reset, which the server's hangup watcher observes immediately (an
  /// orderly FIN means "still reading responses" and must not cancel).
  void AbortiveClose() {
    if (fd_ < 0) return;
    struct linger hard = {};
    hard.l_onoff = 1;
    hard.l_linger = 0;
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    ::close(fd_);
    fd_ = -1;
  }

  bool SendLine(const std::string& line) {
    const std::string bytes = line + "\n";
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads up to the next newline (blocking). Empty string on EOF.
  std::string ReadLine() {
    std::string line;
    char c;
    for (;;) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      const ssize_t n = ::recv(fd_, &c, 1, 0);
      if (n <= 0) return buffer_;  // EOF: whatever is left
      buffer_ += c;
    }
  }

  /// One request, one response line.
  std::string RoundTrip(const std::string& line) {
    EXPECT_TRUE(SendLine(line)) << line;
    return ReadLine();
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

struct Harness {
  explicit Harness(uint32_t workers = 2, uint32_t max_connections = 16) {
    ServiceApiOptions options;
    options.workers = workers;
    api = std::make_shared<ServiceApi>(options);
    TcpServerOptions server_options;
    server_options.max_connections = max_connections;
    server = std::make_unique<TcpServer>(api, server_options);
  }

  Status Start() { return server->Start(); }

  std::shared_ptr<ServiceApi> api;
  std::unique_ptr<TcpServer> server;
};

/// Extracts "fingerprint":"0x..." from a framed mine/wait response.
std::string FingerprintOf(const std::string& frame) {
  const std::string key = "\"fingerprint\":\"";
  const std::size_t start = frame.find(key);
  if (start == std::string::npos) return "";
  const std::size_t end = frame.find('"', start + key.size());
  return frame.substr(start + key.size(), end - start - key.size());
}

bool WaitForJobState(ServiceDispatcher& dispatcher, uint64_t id,
                     JobState state, double timeout_seconds = 10) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    auto info = dispatcher.GetJob(id);
    if (info.ok() && info->state == state) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

TEST(TcpServer, ConcurrentClientsMatchInProcessSerialFingerprints) {
  Graph graph = SmallGraph(21);
  Harness harness(/*workers=*/4);
  ASSERT_TRUE(harness.api->catalog().RegisterGraph("g", graph).ok());
  ASSERT_TRUE(harness.Start().ok());
  ASSERT_NE(harness.server->port(), 0);

  // In-process serial reference fingerprints, straight from the
  // sequential engine (no service layer involved).
  std::map<uint32_t, std::string> reference;
  for (uint32_t q = 4; q <= 7; ++q) {
    HashingSink sink;
    ASSERT_TRUE(
        EnumerateMaximalKPlexes(graph, EnumOptions::Ours(2, q), sink).ok());
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(sink.fingerprint()));
    reference[q] = buf;
  }

  // Two clients mine the same query family concurrently, in framed
  // mode (the framed wire carries the fingerprint).
  auto client_run = [&](std::map<uint32_t, std::string>& out) {
    TestClient client(harness.server->port());
    ASSERT_TRUE(client.connected());
    const std::string hello = client.RoundTrip("hello mode=framed");
    ASSERT_NE(hello.find("\"type\":\"hello\""), std::string::npos) << hello;
    for (uint32_t q = 4; q <= 7; ++q) {
      const std::string response = client.RoundTrip(
          "{\"cmd\":\"mine\",\"graph\":\"g\",\"k\":2,\"q\":" +
          std::to_string(q) + "}");
      ASSERT_NE(response.find("\"state\":\"done\""), std::string::npos)
          << response;
      out[q] = FingerprintOf(response);
    }
  };
  std::map<uint32_t, std::string> first, second;
  std::thread a([&] { client_run(first); });
  std::thread b([&] { client_run(second); });
  a.join();
  b.join();
  EXPECT_EQ(first, reference);
  EXPECT_EQ(second, reference);
}

TEST(TcpServer, LoadSubmitWaitCancelFlowOverTextWire) {
  Graph graph = SmallGraph(33);
  const std::string path =
      ::testing::TempDir() + "kplex_tcp_test_edges_" +
      std::to_string(::getpid());
  ASSERT_TRUE(SaveEdgeList(graph, path).ok());

  Harness harness;
  ASSERT_TRUE(harness.Start().ok());
  TestClient client(harness.server->port());
  ASSERT_TRUE(client.connected());

  const std::string loaded = client.RoundTrip("load g " + path);
  EXPECT_EQ(loaded.find("loaded g: "), 0u) << loaded;
  const std::string submitted = client.RoundTrip("submit g 2 5");
  EXPECT_EQ(submitted, "job 1 submitted: mine g k=2 q=5 algo=ours");
  const std::string waited = client.RoundTrip("wait 1");
  EXPECT_EQ(waited.find("job 1: mined g k=2 q=5"), 0u) << waited;
  // The job is terminal now, so cancel reports the structured
  // FAILED_PRECONDITION the in-process session reports.
  const std::string cancelled = client.RoundTrip("cancel 1");
  EXPECT_EQ(cancelled, "error: FAILED_PRECONDITION: job 1 already finished "
                       "(done)");
  client.SendLine("quit");
  EXPECT_EQ(client.ReadLine(), "");  // server closes after quit
  std::remove(path.c_str());
}

TEST(TcpServer, ClientDisconnectMidJobCancelsThroughPerJobFlag) {
  Harness harness(/*workers=*/1);
  ASSERT_TRUE(harness.api->catalog().RegisterGraph("big", SlowGraph()).ok());
  ASSERT_TRUE(harness.Start().ok());

  {
    TestClient client(harness.server->port());
    ASSERT_TRUE(client.connected());
    const std::string submitted = client.RoundTrip("submit big 3 6");
    EXPECT_EQ(submitted.find("job 1 submitted"), 0u) << submitted;
    ASSERT_TRUE(WaitForJobState(harness.api->dispatcher(), 1,
                                JobState::kRunning));
    // Abrupt disconnect: no quit, no wait — the server must notice and
    // release the worker via the job's cancel flag.
    client.Close();
  }
  EXPECT_TRUE(WaitForJobState(harness.api->dispatcher(), 1,
                              JobState::kCancelled))
      << "disconnect did not cancel the running job";
  auto info = harness.api->dispatcher().GetJob(1);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->result.cancelled);
}

TEST(TcpServer, ResetDuringSynchronousMineReleasesTheWorker) {
  // The worst abandonment shape: the session thread is *blocked* in a
  // synchronous mine (nobody recv's), and the client dies abruptly.
  // The per-connection watcher must spot the reset and cancel the
  // mine's job so the single worker is freed for other clients. A
  // mineshard blocks the same way and must be released the same way.
  for (const char* command : {"mine big 3 6", "mineshard big 3 6"}) {
    SCOPED_TRACE(command);
    Harness harness(/*workers=*/1);
    ASSERT_TRUE(
        harness.api->catalog().RegisterGraph("big", SlowGraph()).ok());
    ASSERT_TRUE(
        harness.api->catalog().RegisterGraph("small", SmallGraph(7)).ok());
    ASSERT_TRUE(harness.Start().ok());

    {
      TestClient client(harness.server->port());
      ASSERT_TRUE(client.connected());
      ASSERT_TRUE(client.SendLine(command));  // blocks server-side
      ASSERT_TRUE(WaitForJobState(harness.api->dispatcher(), 1,
                                  JobState::kRunning));
      client.AbortiveClose();
    }
    EXPECT_TRUE(WaitForJobState(harness.api->dispatcher(), 1,
                                JobState::kCancelled))
        << "reset did not cancel the in-flight synchronous command";

    // And the lone worker is actually free again: a fresh query runs.
    QueryRequest follow_up;
    follow_up.graph = "small";
    follow_up.k = 2;
    follow_up.q = 5;
    auto id = harness.api->dispatcher().Submit(follow_up);
    ASSERT_TRUE(id.ok());
    auto info = harness.api->dispatcher().Wait(*id);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->state, JobState::kDone);
  }
}

TEST(TcpServer, ConnectionsPastTheCapAreRefusedWithAStructuredError) {
  Harness harness(/*workers=*/1, /*max_connections=*/1);
  ASSERT_TRUE(harness.api->catalog()
                  .RegisterGraph("g", SmallGraph(5))
                  .ok());
  ASSERT_TRUE(harness.Start().ok());

  TestClient first(harness.server->port());
  ASSERT_TRUE(first.connected());
  // Prove the first session is live (and therefore counted) before the
  // second connection arrives.
  EXPECT_EQ(first.RoundTrip("evict nope"),
            "error: NOT_FOUND: no graph named 'nope' is registered");

  TestClient second(harness.server->port());
  ASSERT_TRUE(second.connected());
  EXPECT_EQ(second.ReadLine(),
            "error: FAILED_PRECONDITION: connection limit reached (1)");
  EXPECT_EQ(second.ReadLine(), "");  // and closed

  // The first session keeps working; once it quits, a new client fits.
  EXPECT_EQ(first.RoundTrip("evict nope"),
            "error: NOT_FOUND: no graph named 'nope' is registered");
  first.SendLine("quit");
  EXPECT_EQ(first.ReadLine(), "");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  bool admitted = false;
  while (!admitted && std::chrono::steady_clock::now() < deadline) {
    TestClient retry(harness.server->port());
    ASSERT_TRUE(retry.connected());
    const std::string line = retry.RoundTrip("jobs");
    admitted = line.find("connection limit") == std::string::npos &&
               !line.empty();
  }
  EXPECT_TRUE(admitted);

  const TcpServer::Stats stats = harness.server->stats();
  EXPECT_GE(stats.refused, 1u);
  EXPECT_GE(stats.accepted, 2u);
}

TEST(TcpServer, StopIsGracefulMidQueryAndIdempotent) {
  Harness harness(/*workers=*/1);
  ASSERT_TRUE(harness.api->catalog().RegisterGraph("big", SlowGraph()).ok());
  ASSERT_TRUE(harness.Start().ok());

  TestClient client(harness.server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_EQ(client.RoundTrip("submit big 3 6").find("job 1 submitted"), 0u);
  ASSERT_TRUE(WaitForJobState(harness.api->dispatcher(), 1,
                              JobState::kRunning));

  // Stop must cancel the running job (no worker pins the join) and
  // return promptly; the gtest timeout is the enforcement.
  harness.server->Stop();
  harness.server->Stop();  // idempotent
  // Stop requested the cancel; the worker retires the job at its next
  // cancellation poll (milliseconds) — wait for the terminal state.
  auto info = harness.api->dispatcher().Wait(1);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, JobState::kCancelled);
  // The client observes the close.
  client.SendLine("jobs");
  EXPECT_EQ(client.ReadLine(), "");

  // The shared api survives the server: a fresh server can start on it.
  TcpServerOptions options;
  TcpServer second(harness.api, options);
  ASSERT_TRUE(second.Start().ok());
  TestClient reuse(second.port());
  ASSERT_TRUE(reuse.connected());
  EXPECT_EQ(reuse.RoundTrip("evict nope"),
            "error: NOT_FOUND: no graph named 'nope' is registered");
}

TEST(TcpClient, OutOfRangeTimeoutIsRefusedBeforeAnySocketWork) {
  // Port 1 has no listener: a timeout that got past the check would
  // report IO_ERROR from connect, not INVALID_ARGUMENT.
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL, -1.0, 1e30}) {
    TcpClient client;
    Status status = client.Connect("127.0.0.1", 1, bad);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << bad << ": " << status.ToString();
    EXPECT_FALSE(client.connected());
    EXPECT_EQ(client.ConnectFramed("127.0.0.1:1", bad, 1, "a test").code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(TcpClient, ConnectFramedNegotiatesAndRefusesAnOlderPeer) {
  Harness harness;
  ASSERT_TRUE(harness.Start().ok());
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(harness.server->port());

  TcpClient client;
  ASSERT_TRUE(
      client.ConnectFramed(endpoint, 30, kProtocolVersion, "a test").ok());
  // The session is framed now: a framed request gets a framed answer.
  Request stats;
  stats.id = 7;
  stats.payload = StatsRequest{};
  ASSERT_TRUE(client.SendLine(FormatFramedRequest(stats)).ok());
  auto line = client.ReadLine();
  ASSERT_TRUE(line.ok());
  auto type = PeekFramedResponseType(*line);
  ASSERT_TRUE(type.ok()) << *line;
  EXPECT_EQ(*type, "stats");

  TcpClient newer;
  Status refused = newer.ConnectFramed(endpoint, 30, kProtocolVersion + 1,
                                       "a future verb");
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(refused.message(),
            endpoint + " negotiated protocol v" +
                std::to_string(kProtocolVersion) +
                " but a future verb needs v" +
                std::to_string(kProtocolVersion + 1) + " (upgrade it)");
}

#else  // !KPLEX_TEST_SOCKETS

TEST(TcpServer, UnsupportedPlatformReportsUnimplemented) {
  auto api = std::make_shared<ServiceApi>();
  TcpServer server(api, {});
  EXPECT_EQ(server.Start().code(), StatusCode::kUnimplemented);
}

#endif  // KPLEX_TEST_SOCKETS

}  // namespace
}  // namespace kplex
