// TcpClient: the client half of the service's TCP plumbing — a
// blocking, line-oriented connection to a `serve --listen` process.
// The coordinator runs one per worker lane; the CLI's remote commands,
// tests and tools use it to script a server. Deliberately minimal:
// connect (plain, or framed through the one hello handshake), send a
// line, read a line. An optional timeout guards both
// directions so a hung worker can surface as a structured error instead
// of a stuck coordinator (timeouts report TIMED_OUT, disconnects
// IO_ERROR — the coordinator requeues the chunk elsewhere either way).
//
// POSIX sockets only, like TcpServer; Connect reports Unimplemented on
// other platforms. Not thread-safe: one thread drives one client.

#ifndef KPLEX_SERVICE_TCP_CLIENT_H_
#define KPLEX_SERVICE_TCP_CLIENT_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "util/status.h"

namespace kplex {

/// Splits "host:port" (port 1..65535, decimal digits only) — the one
/// endpoint grammar of every remote command and of worker
/// registration.
Status SplitEndpoint(const std::string& endpoint, std::string* host,
                     uint16_t* port);

class TcpClient {
 public:
  TcpClient() = default;
  ~TcpClient();

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;
  TcpClient(TcpClient&& other) noexcept;
  TcpClient& operator=(TcpClient&& other) noexcept;

  /// Connects to host:port. `timeout_seconds` (0 = none) bounds every
  /// subsequent send and receive, not the connect itself; it must be a
  /// finite number in [0, kMaxDuration] (core/options.h), else
  /// InvalidArgument before any socket work.
  Status Connect(const std::string& host, uint16_t port,
                 double timeout_seconds = 0);

  /// Connect to a "host:port" endpoint (SplitEndpoint's grammar).
  Status ConnectEndpoint(const std::string& endpoint,
                         double timeout_seconds = 0);

  /// The one framed-client opener: ConnectEndpoint, then the handshake
  /// `hello proto=<kProtocolVersion> mode=framed`. A peer that
  /// negotiates below `min_version` is refused with FailedPrecondition
  /// "ENDPOINT negotiated protocol vN but NEED needs vM (upgrade it)";
  /// `need` names what requires the version ("coordinated mining").
  Status ConnectFramed(const std::string& endpoint, double timeout_seconds,
                       uint32_t min_version, const std::string& need);

  bool connected() const { return fd_ >= 0; }

  /// Sends `line` plus a trailing newline.
  Status SendLine(const std::string& line);

  /// Reads up to the next newline (stripped). IO_ERROR on EOF or a
  /// reset, TIMED_OUT when the receive timeout elapses.
  StatusOr<std::string> ReadLine();

  /// Half-close from another thread: unblocks a SendLine/ReadLine the
  /// owning thread is parked in (they then return IO_ERROR). This is
  /// the ONE cross-thread-safe method — the coordinator uses it to
  /// abort lanes blocked on in-flight shards. The fd stays allocated
  /// until the owner calls Close(), so a concurrent Shutdown can never
  /// touch a recycled descriptor.
  void Shutdown();

  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes past the last returned newline
  /// Serializes Shutdown against Close (fd lifecycle only; data calls
  /// stay single-threaded).
  std::mutex fd_mutex_;
};

}  // namespace kplex

#endif  // KPLEX_SERVICE_TCP_CLIENT_H_
