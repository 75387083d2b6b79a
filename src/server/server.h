// archisd network front end: the ArchIS facade behind a socket.
//
// Architecture (DESIGN.md §15): one accept thread per listener hands each
// connection to a session thread that reads frames; every query/update
// request is pushed onto ONE bounded queue drained by a fixed worker
// pool. The queue is the admission valve — when it is full the session
// answers WireStatus::kOverloaded immediately (never a silent drop, never
// an unbounded backlog), and the client decides when to retry. Each
// request carries an absolute deadline that the worker re-checks before
// executing (a request can go stale while queued) and that the query
// executor observes at scan boundaries, so a long merge-scan cancels
// mid-flight instead of holding a worker hostage.
//
// A second, optional HTTP/1.0 listener serves `GET /metrics` (Prometheus
// text exposition of the process-wide registry) and `POST /query` (body =
// XQuery, response = XML). HTTP queries share the same admission queue
// and deadline rules as binary ones.
//
// Shutdown is graceful: Stop() closes the listeners, marks the queue
// closed (new pushes answer kShuttingDown), lets the workers drain every
// request already admitted, then joins all threads. In-flight work
// completes; nothing is abandoned with an unresolved response.
#ifndef ARCHIS_SERVER_SERVER_H_
#define ARCHIS_SERVER_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"

namespace archis::core {
class ArchIS;
}

namespace archis::server {

/// Longest a session's send may make no progress before the session is
/// dropped (SO_SNDTIMEO). A peer that stops reading would otherwise hold
/// its session in send, and Stop() waits for every session. A send that
/// moved some bytes before timing out returns them and the next one waits
/// again, so a peer whose zero window still admits a trickle (the
/// sender's window probes) holds the session for a few such periods.
inline constexpr int kSessionSendTimeoutSeconds = 2;

struct ServerOptions {
  /// Bind address. The default keeps archisd loopback-only; exposing it
  /// beyond the host is an explicit operator decision.
  std::string host = "127.0.0.1";
  /// Binary-protocol port; 0 picks an ephemeral port (see port()).
  int port = 0;
  /// HTTP shim port; -1 disables the shim, 0 picks an ephemeral port.
  int http_port = -1;
  /// Worker threads draining the request queue.
  int workers = 4;
  /// Bounded request-queue capacity — the admission-control knob. A push
  /// into a full queue is shed with kOverloaded.
  size_t queue_capacity = 64;
  /// Deadline applied to requests that do not carry their own, in
  /// milliseconds from admission. 0 = no default deadline.
  uint32_t default_deadline_ms = 0;
  /// Connection ceiling across both listeners; excess accepts are
  /// answered with an overload frame and closed.
  size_t max_connections = 256;
  /// Test hook: every worker sleeps this long before executing a
  /// request, making queue saturation deterministic in tests. 0 in
  /// production.
  uint32_t test_delay_ms = 0;
};

/// A running archisd instance. Construction binds + listens + spawns
/// threads; destruction (or Stop) drains and joins them. The ArchIS
/// facade is borrowed and must outlive the server.
class ArchisServer {
 public:
  static Result<std::unique_ptr<ArchisServer>> Start(core::ArchIS* db,
                                                     ServerOptions options);

  ~ArchisServer();
  ArchisServer(const ArchisServer&) = delete;
  ArchisServer& operator=(const ArchisServer&) = delete;

  /// Graceful shutdown: refuse new connections and new frames, drain every
  /// admitted request, join all threads. Idempotent. A session stuck
  /// sending to a peer that does not read holds it for a few
  /// kSessionSendTimeoutSeconds periods.
  Status Stop();

  /// Actual bound ports (resolves port 0).
  int port() const;
  int http_port() const;

 private:
  struct Impl;
  explicit ArchisServer(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace archis::server

#endif  // ARCHIS_SERVER_SERVER_H_
