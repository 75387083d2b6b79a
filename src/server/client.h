// Blocking client for the archisd wire protocol (server/protocol.h).
//
// One ArchisClient owns one connection. Calls are synchronous — write
// frame, read response — with socket send/receive timeouts so a dead or
// wedged server surfaces as kIOError instead of a hang. On an IO failure
// a ping or query reconnects and retries ONCE (it only reads, so running
// it twice is harmless). An update batch is never resent: the server may
// have committed it before the failure, so its IO error means "outcome
// unknown" and the caller decides.
//
// Not thread-safe: one client per thread, or external serialization.
#ifndef ARCHIS_SERVER_CLIENT_H_
#define ARCHIS_SERVER_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "server/protocol.h"

namespace archis::server {

struct ClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  /// TCP connect timeout.
  int connect_timeout_ms = 2000;
  /// Per-read/write socket timeout (SO_RCVTIMEO / SO_SNDTIMEO).
  int io_timeout_ms = 10000;
};

class ArchisClient {
 public:
  explicit ArchisClient(ClientOptions options);
  ~ArchisClient();
  ArchisClient(const ArchisClient&) = delete;
  ArchisClient& operator=(const ArchisClient&) = delete;

  /// Establishes the connection (optional: the first request connects
  /// lazily).
  Status Connect();

  /// Liveness round trip.
  Status Ping();

  /// Runs an XQuery; returns the serialized XML result document.
  /// `deadline_ms` is a relative per-request deadline (0 = server
  /// default). A shed request fails with kOverloaded, an expired one
  /// with kDeadlineExceeded — both carried back from the wire status.
  Result<std::string> Query(const std::string& xquery,
                            uint32_t deadline_ms = 0);

  /// Applies an update-batch script (see protocol.h grammar) as one
  /// transaction; returns the server's "committed N" acknowledgement. An
  /// IO error leaves the outcome unknown; the batch is never resent.
  Result<std::string> UpdateBatch(const std::string& script);

  void Close();
  bool connected() const { return fd_ >= 0; }

 private:
  Result<std::string> Roundtrip(FrameType type, const std::string& payload);

  ClientOptions opts_;
  int fd_ = -1;
};

}  // namespace archis::server

#endif  // ARCHIS_SERVER_CLIENT_H_
