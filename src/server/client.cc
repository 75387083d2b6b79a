#include "server/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace archis::server {
namespace {

/// Non-blocking connect with a poll-based timeout, then back to blocking.
Result<int> ConnectTo(const std::string& host, int port, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address '" + host + "'");
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLOUT;
    rc = ::poll(&p, 1, timeout_ms);
    if (rc <= 0) {
      ::close(fd);
      return Status::IOError(rc == 0 ? "connect timed out"
                                     : std::string("connect poll: ") +
                                           std::strerror(errno));
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      ::close(fd);
      return Status::IOError(std::string("connect: ") + std::strerror(err));
    }
  } else if (rc != 0) {
    const Status st =
        Status::IOError(std::string("connect: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  ::fcntl(fd, F_SETFL, flags);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void SetIoTimeout(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

ArchisClient::ArchisClient(ClientOptions options)
    : opts_(std::move(options)) {}

ArchisClient::~ArchisClient() { Close(); }

Status ArchisClient::Connect() {
  if (fd_ >= 0) return Status::OK();
  ARCHIS_ASSIGN_OR_RETURN(
      fd_, ConnectTo(opts_.host, opts_.port, opts_.connect_timeout_ms));
  if (opts_.io_timeout_ms > 0) SetIoTimeout(fd_, opts_.io_timeout_ms);
  return Status::OK();
}

void ArchisClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::string> ArchisClient::Roundtrip(FrameType type,
                                            const std::string& payload) {
  for (int attempt = 0;; ++attempt) {
    Status st = Connect();
    if (st.ok()) {
      st = WriteFrame(fd_, static_cast<uint8_t>(type), payload);
      if (st.ok()) {
        Result<Frame> resp = ReadFrame(fd_);
        if (resp.ok()) {
          if (resp->type == static_cast<uint8_t>(WireStatus::kOk)) {
            return std::move(resp->payload);
          }
          return StatusFromWire(resp->type, std::move(resp->payload));
        }
        st = resp.status();
      }
    }
    // IO-level failure: the connection is unusable. A ping or query is
    // retried once on a fresh one; an update batch is not, because the
    // server may have committed it before the failure. Server-reported
    // errors returned above are never retried.
    Close();
    if (type == FrameType::kUpdateBatch || attempt >= 1) return st;
  }
}

Status ArchisClient::Ping() {
  return Roundtrip(FrameType::kPing, "").status();
}

Result<std::string> ArchisClient::Query(const std::string& xquery,
                                        uint32_t deadline_ms) {
  return Roundtrip(FrameType::kQuery,
                   EncodeQueryPayload(deadline_ms, xquery));
}

Result<std::string> ArchisClient::UpdateBatch(const std::string& script) {
  return Roundtrip(FrameType::kUpdateBatch, script);
}

}  // namespace archis::server
