#include "server/protocol.h"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

namespace archis::server {

WireStatus WireStatusOf(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:               return WireStatus::kOk;
    case StatusCode::kInvalidArgument:  return WireStatus::kInvalidArgument;
    case StatusCode::kNotFound:         return WireStatus::kNotFound;
    case StatusCode::kParseError:       return WireStatus::kParseError;
    case StatusCode::kUnsupported:      return WireStatus::kUnsupported;
    case StatusCode::kConflict:         return WireStatus::kConflict;
    case StatusCode::kOverloaded:       return WireStatus::kOverloaded;
    case StatusCode::kDeadlineExceeded: return WireStatus::kDeadlineExceeded;
    default:                            return WireStatus::kInternal;
  }
}

StatusCode StatusCodeOfWire(uint8_t wire) {
  switch (static_cast<WireStatus>(wire)) {
    case WireStatus::kOk:               return StatusCode::kOk;
    case WireStatus::kInvalidArgument:  return StatusCode::kInvalidArgument;
    case WireStatus::kNotFound:         return StatusCode::kNotFound;
    case WireStatus::kParseError:       return StatusCode::kParseError;
    case WireStatus::kUnsupported:      return StatusCode::kUnsupported;
    case WireStatus::kConflict:         return StatusCode::kConflict;
    case WireStatus::kOverloaded:       return StatusCode::kOverloaded;
    case WireStatus::kDeadlineExceeded: return StatusCode::kDeadlineExceeded;
    case WireStatus::kShuttingDown:     return StatusCode::kAborted;
    case WireStatus::kInternal:         return StatusCode::kInternal;
  }
  return StatusCode::kInternal;
}

Status StatusFromWire(uint8_t wire, std::string message) {
  switch (StatusCodeOfWire(wire)) {
    case StatusCode::kOk:               return Status::OK();
    case StatusCode::kInvalidArgument:  return Status::InvalidArgument(std::move(message));
    case StatusCode::kNotFound:         return Status::NotFound(std::move(message));
    case StatusCode::kParseError:       return Status::ParseError(std::move(message));
    case StatusCode::kUnsupported:      return Status::Unsupported(std::move(message));
    case StatusCode::kConflict:         return Status::Conflict(std::move(message));
    case StatusCode::kOverloaded:       return Status::Overloaded(std::move(message));
    case StatusCode::kDeadlineExceeded: return Status::DeadlineExceeded(std::move(message));
    case StatusCode::kAborted:          return Status::Aborted(std::move(message));
    default:                            return Status::Internal(std::move(message));
  }
}

const char* WireStatusName(WireStatus s) {
  switch (s) {
    case WireStatus::kOk:               return "Ok";
    case WireStatus::kInvalidArgument:  return "InvalidArgument";
    case WireStatus::kNotFound:         return "NotFound";
    case WireStatus::kParseError:       return "ParseError";
    case WireStatus::kUnsupported:      return "Unsupported";
    case WireStatus::kConflict:         return "Conflict";
    case WireStatus::kOverloaded:       return "Overloaded";
    case WireStatus::kDeadlineExceeded: return "DeadlineExceeded";
    case WireStatus::kShuttingDown:     return "ShuttingDown";
    case WireStatus::kInternal:         return "Internal";
  }
  return "Unknown";
}

Status ReadFull(int fd, void* buf, size_t n) {
  char* p = static_cast<char*>(buf);
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::read(fd, p + got, n - got);
    if (r > 0) {
      got += static_cast<size_t>(r);
      continue;
    }
    if (r == 0) {
      if (got == 0) return Status::Aborted("peer closed");
      return Status::IOError("truncated frame: peer closed mid-read");
    }
    if (errno == EINTR) continue;
    return Status::IOError(std::string("read: ") + std::strerror(errno));
  }
  return Status::OK();
}

Status WriteFull(int fd, const void* buf, size_t n) {
  const char* p = static_cast<const char*>(buf);
  size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a peer that hung up surfaces as EPIPE here instead of
    // a process-killing SIGPIPE, whatever the embedder's signal setup.
    ssize_t r = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
    if (r >= 0) {
      sent += static_cast<size_t>(r);
      continue;
    }
    if (errno == EINTR) continue;
    return Status::IOError(std::string("write: ") + std::strerror(errno));
  }
  return Status::OK();
}

Result<Frame> ReadFrame(int fd) {
  unsigned char header[5];
  ARCHIS_RETURN_NOT_OK(ReadFull(fd, header, sizeof(header)));
  const uint32_t len = static_cast<uint32_t>(header[0]) |
                       static_cast<uint32_t>(header[1]) << 8 |
                       static_cast<uint32_t>(header[2]) << 16 |
                       static_cast<uint32_t>(header[3]) << 24;
  if (len > kMaxFrameBytes) {
    // Reject on the prefix alone: the claimed payload is never allocated
    // or read, so an attacker-controlled length cannot balloon memory.
    return Status::InvalidArgument("frame too large: " + std::to_string(len) +
                                   " bytes (max " +
                                   std::to_string(kMaxFrameBytes) + ")");
  }
  Frame frame;
  frame.type = header[4];
  frame.payload.resize(len);
  if (len > 0) {
    ARCHIS_RETURN_NOT_OK(ReadFull(fd, frame.payload.data(), len));
  }
  return frame;
}

Status WriteFrame(int fd, uint8_t type, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame payload exceeds kMaxFrameBytes");
  }
  const uint32_t len = static_cast<uint32_t>(payload.size());
  std::string wire;
  wire.reserve(5 + payload.size());
  wire.push_back(static_cast<char>(len & 0xff));
  wire.push_back(static_cast<char>((len >> 8) & 0xff));
  wire.push_back(static_cast<char>((len >> 16) & 0xff));
  wire.push_back(static_cast<char>((len >> 24) & 0xff));
  wire.push_back(static_cast<char>(type));
  wire.append(payload);
  return WriteFull(fd, wire.data(), wire.size());
}

std::string EncodeQueryPayload(uint32_t deadline_ms, std::string_view xquery) {
  std::string payload;
  payload.reserve(4 + xquery.size());
  payload.push_back(static_cast<char>(deadline_ms & 0xff));
  payload.push_back(static_cast<char>((deadline_ms >> 8) & 0xff));
  payload.push_back(static_cast<char>((deadline_ms >> 16) & 0xff));
  payload.push_back(static_cast<char>((deadline_ms >> 24) & 0xff));
  payload.append(xquery);
  return payload;
}

Result<std::pair<uint32_t, std::string>> DecodeQueryPayload(
    std::string_view payload) {
  if (payload.size() < 4) {
    return Status::InvalidArgument(
        "query payload shorter than its 4-byte deadline prefix");
  }
  const auto* p = reinterpret_cast<const unsigned char*>(payload.data());
  const uint32_t deadline_ms = static_cast<uint32_t>(p[0]) |
                               static_cast<uint32_t>(p[1]) << 8 |
                               static_cast<uint32_t>(p[2]) << 16 |
                               static_cast<uint32_t>(p[3]) << 24;
  return std::make_pair(deadline_ms, std::string(payload.substr(4)));
}

}  // namespace archis::server
