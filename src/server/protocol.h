// Wire protocol of archisd (DESIGN.md §15).
//
// Both directions use the same length-prefixed frame:
//
//   [4 bytes LE  payload_len] [1 byte type/status] [payload_len bytes]
//
// Requests carry a FrameType byte; responses carry a WireStatus byte and
// the payload is either the result document (kOk) or the error message.
// The length covers only the payload, not the type byte, and is validated
// against kMaxFrameBytes BEFORE any allocation: a peer claiming a 2 GiB
// frame gets an error response and a closed connection, not a 2 GiB
// buffer.
//
// Query request payload:   [4 bytes LE deadline_ms (0 = server default)]
//                          [XQuery text]
// Update request payload:  newline-separated script, lines of
//                          `advance YYYY-MM-DD`,
//                          `insert rel|v1|v2|...` (full row),
//                          `update rel|v1|v2|...` (full row; key columns
//                          identify the current version), and
//                          `delete rel|k1|k2|...` (key values only).
//                          The whole batch commits as one transaction.
// Ping payload:            empty; the response payload is "pong".
#ifndef ARCHIS_SERVER_PROTOCOL_H_
#define ARCHIS_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace archis::server {

/// Hard ceiling on one frame's payload. Large enough for any Table-3
/// result document, small enough that a hostile length prefix cannot make
/// the server allocate unbounded memory.
constexpr uint32_t kMaxFrameBytes = 4u << 20;  // 4 MiB

/// Request frame types.
enum class FrameType : uint8_t {
  kPing = 1,
  kQuery = 2,
  kUpdateBatch = 3,
};

/// Response status byte. A stable wire enum, mapped explicitly to and
/// from StatusCode — never a raw cast of the in-process enum, whose
/// numbering is free to change.
enum class WireStatus : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kParseError = 3,
  kUnsupported = 4,
  kConflict = 5,
  /// Admission control shed the request (queue full / too many
  /// connections). Retryable after backoff.
  kOverloaded = 6,
  /// The request's deadline passed before it completed.
  kDeadlineExceeded = 7,
  /// The server is draining for shutdown and refused new work.
  kShuttingDown = 8,
  kInternal = 9,
};

/// StatusCode -> wire byte (unknown codes collapse to kInternal).
WireStatus WireStatusOf(StatusCode code);

/// Wire byte -> StatusCode for the client's reconstructed Status.
/// kShuttingDown maps to kAborted (the work never started).
StatusCode StatusCodeOfWire(uint8_t wire);

/// Rebuilds a Status from a non-OK response frame (wire byte + message
/// payload). A kOk byte yields OK with the message dropped.
Status StatusFromWire(uint8_t wire, std::string message);

/// Human-readable name ("Ok", "Overloaded", ...).
const char* WireStatusName(WireStatus s);

/// One parsed frame (request or response; `type` is FrameType or
/// WireStatus depending on direction).
struct Frame {
  uint8_t type = 0;
  std::string payload;
};

/// Reads exactly `n` bytes, retrying on EINTR and short reads. A clean
/// EOF before the first byte returns kAborted ("peer closed"); EOF
/// mid-buffer returns kIOError ("truncated").
[[nodiscard]] Status ReadFull(int fd, void* buf, size_t n);

/// Writes exactly `n` bytes to socket `fd`, retrying on EINTR and short
/// writes. A peer hang-up is an IOError, never a SIGPIPE.
[[nodiscard]] Status WriteFull(int fd, const void* buf, size_t n);

/// Reads one frame. Rejects payload lengths above kMaxFrameBytes with
/// kInvalidArgument before allocating anything.
Result<Frame> ReadFrame(int fd);

/// Writes one frame (length prefix + type byte + payload).
[[nodiscard]] Status WriteFrame(int fd, uint8_t type, std::string_view payload);

/// Encodes a query request payload (deadline prefix + text).
std::string EncodeQueryPayload(uint32_t deadline_ms, std::string_view xquery);

/// Splits a query request payload. Fails on a short (<4 byte) payload.
Result<std::pair<uint32_t, std::string>> DecodeQueryPayload(
    std::string_view payload);

}  // namespace archis::server

#endif  // ARCHIS_SERVER_PROTOCOL_H_
