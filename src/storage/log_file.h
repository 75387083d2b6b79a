// Append-only record log file: the durable substrate under the ArchIS
// write-ahead change log (archis/wal.*).
//
// The file is a sequence of CRC-framed records:
//
//   frame := length:u32le | crc32(payload):u32le | payload[length]
//
// Appends are buffered in the OS; Sync() makes everything appended so far
// durable (fsync). The reader is torn-tail tolerant: it stops at the first
// frame that is truncated or fails its CRC and reports the byte length of
// the valid prefix, which the opener then truncates to — a torn tail is a
// crash artifact, never an error.
//
// Crash testing: LogFileOptions::fail_after_bytes makes the writer fail
// (and write only a prefix of the crossing record) once the byte budget is
// exhausted, deterministically simulating a crash at any point in the
// file, including mid-record.
#ifndef ARCHIS_STORAGE_LOG_FILE_H_
#define ARCHIS_STORAGE_LOG_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace archis::storage {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `data`.
uint32_t Crc32(std::string_view data);

/// Appends one framed record (header + payload) to `out`.
// archis-lint: allow(void-mutator) pure in-memory string building, infallible
void AppendFrame(std::string_view payload, std::string* out);

/// Builds a frame in place, for payloads written piecewise: BeginFrame
/// reserves the header and returns its offset; the caller appends the
/// payload to `out`; EndFrame fills in the length and CRC of everything
/// appended since.
size_t BeginFrame(std::string* out);
// archis-lint: allow(void-mutator) pure in-memory string building, infallible
void EndFrame(size_t frame_start, std::string* out);

/// Configuration of an AppendLogFile.
struct LogFileOptions {
  std::string path;
  /// fsync on Sync(). Off trades durability for test speed.
  bool sync = true;
  /// Fault injection: after this many bytes have been written through this
  /// handle, every write fails with IOError; the write that crosses the
  /// budget persists only the bytes up to it (a torn record). 0 disables.
  uint64_t fail_after_bytes = 0;
};

/// One record recovered from a log file.
struct LogRecord {
  std::string payload;
  uint64_t offset = 0;  ///< byte offset of the frame start
};

/// Result of scanning a log file.
struct LogScan {
  std::vector<LogRecord> records;
  /// Bytes of the valid prefix; anything beyond is a torn tail.
  uint64_t valid_bytes = 0;
  /// Whether bytes past valid_bytes existed (a tail was torn off).
  bool torn_tail = false;
};

/// Reads every intact record of `path`. A missing file scans as empty.
Result<LogScan> ScanLogFile(const std::string& path);

/// Truncates `path` to `bytes` (drops a torn tail before appending).
Status TruncateLogFile(const std::string& path, uint64_t bytes);

/// The append handle. Not thread-safe: the WAL layer serializes writers
/// (group commit makes one leader write per sync batch).
class AppendLogFile {
 public:
  /// Opens `options.path` for appending, creating it if missing.
  static Result<std::unique_ptr<AppendLogFile>> Open(
      const LogFileOptions& options);

  ~AppendLogFile();
  AppendLogFile(const AppendLogFile&) = delete;
  AppendLogFile& operator=(const AppendLogFile&) = delete;

  /// Appends pre-framed bytes (one or more frames built with AppendFrame).
  /// Not durable until Sync(). After the first failure the handle is dead:
  /// every subsequent Append/Sync returns the same IOError (a crashed
  /// process does not come back).
  Status Append(std::string_view framed);

  /// Makes all appended bytes durable.
  Status Sync();

  /// Truncates the file to empty in place (the WAL checkpoint reset path).
  /// The handle stays open; subsequent appends start at offset zero. The
  /// bytes-written counter — and with it the fault-injection budget —
  /// carries over, so a handle near its injected crash stays near it.
  Status Reset();

  /// Bytes written through this handle (not counting pre-existing ones).
  uint64_t bytes_written() const { return bytes_written_; }

  /// Current end-of-file offset: file size at open time plus bytes written
  /// since, dropped back to zero by Reset().
  uint64_t end_offset() const { return end_offset_; }

 private:
  AppendLogFile(int fd, uint64_t base_offset, LogFileOptions options)
      : fd_(fd), end_offset_(base_offset), options_(std::move(options)) {}

  int fd_ = -1;
  uint64_t end_offset_ = 0;
  uint64_t bytes_written_ = 0;
  LogFileOptions options_;
  Status dead_;  ///< sticky first failure
};

}  // namespace archis::storage

#endif  // ARCHIS_STORAGE_LOG_FILE_H_
