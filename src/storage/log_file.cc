#include "storage/log_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>

namespace archis::storage {

namespace {

constexpr size_t kFrameHeader = 8;  // u32 length + u32 crc

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void AppendU32(uint32_t v, std::string* out) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

std::string Errno(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void AppendFrame(std::string_view payload, std::string* out) {
  AppendU32(static_cast<uint32_t>(payload.size()), out);
  AppendU32(Crc32(payload), out);
  out->append(payload);
}

size_t BeginFrame(std::string* out) {
  const size_t start = out->size();
  out->append(kFrameHeader, '\0');
  return start;
}

void EndFrame(size_t frame_start, std::string* out) {
  const std::string_view payload =
      std::string_view(*out).substr(frame_start + kFrameHeader);
  const uint32_t header[2] = {static_cast<uint32_t>(payload.size()),
                              Crc32(payload)};
  std::memcpy(out->data() + frame_start, header, kFrameHeader);
}

Result<LogScan> ScanLogFile(const std::string& path) {
  LogScan scan;
  std::ifstream in(path, std::ios::binary);
  if (!in) return scan;  // no file yet: empty log
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  size_t pos = 0;
  while (pos + kFrameHeader <= data.size()) {
    uint32_t len = LoadU32(data.data() + pos);
    uint32_t crc = LoadU32(data.data() + pos + 4);
    if (pos + kFrameHeader + len > data.size()) break;  // torn payload
    std::string_view payload(data.data() + pos + kFrameHeader, len);
    if (Crc32(payload) != crc) break;  // torn / corrupt frame
    scan.records.push_back({std::string(payload), pos});
    pos += kFrameHeader + len;
  }
  scan.valid_bytes = pos;
  scan.torn_tail = pos < data.size();
  return scan;
}

Status TruncateLogFile(const std::string& path, uint64_t bytes) {
  if (::truncate(path.c_str(), static_cast<off_t>(bytes)) != 0) {
    // A log that was never created has nothing to truncate.
    if (errno == ENOENT && bytes == 0) return Status::OK();
    return Status::IOError(Errno("truncate", path));
  }
  return Status::OK();
}

Result<std::unique_ptr<AppendLogFile>> AppendLogFile::Open(
    const LogFileOptions& options) {
  int fd = ::open(options.path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IOError(Errno("open", options.path));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError(Errno("fstat", options.path));
  }
  return std::unique_ptr<AppendLogFile>(new AppendLogFile(
      fd, static_cast<uint64_t>(st.st_size), options));
}

AppendLogFile::~AppendLogFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status AppendLogFile::Append(std::string_view framed) {
  ARCHIS_RETURN_NOT_OK(dead_);
  size_t allowed = framed.size();
  const uint64_t budget = options_.fail_after_bytes;
  if (budget != 0) {
    if (bytes_written_ >= budget) {
      allowed = 0;
    } else if (bytes_written_ + framed.size() > budget) {
      allowed = static_cast<size_t>(budget - bytes_written_);
    }
  }
  size_t done = 0;
  while (done < allowed) {
    ssize_t n = ::write(fd_, framed.data() + done, allowed - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      dead_ = Status::IOError(Errno("write", options_.path));
      return dead_;
    }
    done += static_cast<size_t>(n);
    bytes_written_ += static_cast<uint64_t>(n);
    end_offset_ += static_cast<uint64_t>(n);
  }
  if (allowed < framed.size()) {
    dead_ = Status::IOError("injected crash after " +
                            std::to_string(bytes_written_) + " bytes in '" +
                            options_.path + "'");
    return dead_;
  }
  return Status::OK();
}

Status AppendLogFile::Sync() {
  ARCHIS_RETURN_NOT_OK(dead_);
  if (!options_.sync) return Status::OK();
  if (::fsync(fd_) != 0) {
    dead_ = Status::IOError(Errno("fsync", options_.path));
    return dead_;
  }
  return Status::OK();
}

Status AppendLogFile::Reset() {
  ARCHIS_RETURN_NOT_OK(dead_);
  if (::ftruncate(fd_, 0) != 0) {
    dead_ = Status::IOError(Errno("ftruncate", options_.path));
    return dead_;
  }
  end_offset_ = 0;
  return Status::OK();
}

}  // namespace archis::storage
