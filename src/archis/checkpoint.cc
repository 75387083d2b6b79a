#include "archis/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/coding.h"
#include "common/log.h"
#include "storage/log_file.h"

namespace archis::core {

namespace {

using coding::AppendI64;
using coding::AppendLengthPrefixed;
using coding::AppendU32;
using coding::AppendU64;
using coding::ReadI64;
using coding::ReadLengthPrefixed;
using coding::ReadU32;
using coding::ReadU64;
using minirel::DataType;
using minirel::Schema;
using minirel::Tuple;

// "CKP1", little-endian.
constexpr uint32_t kMagic = 0x31504B43;
// Only the current format version decodes; an older manifest is
// Corruption (DESIGN.md §10.1 records the format break).
constexpr uint32_t kVersion = 5;

enum class RecordType : uint8_t { kHeader = 1, kRelation = 2, kFooter = 3 };

std::string Errno(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

Result<std::vector<Tuple>> DecodeRows(const Schema& schema,
                                      std::string_view data, size_t* pos) {
  ARCHIS_ASSIGN_OR_RETURN(uint32_t count, ReadU32(data, pos));
  std::vector<Tuple> rows;
  rows.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ARCHIS_ASSIGN_OR_RETURN(std::string encoded,
                            ReadLengthPrefixed(data, pos));
    ARCHIS_ASSIGN_OR_RETURN(Tuple row, Tuple::Decode(schema, encoded));
    rows.push_back(std::move(row));
  }
  return rows;
}

Result<CheckpointRelation> DecodeRelation(std::string_view payload,
                                          size_t* pos) {
  CheckpointRelation rel;
  ARCHIS_ASSIGN_OR_RETURN(rel.spec, DecodeRelationSpec(payload, pos));
  ARCHIS_ASSIGN_OR_RETURN(rel.open_days, ReadI64(payload, pos));
  ARCHIS_ASSIGN_OR_RETURN(rel.close_days, ReadI64(payload, pos));
  if (*pos >= payload.size()) {
    return Status::Corruption("checkpoint relation truncated (dropped flag)");
  }
  rel.dropped = payload[*pos] != 0;
  ++*pos;
  ARCHIS_ASSIGN_OR_RETURN(uint32_t nsurrogates, ReadU32(payload, pos));
  for (uint32_t i = 0; i < nsurrogates; ++i) {
    ARCHIS_ASSIGN_OR_RETURN(std::string key, ReadLengthPrefixed(payload, pos));
    ARCHIS_ASSIGN_OR_RETURN(int64_t id, ReadI64(payload, pos));
    rel.surrogates.emplace_back(std::move(key), id);
  }
  ARCHIS_ASSIGN_OR_RETURN(rel.next_surrogate, ReadI64(payload, pos));
  ARCHIS_ASSIGN_OR_RETURN(std::vector<Schema> schemas,
                          StoreSchemasFor(rel.spec));
  ARCHIS_ASSIGN_OR_RETURN(uint32_t nstores, ReadU32(payload, pos));
  if (nstores != schemas.size()) {
    return Status::Corruption(
        "checkpoint relation '" + rel.spec.name + "' has " +
        std::to_string(nstores) + " stores, schema implies " +
        std::to_string(schemas.size()));
  }
  for (uint32_t s = 0; s < nstores; ++s) {
    ARCHIS_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                            DecodeRows(schemas[s], payload, pos));
    rel.store_rows.push_back(std::move(rows));
  }
  ARCHIS_ASSIGN_OR_RETURN(rel.current_rows,
                          DecodeRows(rel.spec.schema, payload, pos));
  return rel;
}

Result<CheckpointManifest> DecodeHeader(std::string_view payload,
                                        size_t* pos) {
  CheckpointManifest manifest;
  ARCHIS_ASSIGN_OR_RETURN(uint32_t magic, ReadU32(payload, pos));
  ARCHIS_ASSIGN_OR_RETURN(uint32_t version, ReadU32(payload, pos));
  if (magic != kMagic) {
    return Status::Corruption("checkpoint manifest bad magic");
  }
  if (version != kVersion) {
    return Status::Corruption("checkpoint manifest version " +
                              std::to_string(version) + " unsupported");
  }
  ARCHIS_ASSIGN_OR_RETURN(manifest.seq, ReadU64(payload, pos));
  ARCHIS_ASSIGN_OR_RETURN(manifest.clock_days, ReadI64(payload, pos));
  ARCHIS_ASSIGN_OR_RETURN(manifest.next_txn_id, ReadU64(payload, pos));
  ARCHIS_ASSIGN_OR_RETURN(manifest.absorbed_commit_seq, ReadU64(payload, pos));
  ARCHIS_ASSIGN_OR_RETURN(uint32_t nactive, ReadU32(payload, pos));
  for (uint32_t i = 0; i < nactive; ++i) {
    ARCHIS_ASSIGN_OR_RETURN(uint64_t id, ReadU64(payload, pos));
    manifest.active_txn_ids.push_back(id);
  }
  return manifest;
}

Status WriteFileDurably(const std::string& path, const std::string& bytes,
                        bool sync) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError(Errno("open", path));
  size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = Status::IOError(Errno("write", path));
      ::close(fd);
      return st;
    }
    done += static_cast<size_t>(n);
  }
  if (sync && ::fsync(fd) != 0) {
    Status st = Status::IOError(Errno("fsync", path));
    ::close(fd);
    return st;
  }
  ::close(fd);
  return Status::OK();
}

Status SyncDirectoryOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::IOError(Errno("open dir", dir));
  Status st;
  if (::fsync(fd) != 0) st = Status::IOError(Errno("fsync dir", dir));
  ::close(fd);
  return st;
}

}  // namespace

std::string CheckpointPath(const std::string& wal_path) {
  return wal_path + ".ckpt";
}

std::string CheckpointPrevPath(const std::string& wal_path) {
  return wal_path + ".ckpt.prev";
}

std::string CheckpointTmpPath(const std::string& wal_path) {
  return wal_path + ".ckpt.tmp";
}

Result<std::vector<Schema>> StoreSchemasFor(const RelationSpec& spec) {
  std::vector<size_t> key_positions;
  for (const std::string& k : spec.key_columns) {
    ARCHIS_ASSIGN_OR_RETURN(size_t pos, spec.schema.ColumnIndex(k));
    key_positions.push_back(pos);
  }
  std::vector<Schema> schemas;
  schemas.push_back(Schema({{"id", DataType::kInt64},
                            {"tstart", DataType::kDate},
                            {"tend", DataType::kDate}}));
  for (size_t i = 0; i < spec.schema.num_columns(); ++i) {
    bool is_key = false;
    for (size_t kp : key_positions) is_key |= (kp == i);
    if (is_key) continue;
    const auto& col = spec.schema.column(i);
    schemas.push_back(Schema({{"id", DataType::kInt64},
                              {col.name, col.type},
                              {"tstart", DataType::kDate},
                              {"tend", DataType::kDate}}));
  }
  return schemas;
}

CheckpointWriter::CheckpointWriter(const CheckpointManifest& header)
    : seq_(header.seq) {
  const size_t frame = storage::BeginFrame(&out_);
  out_.push_back(static_cast<char>(RecordType::kHeader));
  AppendU32(kMagic, &out_);
  AppendU32(kVersion, &out_);
  AppendU64(header.seq, &out_);
  AppendI64(header.clock_days, &out_);
  AppendU64(header.next_txn_id, &out_);
  AppendU64(header.absorbed_commit_seq, &out_);
  AppendU32(static_cast<uint32_t>(header.active_txn_ids.size()), &out_);
  for (uint64_t id : header.active_txn_ids) AppendU64(id, &out_);
  storage::EndFrame(frame, &out_);
}

Status CheckpointWriter::BeginRelation(const CheckpointRelation& rel) {
  if (!lists_.empty()) {
    return Status::Internal("checkpoint relation opened inside another");
  }
  ARCHIS_ASSIGN_OR_RETURN(lists_, StoreSchemasFor(rel.spec));
  const uint32_t nstores = static_cast<uint32_t>(lists_.size());
  lists_.push_back(rel.spec.schema);
  frame_start_ = storage::BeginFrame(&out_);
  out_.push_back(static_cast<char>(RecordType::kRelation));
  EncodeRelationSpec(rel.spec, &out_);
  AppendI64(rel.open_days, &out_);
  AppendI64(rel.close_days, &out_);
  out_.push_back(rel.dropped ? 1 : 0);
  AppendU32(static_cast<uint32_t>(rel.surrogates.size()), &out_);
  for (const auto& [key, id] : rel.surrogates) {
    AppendLengthPrefixed(key, &out_);
    AppendI64(id, &out_);
  }
  AppendI64(rel.next_surrogate, &out_);
  AppendU32(nstores, &out_);
  list_ = 0;
  count_at_ = out_.size();
  count_ = 0;
  AppendU32(0, &out_);
  return Status::OK();
}

Status CheckpointWriter::AddRow(const Tuple& row) {
  if (list_ >= lists_.size()) {
    return Status::Internal("checkpoint row outside a relation");
  }
  ARCHIS_RETURN_NOT_OK(row.CheckSchema(lists_[list_]));
  // Length-prefixed row, encoded in place.
  const size_t len_at = out_.size();
  AppendU32(0, &out_);
  for (const minirel::Value& v : row.values()) v.EncodeTo(&out_);
  const uint32_t len = static_cast<uint32_t>(out_.size() - len_at - 4);
  std::memcpy(out_.data() + len_at, &len, sizeof(len));
  ++count_;
  ++rows_;
  return Status::OK();
}

Status CheckpointWriter::NextRowList() {
  if (list_ + 1 >= lists_.size()) {
    return Status::Internal("checkpoint relation has no further row list");
  }
  std::memcpy(out_.data() + count_at_, &count_, sizeof(count_));
  ++list_;
  count_at_ = out_.size();
  count_ = 0;
  AppendU32(0, &out_);
  return Status::OK();
}

Status CheckpointWriter::EndRelation() {
  if (lists_.empty() || list_ + 1 != lists_.size()) {
    return Status::Internal("checkpoint relation closed before its rows");
  }
  std::memcpy(out_.data() + count_at_, &count_, sizeof(count_));
  storage::EndFrame(frame_start_, &out_);
  lists_.clear();
  return Status::OK();
}

std::string CheckpointWriter::Finish() && {
  const size_t frame = storage::BeginFrame(&out_);
  out_.push_back(static_cast<char>(RecordType::kFooter));
  AppendU64(seq_, &out_);
  storage::EndFrame(frame, &out_);
  return std::move(out_);
}

Result<CheckpointManifest> ReadCheckpointManifest(const std::string& path) {
  ARCHIS_ASSIGN_OR_RETURN(storage::LogScan scan, storage::ScanLogFile(path));
  if (scan.records.empty()) {
    return Status::Corruption("checkpoint manifest '" + path +
                              "' missing or empty");
  }
  CheckpointManifest manifest;
  for (size_t i = 0; i < scan.records.size(); ++i) {
    std::string_view payload = scan.records[i].payload;
    if (payload.empty()) {
      return Status::Corruption("checkpoint record with empty payload");
    }
    const auto type = static_cast<RecordType>(payload[0]);
    const bool first = i == 0;
    const bool last = i + 1 == scan.records.size();
    size_t pos = 1;
    if (type == RecordType::kHeader && first) {
      ARCHIS_ASSIGN_OR_RETURN(manifest, DecodeHeader(payload, &pos));
    } else if (type == RecordType::kRelation && !first) {
      ARCHIS_ASSIGN_OR_RETURN(CheckpointRelation rel,
                              DecodeRelation(payload, &pos));
      manifest.relations.push_back(std::move(rel));
    } else if (type == RecordType::kFooter && !first && last) {
      ARCHIS_ASSIGN_OR_RETURN(uint64_t seq, ReadU64(payload, &pos));
      if (seq != manifest.seq) {
        return Status::Corruption("checkpoint footer seq mismatch");
      }
      return manifest;
    } else {
      return Status::Corruption("checkpoint record " + std::to_string(i) +
                                " of type " + std::to_string(payload[0]) +
                                " out of place");
    }
  }
  return Status::Corruption("checkpoint manifest '" + path +
                            "' has no footer (torn write)");
}

LoadedCheckpoint LoadCheckpoint(const std::string& wal_path) {
  LoadedCheckpoint loaded;
  Result<CheckpointManifest> newest =
      ReadCheckpointManifest(CheckpointPath(wal_path));
  if (newest.ok()) {
    loaded.manifest = std::move(*newest);
    return loaded;
  }
  Result<CheckpointManifest> prev =
      ReadCheckpointManifest(CheckpointPrevPath(wal_path));
  if (prev.ok()) {
    // The newest manifest was unreadable (torn install or corruption) but
    // the previous one is intact — recovery proceeds from it, replaying
    // more WAL. Worth a warning: a torn install is expected after a crash
    // mid-checkpoint, repeated ones are not.
    logging::Warn("checkpoint.fallback")
        .Kv("error", newest.status().ToString());
    loaded.manifest = std::move(*prev);
    loaded.fell_back = true;
    return loaded;
  }
  // Neither manifest is readable: normal for a store that has never
  // checkpointed, so keep it off the warning channel.
  logging::Debug("checkpoint.none")
      .Kv("newest", newest.status().ToString())
      .Kv("prev", prev.status().ToString());
  return loaded;
}

Status InstallCheckpointManifest(const std::string& wal_path,
                                 const std::string& bytes,
                                 CheckpointCrashPoint crash) {
  const std::string tmp = CheckpointTmpPath(wal_path);
  const std::string ckpt = CheckpointPath(wal_path);
  const std::string prev = CheckpointPrevPath(wal_path);
  if (crash == CheckpointCrashPoint::kBeforeManifestSync) {
    // Write without fsync, then stop: the temp file exists but nothing
    // guarantees its bytes survived — exactly a pre-fsync power loss.
    ARCHIS_RETURN_NOT_OK(WriteFileDurably(tmp, bytes, /*sync=*/false));
    return Status::IOError("injected crash before checkpoint manifest fsync");
  }
  ARCHIS_RETURN_NOT_OK(WriteFileDurably(tmp, bytes, /*sync=*/true));
  if (crash == CheckpointCrashPoint::kBeforeInstall) {
    return Status::IOError("injected crash before checkpoint install");
  }
  // Rotate: the previous manifest stays readable until the new one is in
  // place, so a crash between the renames still leaves one usable
  // manifest (the fallback path bumps a counter when it is taken).
  if (::rename(ckpt.c_str(), prev.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError(Errno("rename", ckpt));
  }
  if (::rename(tmp.c_str(), ckpt.c_str()) != 0) {
    return Status::IOError(Errno("rename", tmp));
  }
  return SyncDirectoryOf(ckpt);
}

}  // namespace archis::core
