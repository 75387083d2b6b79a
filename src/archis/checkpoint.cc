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
using storage::AppendFrame;

// "CKP1", little-endian.
constexpr uint32_t kMagic = 0x31504B43;
// Only the current format version decodes; an older manifest is
// Corruption (DESIGN.md §10.1 records the format break).
constexpr uint32_t kVersion = 4;

enum class RecordType : uint8_t { kHeader = 1, kRelation = 2, kFooter = 3 };

std::string Errno(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

Result<std::string> EncodeRows(const std::vector<Tuple>& rows,
                               const Schema& schema) {
  std::string out;
  AppendU32(static_cast<uint32_t>(rows.size()), &out);
  for (const Tuple& row : rows) {
    ARCHIS_ASSIGN_OR_RETURN(std::string encoded, row.Encode(schema));
    AppendLengthPrefixed(encoded, &out);
  }
  return out;
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

Result<std::string> EncodeRelation(const CheckpointRelation& rel) {
  std::string payload;
  payload.push_back(static_cast<char>(RecordType::kRelation));
  EncodeRelationSpec(rel.spec, &payload);
  AppendI64(rel.open_days, &payload);
  AppendI64(rel.close_days, &payload);
  payload.push_back(rel.dropped ? 1 : 0);
  AppendU32(static_cast<uint32_t>(rel.surrogates.size()), &payload);
  for (const auto& [key, id] : rel.surrogates) {
    AppendLengthPrefixed(key, &payload);
    AppendI64(id, &payload);
  }
  AppendI64(rel.next_surrogate, &payload);
  ARCHIS_ASSIGN_OR_RETURN(std::vector<Schema> schemas,
                          StoreSchemasFor(rel.spec));
  if (rel.store_rows.size() != schemas.size()) {
    return Status::Internal("checkpoint: store count mismatch for '" +
                            rel.spec.name + "'");
  }
  AppendU32(static_cast<uint32_t>(rel.store_rows.size()), &payload);
  for (size_t s = 0; s < rel.store_rows.size(); ++s) {
    ARCHIS_ASSIGN_OR_RETURN(std::string rows,
                            EncodeRows(rel.store_rows[s], schemas[s]));
    payload.append(rows);
  }
  ARCHIS_ASSIGN_OR_RETURN(std::string current,
                          EncodeRows(rel.current_rows, rel.spec.schema));
  payload.append(current);
  payload.push_back(rel.full ? 1 : 0);
  AppendU32(static_cast<uint32_t>(rel.current_deletes.size()), &payload);
  for (const std::string& key : rel.current_deletes) {
    AppendLengthPrefixed(key, &payload);
  }
  return payload;
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
  if (*pos >= payload.size()) {
    return Status::Corruption("checkpoint relation truncated (full flag)");
  }
  rel.full = payload[*pos] != 0;
  ++*pos;
  ARCHIS_ASSIGN_OR_RETURN(uint32_t ndeletes, ReadU32(payload, pos));
  for (uint32_t i = 0; i < ndeletes; ++i) {
    ARCHIS_ASSIGN_OR_RETURN(std::string key, ReadLengthPrefixed(payload, pos));
    rel.current_deletes.push_back(std::move(key));
  }
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
  if (*pos >= payload.size()) {
    return Status::Corruption("checkpoint header truncated (kind)");
  }
  manifest.base = payload[*pos] != 0;
  ++*pos;
  ARCHIS_ASSIGN_OR_RETURN(manifest.prev_seq, ReadU64(payload, pos));
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

Result<std::string> EncodeCheckpointManifest(
    const CheckpointManifest& manifest) {
  std::string out;
  std::string header;
  header.push_back(static_cast<char>(RecordType::kHeader));
  AppendU32(kMagic, &header);
  AppendU32(kVersion, &header);
  AppendU64(manifest.seq, &header);
  AppendI64(manifest.clock_days, &header);
  AppendU64(manifest.next_txn_id, &header);
  header.push_back(manifest.base ? 1 : 0);
  AppendU64(manifest.prev_seq, &header);
  AppendU64(manifest.absorbed_commit_seq, &header);
  AppendU32(static_cast<uint32_t>(manifest.active_txn_ids.size()), &header);
  for (uint64_t id : manifest.active_txn_ids) {
    AppendU64(id, &header);
  }
  AppendFrame(header, &out);
  for (const CheckpointRelation& rel : manifest.relations) {
    ARCHIS_ASSIGN_OR_RETURN(std::string payload, EncodeRelation(rel));
    AppendFrame(payload, &out);
  }
  std::string footer;
  footer.push_back(static_cast<char>(RecordType::kFooter));
  AppendU64(manifest.seq, &footer);
  AppendFrame(footer, &out);
  return out;
}

Result<CheckpointChain> ReadCheckpointChain(const std::string& path) {
  ARCHIS_ASSIGN_OR_RETURN(storage::LogScan scan, storage::ScanLogFile(path));
  if (scan.records.empty()) {
    return Status::Corruption("checkpoint chain '" + path +
                              "' missing or empty");
  }
  CheckpointChain chain;
  CheckpointManifest current;
  bool in_progress = false;
  for (size_t i = 0; i < scan.records.size(); ++i) {
    std::string_view payload = scan.records[i].payload;
    if (payload.empty()) {
      return Status::Corruption("checkpoint record with empty payload");
    }
    auto type = static_cast<RecordType>(payload[0]);
    size_t pos = 1;
    switch (type) {
      case RecordType::kHeader: {
        if (in_progress) {
          // A footer-less manifest can only be the torn *tail* of the
          // chain (appends truncate to the valid prefix first); a header
          // on top of one mid-file means the chain was stitched wrongly.
          return Status::Corruption(
              "checkpoint header inside an unfinished manifest");
        }
        ARCHIS_ASSIGN_OR_RETURN(current, DecodeHeader(payload, &pos));
        in_progress = true;
        break;
      }
      case RecordType::kRelation: {
        if (!in_progress) {
          return Status::Corruption("checkpoint relation outside a manifest");
        }
        ARCHIS_ASSIGN_OR_RETURN(CheckpointRelation rel,
                                DecodeRelation(payload, &pos));
        current.relations.push_back(std::move(rel));
        break;
      }
      case RecordType::kFooter: {
        if (!in_progress) {
          return Status::Corruption("checkpoint footer outside a manifest");
        }
        ARCHIS_ASSIGN_OR_RETURN(uint64_t seq, ReadU64(payload, &pos));
        if (seq != current.seq) {
          return Status::Corruption("checkpoint footer seq mismatch");
        }
        chain.manifests.push_back(std::move(current));
        current = CheckpointManifest{};
        in_progress = false;
        chain.valid_bytes = i + 1 < scan.records.size()
                                ? scan.records[i + 1].offset
                                : scan.valid_bytes;
        break;
      }
      default:
        return Status::Corruption("checkpoint record with unknown type " +
                                  std::to_string(payload[0]));
    }
  }
  // A manifest still open at end-of-scan is a torn append: drop it (its
  // bytes sit past valid_bytes and will be truncated by the next delta).
  if (chain.manifests.empty()) {
    return Status::Corruption("checkpoint chain '" + path +
                              "' has no complete manifest (torn write)");
  }
  // Validate the chain links: one base, then deltas in sequence order.
  for (size_t i = 0; i < chain.manifests.size(); ++i) {
    const CheckpointManifest& m = chain.manifests[i];
    if (i == 0) {
      if (!m.base) {
        return Status::Corruption("checkpoint chain starts with a delta");
      }
      continue;
    }
    const CheckpointManifest& prior = chain.manifests[i - 1];
    if (m.base) {
      return Status::Corruption("checkpoint base manifest mid-chain");
    }
    if (m.prev_seq != prior.seq || m.seq <= prior.seq) {
      return Status::Corruption(
          "checkpoint delta seq " + std::to_string(m.seq) +
          " does not extend manifest seq " + std::to_string(prior.seq));
    }
  }
  return chain;
}

CheckpointChain LoadCheckpointChain(const std::string& wal_path) {
  Result<CheckpointChain> newest =
      ReadCheckpointChain(CheckpointPath(wal_path));
  if (newest.ok()) {
    return std::move(*newest);
  }
  Result<CheckpointChain> prev =
      ReadCheckpointChain(CheckpointPrevPath(wal_path));
  if (prev.ok()) {
    // The current chain was unreadable (torn install or corruption) but
    // the previous generation is intact — recovery proceeds from it,
    // replaying more WAL. Worth a warning: a torn install is expected
    // after a crash mid-checkpoint, repeated ones are not.
    logging::Warn("checkpoint.fallback")
        .Kv("error", newest.status().ToString());
    prev->fell_back = true;
    return std::move(*prev);
  }
  // Neither generation is readable: normal for a store that has never
  // checkpointed, so keep it off the warning channel.
  logging::Debug("checkpoint.none")
      .Kv("newest", newest.status().ToString())
      .Kv("prev", prev.status().ToString());
  return CheckpointChain{};
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

Status AppendCheckpointDelta(const std::string& wal_path,
                             const std::string& bytes, uint64_t valid_bytes,
                             CheckpointCrashPoint crash) {
  if (crash == CheckpointCrashPoint::kBeforeInstall) {
    // For a delta, "install" is the append itself: stop before touching
    // the chain so the file stays exactly as the previous checkpoint
    // left it.
    return Status::IOError("injected crash before checkpoint delta append");
  }
  const std::string ckpt = CheckpointPath(wal_path);
  int fd = ::open(ckpt.c_str(), O_WRONLY);
  if (fd < 0) return Status::IOError(Errno("open", ckpt));
  // Chop any torn tail from a previously failed append, then extend.
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
    Status st = Status::IOError(Errno("ftruncate", ckpt));
    ::close(fd);
    return st;
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    Status st = Status::IOError(Errno("lseek", ckpt));
    ::close(fd);
    return st;
  }
  size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = Status::IOError(Errno("write", ckpt));
      ::close(fd);
      return st;
    }
    done += static_cast<size_t>(n);
  }
  if (crash == CheckpointCrashPoint::kBeforeManifestSync) {
    // Appended but not fsynced: after a "crash" the tail may be torn,
    // which the chain parser tolerates by dropping it.
    ::close(fd);
    return Status::IOError("injected crash before checkpoint delta fsync");
  }
  if (::fsync(fd) != 0) {
    Status st = Status::IOError(Errno("fsync", ckpt));
    ::close(fd);
    return st;
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace archis::core
