#include "compress/blob_store.h"

#include <algorithm>
#include <cstring>

#include "common/flight_recorder.h"
#include "common/instruments.h"

namespace archis::compress {

Status BlobStore::Build(
    const std::vector<std::pair<int64_t, std::string>>& records,
    BlockZipOptions opts, const std::vector<TimeInterval>& times) {
  blocks_.clear();
  meta_.clear();
  set_cache_capacity(cache_capacity_);  // drop stale cached blocks
  if (records.empty()) return Status::OK();
  for (size_t i = 1; i < records.size(); ++i) {
    if (records[i].first < records[i - 1].first) {
      return Status::InvalidArgument(
          "BlobStore::Build requires sid-sorted input");
    }
  }
  if (!times.empty() && times.size() != records.size()) {
    return Status::InvalidArgument(
        "BlobStore::Build: times must parallel records");
  }
  // Embed the sid in front of each record payload so a block is fully
  // self-describing after decompression.
  std::vector<std::string> payloads;
  payloads.reserve(records.size());
  for (const auto& [sid, rec] : records) {
    std::string p;
    p.append(reinterpret_cast<const char*>(&sid), sizeof(sid));
    p.append(rec);
    payloads.push_back(std::move(p));
  }
  ARCHIS_ASSIGN_OR_RETURN(blocks_, BlockZipCompress(payloads, opts));
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const CompressedBlock& blk = blocks_[b];
    BlobBlockMeta m;
    m.blockno = b;
    m.start_sid = records[blk.first_record].first;
    m.end_sid = records[blk.last_record].first;
    m.compressed_bytes = blk.data.size();
    if (!times.empty()) {
      m.min_tstart = INT64_MAX;
      m.max_tend = INT64_MIN;
      for (uint64_t i = blk.first_record; i <= blk.last_record; ++i) {
        m.min_tstart = std::min(m.min_tstart, times[i].tstart.days());
        m.max_tend = std::max(m.max_tend, times[i].tend.days());
      }
    }
    meta_.push_back(m);
  }
  return Status::OK();
}

void BlobStore::set_cache_capacity(uint64_t bytes) {
  cache_capacity_ = bytes;
  for (CacheShard& shard : shards_) {
    MutexLock lock(shard.mu);
    shard.entries.clear();
    shard.lru.clear();
    shard.bytes = 0;
  }
}

uint64_t BlobStore::CachedBytes() const {
  uint64_t total = 0;
  for (CacheShard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.bytes;
  }
  return total;
}

Result<BlobStore::BlockPayloads> BlobStore::FetchBlock(
    size_t b, BlobReadStats* stats) const {
  if (cache_capacity_ == 0) {
    ARCHIS_ASSIGN_OR_RETURN(std::vector<std::string> payloads,
                            BlockZipUncompress(blocks_[b]));
    if (stats != nullptr) {
      ++stats->blocks_decompressed;
      stats->bytes_decompressed += blocks_[b].raw_bytes;
    }
    metrics::Get(metrics::kBlocksDecompressed).Inc();
    metrics::Get(metrics::kBlockDecompressedBytes).Inc(blocks_[b].raw_bytes);
    return std::make_shared<const std::vector<std::string>>(
        std::move(payloads));
  }
  CacheShard& shard = shards_[b % kCacheShards];
  {
    MutexLock lock(shard.mu);
    auto it = shard.entries.find(b);
    if (it != shard.entries.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.second);
      if (stats != nullptr) ++stats->block_cache_hits;
      metrics::Get(metrics::kBlockCacheHits).Inc();
      return it->second.first;
    }
  }
  // Miss: inflate outside the lock so concurrent readers of other blocks
  // in the shard are not serialised behind zlib.
  ARCHIS_ASSIGN_OR_RETURN(std::vector<std::string> payloads,
                          BlockZipUncompress(blocks_[b]));
  if (stats != nullptr) {
    ++stats->block_cache_misses;
    ++stats->blocks_decompressed;
    stats->bytes_decompressed += blocks_[b].raw_bytes;
  }
  metrics::Get(metrics::kBlockCacheMisses).Inc();
  metrics::Get(metrics::kBlocksDecompressed).Inc();
  metrics::Get(metrics::kBlockDecompressedBytes).Inc(blocks_[b].raw_bytes);
  auto entry = std::make_shared<const std::vector<std::string>>(
      std::move(payloads));
  const uint64_t charge = blocks_[b].raw_bytes;
  const uint64_t shard_capacity = cache_capacity_ / kCacheShards;
  MutexLock lock(shard.mu);
  if (shard.entries.find(b) == shard.entries.end()) {
    shard.lru.push_front(b);
    shard.entries.emplace(b, std::make_pair(entry, shard.lru.begin()));
    shard.bytes += charge;
    while (shard.bytes > shard_capacity && shard.lru.size() > 1) {
      uint64_t victim = shard.lru.back();
      auto vit = shard.entries.find(victim);
      shard.bytes -= blocks_[victim].raw_bytes;
      fr::Record(fr::EventType::kBlockCacheEvict, victim,
                 blocks_[victim].raw_bytes);
      shard.entries.erase(vit);
      shard.lru.pop_back();
    }
  }
  return entry;
}

Status BlobStore::ScanRangeInterval(
    int64_t lo, int64_t hi, const std::optional<TimeInterval>& window,
    const std::function<bool(int64_t, std::string_view)>& fn,
    BlobReadStats* stats) const {
  for (size_t b = 0; b < blocks_.size(); ++b) {
    if (stats != nullptr) ++stats->blocks_scanned;
    if (meta_[b].end_sid < lo || meta_[b].start_sid > hi) continue;
    if (window.has_value() && (meta_[b].max_tend < window->tstart.days() ||
                               meta_[b].min_tstart > window->tend.days())) {
      if (stats != nullptr) ++stats->blocks_pruned_by_time;
      metrics::Get(metrics::kBlocksPrunedByTime).Inc();
      continue;
    }
    ARCHIS_ASSIGN_OR_RETURN(BlockPayloads payloads, FetchBlock(b, stats));
    for (const std::string& p : *payloads) {
      if (p.size() < sizeof(int64_t)) {
        return Status::Corruption("blob record too short");
      }
      int64_t sid;
      std::memcpy(&sid, p.data(), sizeof(sid));
      if (sid < lo || sid > hi) continue;
      if (!fn(sid, std::string_view(p).substr(sizeof(sid)))) {
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

Status BlobStore::ScanRange(
    int64_t lo, int64_t hi,
    const std::function<bool(int64_t, std::string_view)>& fn,
    BlobReadStats* stats) const {
  return ScanRangeInterval(lo, hi, std::nullopt, fn, stats);
}

Status BlobStore::ScanAll(
    const std::function<bool(int64_t, std::string_view)>& fn,
    BlobReadStats* stats) const {
  return ScanRangeInterval(INT64_MIN, INT64_MAX, std::nullopt, fn, stats);
}

uint64_t BlobStore::CompressedBytes() const {
  return TotalCompressedBytes(blocks_);
}

uint64_t BlobStore::RawBytes() const {
  uint64_t total = 0;
  for (const CompressedBlock& b : blocks_) total += b.raw_bytes;
  return total;
}

uint64_t BlobStore::CountBlocksOverlapping(
    const std::optional<TimeInterval>& window) const {
  if (!window.has_value()) return meta_.size();
  uint64_t n = 0;
  for (const BlobBlockMeta& m : meta_) {
    // Same envelope test as ScanRangeInterval's zone-map prune.
    if (m.max_tend >= window->tstart.days() &&
        m.min_tstart <= window->tend.days()) {
      ++n;
    }
  }
  return n;
}

}  // namespace archis::compress
