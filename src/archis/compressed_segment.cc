#include "archis/compressed_segment.h"

namespace archis::core {

Result<std::unique_ptr<CompressedSegment>> CompressedSegment::Build(
    const minirel::Schema& schema,
    const std::vector<std::pair<int64_t, std::string>>& records,
    const std::vector<TimeInterval>& times, size_t block_size,
    uint64_t cache_bytes) {
  auto seg = std::unique_ptr<CompressedSegment>(new CompressedSegment());
  seg->schema_ = schema;
  compress::BlockZipOptions opts;
  opts.block_size = block_size;
  ARCHIS_RETURN_NOT_OK(seg->store_.Build(records, opts, times));
  seg->store_.set_cache_capacity(cache_bytes);
  return seg;
}

Status CompressedSegment::ScanRecords(
    std::optional<int64_t> id, const std::optional<TimeInterval>& window,
    const std::function<bool(std::string_view)>& fn,
    compress::BlobReadStats* stats) const {
  return store_.ScanRangeInterval(
      id.value_or(INT64_MIN), id.value_or(INT64_MAX), window,
      [&](int64_t, const std::string& rec) { return fn(rec); }, stats);
}

Status CompressedSegment::ScanAll(
    const std::function<bool(const minirel::Tuple&)>& fn,
    compress::BlobReadStats* stats) const {
  Status failure = Status::OK();
  ARCHIS_RETURN_NOT_OK(ScanRecords(
      std::nullopt, std::nullopt,
      [&](std::string_view rec) {
        auto t = minirel::Tuple::Decode(schema_, rec);
        if (!t.ok()) {
          failure = t.status();
          return false;  // abort: a vanishing row is silent data loss
        }
        return fn(*t);
      },
      stats));
  return failure;
}

}  // namespace archis::core
