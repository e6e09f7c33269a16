#include "storage/buffer_cache.h"

#include <cstring>

namespace cure {
namespace storage {

Status BufferCache::Init(const Relation* relation, double cached_fraction) {
  if (relation == nullptr) return Status::InvalidArgument("null relation");
  if (cached_fraction < 0.0) cached_fraction = 0.0;
  if (cached_fraction > 1.0) cached_fraction = 1.0;
  relation_ = relation;
  hits_ = 0;
  misses_ = 0;
  cached_rows_ = static_cast<uint64_t>(cached_fraction *
                                       static_cast<double>(relation->num_rows()));
  pinned_.clear();
  if (cached_rows_ == 0 || relation->memory_backed()) {
    // Memory-backed relations are implicitly fully cached; no copy needed.
    return Status::OK();
  }
  const size_t width = relation->record_size();
  pinned_.resize(cached_rows_ * width);
  Relation::Scanner scan(*relation);
  for (uint64_t r = 0; r < cached_rows_; ++r) {
    const uint8_t* rec = scan.Next();
    if (rec == nullptr) {
      CURE_RETURN_IF_ERROR(scan.status());
      return Status::Internal("short relation during cache fill");
    }
    std::memcpy(pinned_.data() + r * width, rec, width);
  }
  return Status::OK();
}

Status BufferCache::Read(uint64_t row, void* out) const {
  const uint8_t* raw = TryRaw(row);
  if (raw != nullptr) {
    std::memcpy(out, raw, relation_->record_size());
    return Status::OK();
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return relation_->Read(row, out);
}

Status BufferCache::ReadRows(const uint64_t* rows, size_t n,
                             uint8_t* out) const {
  const size_t width = relation_->record_size();
  return ForEachRecord(rows, n, [&](size_t i, const uint8_t* rec) {
    std::memcpy(out + i * width, rec, width);
  });
}

const uint8_t* BufferCache::TryRaw(uint64_t row) const {
  if (relation_ == nullptr) return nullptr;
  if (relation_->memory_backed()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return relation_->RawRecord(row);
  }
  if (row < cached_rows_) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return pinned_.data() + row * relation_->record_size();
  }
  return nullptr;
}

}  // namespace storage
}  // namespace cure
