#ifndef CURE_STORAGE_BUFFER_CACHE_H_
#define CURE_STORAGE_BUFFER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/relation.h"

namespace cure {
namespace storage {

/// Pinned-prefix buffer cache over a sealed relation.
///
/// The paper's query-answering study (Fig. 17) caches a configurable portion
/// of the original fact table; CURE's key property is that caching just the
/// fact table and the AGGREGATES relation accelerates all node queries. This
/// cache pins the first `cached_fraction * num_rows` rows in memory;
/// row reads inside the pinned prefix are served from memory, the rest hit
/// the underlying storage. Hit/miss counters feed the benchmark reports.
///
/// After Init() the cache is immutable apart from the relaxed-atomic hit and
/// miss counters, so concurrent readers (the serving layer's query workers)
/// share one instance without locking.
class BufferCache {
 public:
  BufferCache() = default;

  /// Builds the pinned prefix. `cached_fraction` in [0, 1].
  Status Init(const Relation* relation, double cached_fraction);

  /// Reads the record at `row` into `out`, serving from cache if pinned.
  Status Read(uint64_t row, void* out) const;

  /// Multi-row Read: record i of `rows[0..n)` to `out + i * record_size`,
  /// through ForEachRecord.
  Status ReadRows(const uint64_t* rows, size_t n, uint8_t* out) const;

  /// Calls `fn(i, record)` for each of `rows[0..n)`, in order, with a
  /// pointer to the row's record in place: in the pinned prefix for pinned
  /// rows, else in the relation's span (Relation::SpanOf). A non-empty call
  /// is one read of the relation; n == 0 reads nothing. Hits and misses are
  /// counted per row, exactly as n calls of Read() would count them.
  template <typename Fn>
  Status ForEachRecord(const uint64_t* rows, size_t n, Fn&& fn) const {
    if (n == 0) return Status::OK();
    CURE_ASSIGN_OR_RETURN(const uint8_t* span, relation_->SpanOf(rows, n));
    const size_t width = relation_->record_size();
    // A memory-backed relation is implicitly fully cached: its span is the
    // backing vector, and every row is a hit.
    const uint64_t pinned = relation_->memory_backed() ? 0 : cached_rows_;
    uint64_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t row = rows[i];
      if (row < pinned) {
        ++hits;
        fn(i, pinned_.data() + row * width);
      } else {
        fn(i, span + row * width);
      }
    }
    if (relation_->memory_backed()) hits = n;
    hits_.fetch_add(hits, std::memory_order_relaxed);
    misses_.fetch_add(n - hits, std::memory_order_relaxed);
    return Status::OK();
  }

  /// Zero-copy access: returns a pointer when the row is cached or the
  /// relation is memory-backed, nullptr otherwise.
  const uint8_t* TryRaw(uint64_t row) const;

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t cached_rows() const { return cached_rows_; }
  const Relation* relation() const { return relation_; }

 private:
  const Relation* relation_ = nullptr;
  uint64_t cached_rows_ = 0;
  std::vector<uint8_t> pinned_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
};

}  // namespace storage
}  // namespace cure

#endif  // CURE_STORAGE_BUFFER_CACHE_H_
