#ifndef CURE_STORAGE_ROW_BLOCK_H_
#define CURE_STORAGE_ROW_BLOCK_H_

#include <cstdint>
#include <cstring>
#include <vector>

/// Compiler hint for the batch kernels' tight loops: the annotated pointer
/// does not alias any other pointer in scope, so the loop can be
/// auto-vectorized without runtime overlap checks.
#if defined(__GNUC__) || defined(__clang__)
#define CURE_RESTRICT __restrict__
#else
#define CURE_RESTRICT
#endif

namespace cure {
namespace storage {

/// Default rows per block for the block-oriented scan path. Sized so one
/// gathered 8-byte column slice (8 KB) stays comfortably inside L1.
inline constexpr size_t kDefaultBlockRows = 1024;

/// A batch of consecutive fixed-width records yielded by
/// Relation::BlockScanner. Records are contiguous: record i lives at
/// `data + i * record_size`. For memory-backed relations the block is a
/// zero-copy view into the relation's backing store; for file-backed ones
/// it points into the scanner's read buffer (one buffered read per block).
/// Either way the pointers are valid only until the next
/// BlockScanner::Next() call.
struct RowBlock {
  const uint8_t* data = nullptr;
  uint64_t first_row = 0;  ///< 0-based row-id of record 0
  size_t rows = 0;
  size_t record_size = 0;

  const uint8_t* record(size_t i) const { return data + i * record_size; }
};

/// Gathers the strided u32 field at `byte_offset` of every record of a
/// block into a caller-provided contiguous buffer (block.rows elements).
/// One pass per block instead of one dispatch per row — the column-slice
/// materialization primitive of the batch kernels.
inline void GatherBlockU32(const RowBlock& block, size_t byte_offset,
                           uint32_t* out) {
  const uint8_t* CURE_RESTRICT src = block.data + byte_offset;
  uint32_t* CURE_RESTRICT dst = out;
  const size_t stride = block.record_size;
  for (size_t i = 0; i < block.rows; ++i) {
    std::memcpy(&dst[i], src + i * stride, 4);
  }
}

/// i64 counterpart of GatherBlockU32.
inline void GatherBlockI64(const RowBlock& block, size_t byte_offset,
                           int64_t* out) {
  const uint8_t* CURE_RESTRICT src = block.data + byte_offset;
  int64_t* CURE_RESTRICT dst = out;
  const size_t stride = block.record_size;
  for (size_t i = 0; i < block.rows; ++i) {
    std::memcpy(&dst[i], src + i * stride, 8);
  }
}

/// u64 counterpart of GatherBlockU32 (row-id columns).
inline void GatherBlockU64(const RowBlock& block, size_t byte_offset,
                           uint64_t* out) {
  const uint8_t* CURE_RESTRICT src = block.data + byte_offset;
  uint64_t* CURE_RESTRICT dst = out;
  const size_t stride = block.record_size;
  for (size_t i = 0; i < block.rows; ++i) {
    std::memcpy(&dst[i], src + i * stride, 8);
  }
}

/// Widening gather: the strided 4-byte signed field at `byte_offset`,
/// sign-extended into an i64 slice (narrow aggregate columns).
inline void GatherBlockI32ToI64(const RowBlock& block, size_t byte_offset,
                                int64_t* out) {
  const uint8_t* CURE_RESTRICT src = block.data + byte_offset;
  int64_t* CURE_RESTRICT dst = out;
  const size_t stride = block.record_size;
  for (size_t i = 0; i < block.rows; ++i) {
    int32_t v;
    std::memcpy(&v, src + i * stride, 4);
    dst[i] = v;
  }
}

/// Widening gather: the strided 4-byte unsigned field at `byte_offset`,
/// zero-extended into a u64 slice (narrow row-id columns).
inline void GatherBlockU32ToU64(const RowBlock& block, size_t byte_offset,
                                uint64_t* out) {
  const uint8_t* CURE_RESTRICT src = block.data + byte_offset;
  uint64_t* CURE_RESTRICT dst = out;
  const size_t stride = block.record_size;
  for (size_t i = 0; i < block.rows; ++i) {
    uint32_t v;
    std::memcpy(&v, src + i * stride, 4);
    dst[i] = v;
  }
}

/// Materializes one fixed-width column of a RowBlock as a contiguous,
/// naturally-aligned slice (the "ColumnSlice" of the batch kernels): the
/// strided field at `byte_offset` of every record is gathered once per
/// block into an owned buffer whose element alignment is guaranteed by its
/// type. Reuse one ColumnView across blocks to amortize the allocation; the
/// returned pointer is valid until the next Gather call on the same view.
class ColumnView {
 public:
  /// Gathers the u32 field at `byte_offset` of each record.
  const uint32_t* GatherU32(const RowBlock& block, size_t byte_offset) {
    u32_.resize(block.rows);
    GatherBlockU32(block, byte_offset, u32_.data());
    return u32_.data();
  }

  /// Gathers the i64 field at `byte_offset` of each record.
  const int64_t* GatherI64(const RowBlock& block, size_t byte_offset) {
    i64_.resize(block.rows);
    GatherBlockI64(block, byte_offset, i64_.data());
    return i64_.data();
  }

  /// Gathers the u64 field at `byte_offset` of each record. Shares the
  /// i64 buffer (signed/unsigned aliasing of the same width is defined).
  const uint64_t* GatherU64(const RowBlock& block, size_t byte_offset) {
    return reinterpret_cast<const uint64_t*>(GatherI64(block, byte_offset));
  }

 private:
  std::vector<uint32_t> u32_;
  std::vector<int64_t> i64_;
};

/// A selection vector over one RowBlock: block-local record indices (in
/// ascending order) that passed every predicate so far. Produced by the
/// filter kernels, consumed by the aggregation/emit loops.
using SelectionVector = std::vector<uint32_t>;

}  // namespace storage
}  // namespace cure

#endif  // CURE_STORAGE_ROW_BLOCK_H_
