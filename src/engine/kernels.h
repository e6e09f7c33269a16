#ifndef CURE_ENGINE_KERNELS_H_
#define CURE_ENGINE_KERNELS_H_

#include <cstdint>
#include <limits>

#include "schema/cube_schema.h"
#include "storage/row_block.h"

namespace cure {
namespace engine {

/// Vectorization-friendly batch kernels of the block-oriented scan path
/// (DESIGN.md §13). Every kernel is a tight loop over contiguous input —
/// no per-iteration Status checks, no virtual dispatch, local
/// restrict-qualified pointers — so the compiler can auto-vectorize.
///
/// Two families:
///  - SumSlice consumes a contiguous column slice (a ColumnView gather).
///  - *Gather kernels fuse the index-vector indirection of the BUC-style
///    recursion (col[idx[i]]) with the accumulation; they cannot
///    vectorize the load but still beat the legacy loops by hoisting the
///    per-aggregate dispatch and bounds logic out of the loop.

/// counts[key + 1] += 1 for every key — a counting-sort histogram fill,
/// offset by one so the prefix sum yields start offsets in place. The
/// build's SortSpan counts through its key function instead; this kernel is
/// bench_micro's block-histogram baseline.
inline void HistogramFill(const uint32_t* keys, size_t n, uint32_t* counts) {
  const uint32_t* CURE_RESTRICT k = keys;
  uint32_t* CURE_RESTRICT c = counts;
  for (size_t i = 0; i < n; ++i) ++c[k[i] + 1];
}

// ---- Contiguous-slice accumulator ----

inline int64_t SumSlice(const int64_t* v, size_t n) {
  const int64_t* CURE_RESTRICT p = v;
  int64_t acc = 0;
  for (size_t i = 0; i < n; ++i) acc += p[i];
  return acc;
}

// ---- Fused gather + accumulate over an index span ----

inline int64_t SumGather(const int64_t* col, const uint32_t* idx, size_t n) {
  const int64_t* CURE_RESTRICT c = col;
  const uint32_t* CURE_RESTRICT ix = idx;
  int64_t acc = 0;
  for (size_t i = 0; i < n; ++i) acc += c[ix[i]];
  return acc;
}

inline int64_t MinGather(const int64_t* col, const uint32_t* idx, size_t n) {
  const int64_t* CURE_RESTRICT c = col;
  const uint32_t* CURE_RESTRICT ix = idx;
  int64_t acc = std::numeric_limits<int64_t>::max();
  for (size_t i = 0; i < n; ++i) {
    const int64_t v = c[ix[i]];
    acc = v < acc ? v : acc;
  }
  return acc;
}

inline int64_t MaxGather(const int64_t* col, const uint32_t* idx, size_t n) {
  const int64_t* CURE_RESTRICT c = col;
  const uint32_t* CURE_RESTRICT ix = idx;
  int64_t acc = std::numeric_limits<int64_t>::min();
  for (size_t i = 0; i < n; ++i) {
    const int64_t v = c[ix[i]];
    acc = v > acc ? v : acc;
  }
  return acc;
}

inline int64_t AggregateGather(schema::AggFn fn, const int64_t* col,
                               const uint32_t* idx, size_t n) {
  switch (fn) {
    case schema::AggFn::kSum:
    case schema::AggFn::kCount:
      return SumGather(col, idx, n);
    case schema::AggFn::kMin:
      return MinGather(col, idx, n);
    case schema::AggFn::kMax:
      return MaxGather(col, idx, n);
  }
  return 0;
}

/// min over col[idx[i]] for u64 values (row-id minima).
inline uint64_t MinU64Gather(const uint64_t* col, const uint32_t* idx,
                             size_t n) {
  const uint64_t* CURE_RESTRICT c = col;
  const uint32_t* CURE_RESTRICT ix = idx;
  uint64_t acc = std::numeric_limits<uint64_t>::max();
  for (size_t i = 0; i < n; ++i) {
    const uint64_t v = c[ix[i]];
    acc = v < acc ? v : acc;
  }
  return acc;
}

// ---- Selection-vector kernels (block-local indices) ----

/// sel[j] = i for every i in [0, n) with v[i] >= threshold; returns the
/// selected count. The iceberg (HAVING count >= N) filter.
inline size_t SelectGeI64(const int64_t* v, size_t n, int64_t threshold,
                          uint32_t* sel) {
  const int64_t* CURE_RESTRICT p = v;
  uint32_t* CURE_RESTRICT s = sel;
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    s[out] = static_cast<uint32_t>(i);
    out += p[i] >= threshold ? 1 : 0;
  }
  return out;
}

/// Refines a selection in place: keeps sel entries whose column value
/// equals `code`. The slice-predicate filter at the node's own level.
inline size_t RefineEqU32(const uint32_t* v, uint32_t code, uint32_t* sel,
                          size_t sel_n) {
  const uint32_t* CURE_RESTRICT p = v;
  uint32_t* CURE_RESTRICT s = sel;
  size_t out = 0;
  for (size_t j = 0; j < sel_n; ++j) {
    const uint32_t i = s[j];
    s[out] = i;
    out += p[i] == code ? 1 : 0;
  }
  return out;
}

/// Refines a selection in place through a roll-up map: keeps sel entries
/// with map[v[i]] == code. The slice-predicate filter at a coarser level.
inline size_t RefineMappedEqU32(const uint32_t* v, const uint32_t* map,
                                uint32_t code, uint32_t* sel, size_t sel_n) {
  const uint32_t* CURE_RESTRICT p = v;
  const uint32_t* CURE_RESTRICT m = map;
  uint32_t* CURE_RESTRICT s = sel;
  size_t out = 0;
  for (size_t j = 0; j < sel_n; ++j) {
    const uint32_t i = s[j];
    s[out] = i;
    out += m[p[i]] == code ? 1 : 0;
  }
  return out;
}

/// sel[j] = i for every i with v[i] == value or (v[i] & flag) != 0; returns
/// the selected count. The BU-BST monolithic-scan prefilter: a row is a
/// candidate when its node tag matches the query exactly or it is a BST
/// (flagged) row, which needs the full sub-tree test.
inline size_t SelectEqOrFlagU64(const uint64_t* v, size_t n, uint64_t value,
                                uint64_t flag, uint32_t* sel) {
  const uint64_t* CURE_RESTRICT p = v;
  uint32_t* CURE_RESTRICT s = sel;
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    s[out] = static_cast<uint32_t>(i);
    out += (p[i] == value || (p[i] & flag) != 0) ? 1 : 0;
  }
  return out;
}

}  // namespace engine
}  // namespace cure

#endif  // CURE_ENGINE_KERNELS_H_
