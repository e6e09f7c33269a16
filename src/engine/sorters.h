#ifndef CURE_ENGINE_SORTERS_H_
#define CURE_ENGINE_SORTERS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace cure {
namespace engine {

/// Sorting policy for the BUC-style recursion's segment re-sorts.
/// The paper (Sec. 7, citing [2]) notes that CountingSort instead of
/// QuickSort keeps BUC-based methods efficient under high skew; kAuto picks
/// counting sort whenever the key cardinality is small relative to the span.
enum class SortPolicy { kAuto, kCountingOnly, kComparisonOnly };

/// Reusable scratch buffers for counting sort.
struct SortScratch {
  std::vector<uint32_t> counts;
  std::vector<uint32_t> out;
};

/// Sorts idx[0, n) ascending by key(idx[i]); all keys are < cardinality.
/// KeyFn: uint32_t(uint32_t element).
template <typename KeyFn>
void SortSpan(uint32_t* idx, size_t n, uint32_t cardinality, const KeyFn& key,
              SortPolicy policy, SortScratch* scratch) {
  if (n <= 1) return;
  const bool counting_ok =
      cardinality > 0 &&
      (policy == SortPolicy::kCountingOnly ||
       (policy == SortPolicy::kAuto &&
        static_cast<uint64_t>(cardinality) <= 2 * static_cast<uint64_t>(n) + 1024));
  if (counting_ok && policy != SortPolicy::kComparisonOnly) {
    scratch->counts.assign(cardinality + 1, 0);
    for (size_t i = 0; i < n; ++i) ++scratch->counts[key(idx[i]) + 1];
    for (uint32_t c = 0; c < cardinality; ++c) {
      scratch->counts[c + 1] += scratch->counts[c];
    }
    scratch->out.resize(n);
    for (size_t i = 0; i < n; ++i) {
      scratch->out[scratch->counts[key(idx[i])]++] = idx[i];
    }
    std::copy(scratch->out.begin(), scratch->out.end(), idx);
    return;
  }
  std::sort(idx, idx + n,
            [&](uint32_t a, uint32_t b) { return key(a) < key(b); });
}

}  // namespace engine
}  // namespace cure

#endif  // CURE_ENGINE_SORTERS_H_
