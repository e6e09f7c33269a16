#ifndef CURE_SCHEMA_FACT_TABLE_H_
#define CURE_SCHEMA_FACT_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "storage/relation.h"

namespace cure {
namespace schema {

/// In-memory fact table in struct-of-arrays layout: D uint32 leaf-level
/// dimension codes and M int64 raw measures per row. Row-ids are 0-based
/// ordinals, the same ids the cubes' row-id references (R-rowid) use.
class FactTable {
 public:
  FactTable(int num_dims, int num_measures)
      : dims_(num_dims),
        measures_(num_measures),
        measure_min_(num_measures, std::numeric_limits<int64_t>::max()),
        measure_max_(num_measures, std::numeric_limits<int64_t>::min()) {}

  int num_dims() const { return static_cast<int>(dims_.size()); }
  int num_measures() const { return static_cast<int>(measures_.size()); }
  uint64_t num_rows() const { return num_rows_; }

  void Reserve(uint64_t rows) {
    for (auto& col : dims_) col.reserve(rows);
    for (auto& col : measures_) col.reserve(rows);
  }

  void AppendRow(const uint32_t* dims, const int64_t* measures) {
    for (size_t d = 0; d < dims_.size(); ++d) dims_[d].push_back(dims[d]);
    for (size_t m = 0; m < measures_.size(); ++m) {
      measures_[m].push_back(measures[m]);
      measure_min_[m] = std::min(measure_min_[m], measures[m]);
      measure_max_[m] = std::max(measure_max_[m], measures[m]);
    }
    ++num_rows_;
  }

  /// Smallest / largest value of measure m over all rows, tracked at
  /// append (INT64_MAX / INT64_MIN while empty). The cube builds size their
  /// aggregate fields from these without another scan.
  int64_t measure_min(int m) const { return measure_min_[m]; }
  int64_t measure_max(int m) const { return measure_max_[m]; }

  uint32_t dim(int d, uint64_t row) const { return dims_[d][row]; }
  int64_t measure(int m, uint64_t row) const { return measures_[m][row]; }
  const std::vector<uint32_t>& dim_column(int d) const { return dims_[d]; }
  const std::vector<int64_t>& measure_column(int m) const { return measures_[m]; }

  /// Logical size: 4 bytes per dimension code plus 8 per measure, the
  /// binary footprint the paper's sizes refer to.
  uint64_t bytes() const {
    return num_rows_ * (4ull * dims_.size() + 8ull * measures_.size());
  }

  /// Record width of the binary relation form.
  size_t RecordSize() const { return 4 * dims_.size() + 8 * measures_.size(); }

  /// Writes all rows as fixed-width records [dims u32...][measures i64...]
  /// into `out` (caller seals).
  Status WriteTo(storage::Relation* out) const;

  /// Reads a fact table back from its binary relation form.
  static Result<FactTable> ReadFrom(const storage::Relation& rel, int num_dims,
                                    int num_measures);

 private:
  std::vector<std::vector<uint32_t>> dims_;
  std::vector<std::vector<int64_t>> measures_;
  std::vector<int64_t> measure_min_;
  std::vector<int64_t> measure_max_;
  uint64_t num_rows_ = 0;
};

}  // namespace schema
}  // namespace cure

#endif  // CURE_SCHEMA_FACT_TABLE_H_
