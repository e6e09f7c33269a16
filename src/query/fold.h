#ifndef CURE_QUERY_FOLD_H_
#define CURE_QUERY_FOLD_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "cube/measures.h"
#include "query/node_query.h"
#include "schema/cube_schema.h"
#include "schema/node_id.h"

namespace cure {
namespace query {

/// The one group-by over result rows. Every aggregate is distributive
/// (SUM/COUNT/MIN/MAX) and lifted once at the fact row, so result rows are
/// already in aggregate space and re-grouping them is the same associative
/// Combine the cube build uses (paper Sec. 4 observation 3). It serves the
/// router's merge of per-shard partials, semantic-cache derivation and the
/// flat cube's roll-up (through RollUp below).
///
/// Groups are appended to one flat arena of fixed-width records (dim codes,
/// then aggregates); finishing sorts the arena by dim codes and folds equal
/// neighbours with Combine — a sort-and-fold, no hash map and no per-group
/// allocation.
///
/// Iceberg thresholds MUST be applied after the fold: a group can clear
/// MINSUP once merged while clearing it in no single input, which is why
/// ForEachGroup/Finish take the threshold.
class GroupFold {
 public:
  /// `num_dims` is the number of grouped dimensions per record; -1 takes it
  /// from the first vector Add().
  explicit GroupFold(const schema::CubeSchema& schema, int num_dims = -1)
      : aggregator_(schema),
        num_aggrs_(static_cast<size_t>(aggregator_.num_aggregates())),
        num_dims_(num_dims) {}

  /// Folds one group in: dims are the grouped dimensions' codes (in
  /// dimension order), aggrs its aggregate vector. `aggrs` must hold
  /// exactly num_aggregates() values.
  void Add(const std::vector<uint32_t>& dims, const int64_t* aggrs);
  /// Pointer form of Add: `dims` holds num_dims() codes.
  void Add(const uint32_t* dims, const int64_t* aggrs);

  int num_aggregates() const { return static_cast<int>(num_aggrs_); }
  int num_dims() const { return num_dims_; }

  /// Calls `emit(const uint32_t* dims, const int64_t* aggrs)` for every
  /// folded group, sorted lexicographically by dim codes (deterministic
  /// output order across runs). With `min_count > 1` only groups whose
  /// aggrs[count_aggregate] >= min_count survive — the post-fold iceberg
  /// filter; `count_aggregate` must then index a COUNT aggregate
  /// (kFailedPrecondition when it is out of range).
  template <typename Emit>
  Status ForEachGroup(int count_aggregate, int64_t min_count, Emit&& emit) {
    if (min_count > 1 &&
        (count_aggregate < 0 ||
         count_aggregate >= static_cast<int>(num_aggrs_))) {
      return Status::FailedPrecondition(
          "iceberg merge requires a COUNT aggregate in the schema");
    }
    Fold();
    const size_t nd = num_dims_ > 0 ? static_cast<size_t>(num_dims_) : 0;
    for (size_t g = 0; g < records_; ++g) {
      const int64_t* aggrs = aggrs_.data() + g * num_aggrs_;
      if (min_count > 1 && aggrs[count_aggregate] < min_count) continue;
      emit(dims_.data() + g * nd, aggrs);
    }
    return Status::OK();
  }

  /// Emits every folded group (see ForEachGroup) into `sink`.
  Status Finish(int count_aggregate, int64_t min_count, ResultSink* sink);

 private:
  /// Sorts the arena by dim codes and combines records with equal keys; a
  /// no-op when nothing was added since the last fold.
  void Fold();

  cube::Aggregator aggregator_;
  size_t num_aggrs_;
  int num_dims_;
  size_t records_ = 0;
  bool folded_ = true;
  std::vector<uint32_t> dims_;  ///< records_ × num_dims_ codes
  std::vector<int64_t> aggrs_;  ///< records_ × num_aggrs_ values
};

/// Where dimension `dim` sits in the rows of a node grouped at `levels`
/// (its position among the grouped dimensions) and the map rewriting its
/// codes from the node's level to a target level.
struct LevelColumn {
  int col = 0;
  std::vector<uint32_t> map;  ///< empty = levels equal, codes pass through

  /// The code of `dims[col]` at the target level; false when it lies
  /// outside the level map.
  bool Code(const uint32_t* dims, uint32_t* out) const {
    const uint32_t code = dims[col];
    if (!map.empty() && code >= map.size()) return false;
    *out = map.empty() ? code : map[code];
    return true;
  }
};

/// A slice predicate prepared against a node's rows: the sliced
/// dimension's code, mapped to the slice level, must equal `code`.
struct SliceFilter {
  LevelColumn column;
  uint32_t code = 0;

  bool Passes(const uint32_t* dims) const {
    uint32_t mapped;
    return column.Code(dims, &mapped) && mapped == code;
  }
};

/// The column of `dim` in rows grouped at `levels`, mapped to `level`.
/// nullopt when `dim` is out of range or the node does not group it at a
/// level that derives `level` (the rows do not carry the information).
/// Callers choose the error: a client slice is InvalidArgument, a violated
/// containment kInternal.
std::optional<LevelColumn> MapLevelColumn(const schema::CubeSchema& schema,
                                          const std::vector<int>& levels,
                                          int dim, int level);

/// Derives the rows of node `to` from `rows`, the rows of node `from` over
/// the same data: each grouped dimension of `to` is read from `from`'s
/// column and projected through the hierarchy level map, rows failing a
/// slice are dropped, the rest are folded with GroupFold, and groups with
/// aggrs[count_aggregate] < min_count are dropped AFTER the fold. Rows are
/// emitted in lexicographic dim-code order; the sink's checksum is
/// order-independent and therefore bit-identical to a direct query of `to`.
///
/// `from` must be an ancestor of (or equal to) `to` and group every slice's
/// dimension at a level that derives the slice's: anything else, a row of
/// the wrong shape or a code outside a level map is kInternal. An iceberg
/// threshold (min_count > 1) needs `count_aggregate` to index a COUNT
/// aggregate (kFailedPrecondition otherwise).
Status RollUp(const schema::CubeSchema& schema, schema::NodeId from,
              const std::vector<ResultSink::Row>& rows, schema::NodeId to,
              const std::vector<CureQueryEngine::Slice>& slices,
              int count_aggregate, int64_t min_count, ResultSink* sink);

}  // namespace query
}  // namespace cure

#endif  // CURE_QUERY_FOLD_H_
