#ifndef CURE_ROUTER_MERGE_H_
#define CURE_ROUTER_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "cube/measures.h"
#include "query/node_query.h"
#include "schema/cube_schema.h"

namespace cure {
namespace router {

/// Re-aggregates per-shard partial relations into the global result — the
/// gather half of the router's scatter–gather. Because every aggregate is
/// distributive (SUM/COUNT/MIN/MAX) and lifting happens once at the fact
/// row, per-shard results are already in aggregate space and merging is the
/// same associative Combine the cube build uses (paper Sec. 4 observation
/// 3). The shards' fact partitions are disjoint, so the merged relation is
/// exactly the single-node relation.
///
/// Partial groups are appended to one flat arena of fixed-width records
/// (dim codes, then aggregates); finishing sorts the arena by dim codes and
/// folds equal neighbours with Combine — a sort-and-fold, no hash map and no
/// per-group allocation.
///
/// Iceberg thresholds MUST be applied here, after the merge: a group can
/// clear MINSUP globally while clearing it on no single shard. The router
/// therefore scatters plain (non-iceberg) queries and filters in Finish().
class PartialMerger {
 public:
  /// `num_dims` is the number of grouped dimensions per record; -1 takes it
  /// from the first vector Add().
  explicit PartialMerger(const schema::CubeSchema& schema, int num_dims = -1)
      : aggregator_(schema),
        num_aggrs_(static_cast<size_t>(aggregator_.num_aggregates())),
        num_dims_(num_dims) {}

  /// Folds one partial group in: dims are the grouped dimensions' codes (in
  /// dimension order), aggrs the shard's aggregate vector for that group.
  /// `aggrs` must hold exactly num_aggregates() values.
  void Add(const std::vector<uint32_t>& dims, const int64_t* aggrs);
  /// Pointer form of Add: `dims` holds num_dims() codes.
  void Add(const uint32_t* dims, const int64_t* aggrs);

  int num_aggregates() const { return static_cast<int>(num_aggrs_); }
  int num_dims() const { return num_dims_; }

  /// Calls `emit(const uint32_t* dims, const int64_t* aggrs)` for every
  /// merged group, sorted lexicographically by dim codes (deterministic
  /// output order across runs). With `min_count > 1` only groups whose
  /// aggrs[count_aggregate] >= min_count survive — the post-merge iceberg
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

  /// Emits every merged group (see ForEachGroup) into `sink`.
  Status Finish(int count_aggregate, int64_t min_count,
                query::ResultSink* sink);

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

/// Reads the body line starting at `*pos` of a backend reply and advances
/// past it. A trailing '\r' is stripped and "% " profile lines are skipped,
/// exactly as ParseBackendReply treats them. False at the end of `text`.
bool NextReplyLine(std::string_view text, size_t* pos, std::string_view* line);

/// Parses up to `max_rows` body rows (all that remain for UINT64_MAX) of a
/// backend reply straight out of its text, starting at `*pos`, and folds
/// them into `merger`: each row is merger->num_dims() decimal dim codes then
/// num_aggregates() decimal aggregates, tab-separated. No per-row or
/// per-field strings are built. Returns the number of rows merged; a row of
/// the wrong width, a non-numeric field or a code above UINT32_MAX is
/// kInternal naming `shard`.
Result<uint64_t> MergeShardRows(int shard, std::string_view text, size_t* pos,
                                uint64_t max_rows, PartialMerger* merger);

/// Merges the body of one shard's reply, starting at `pos`: a node query's
/// rows into mergers[0], or, when `sections` is non-null (a BATCH reply),
/// one framed section per requested node, in order. Section i must carry
/// the spec (*sections)[i] and exactly its announced row count, and every
/// requested section must be present. A malformed header, an unexpected
/// spec, a short section or a missing section is kInternal naming `shard`.
Status MergeShardReply(int shard, std::string_view text, size_t pos,
                       const std::vector<std::string>* sections,
                       std::vector<PartialMerger>* mergers);

}  // namespace router
}  // namespace cure

#endif  // CURE_ROUTER_MERGE_H_
