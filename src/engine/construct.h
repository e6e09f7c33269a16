#ifndef CURE_ENGINE_CONSTRUCT_H_
#define CURE_ENGINE_CONSTRUCT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "cube/cube_store.h"
#include "cube/measures.h"
#include "cube/record_layout.h"
#include "cube/rowid.h"
#include "cube/signature.h"
#include "engine/cube_build.h"
#include "engine/sorters.h"
#include "plan/execution_plan.h"
#include "schema/cube_schema.h"
#include "schema/fact_table.h"
#include "storage/relation.h"

namespace cure {
namespace engine {

struct CureOptions;  // engine/cure.h

/// Column-oriented view of one recursion input (the whole fact table, one
/// sound partition, or node N). Columns may alias caller-owned memory or be
/// owned by the Load.
struct Load {
  std::vector<const uint32_t*> native;  // D columns of native codes
  std::vector<const int64_t*> aggrs;    // Y columns of lifted aggregates
  std::vector<cube::RowId> rowids;
  std::vector<int> native_level;        // per dimension; kNativeAll possible
  size_t n = 0;
  /// Per raw measure: the value range seen while loading fact data (the
  /// record-width bounds; empty for partition and node-N loads).
  std::vector<cube::ValueRange> measure_ranges;

  // Owned backing storage (when not aliasing).
  std::vector<std::vector<uint32_t>> own_dims;
  std::vector<std::vector<int64_t>> own_aggrs;
};

/// Aliases the in-memory fact table's columns (COUNT aggregates get an
/// owned all-ones column); measure ranges come from the table's tracking.
Load LoadFromTable(const schema::FactTable& table,
                   const schema::CubeSchema& schema);

/// Scans a sealed binary fact relation ([D x u32][M x i64] records) in
/// blocks of storage::kDefaultBlockRows, one contiguous gather per column per
/// block, lifting raw measures into aggregate space and recording the range
/// of every measure an aggregate reads.
Result<Load> LoadFromFactRelation(const storage::Relation& rel,
                                  const schema::CubeSchema& schema);

/// Scans a sound-partition relation ([D x u32][Y x i64 lifted][u64 rowid]
/// records) written by PartitionFact, block by block like
/// LoadFromFactRelation.
Result<Load> LoadFromPartition(const storage::Relation& rel,
                               const schema::CubeSchema& schema);

/// Aliases the partition-pass node N (already aggregated; row-ids reference
/// N itself).
Load LoadFromAggTable(const cube::AggTable& table,
                      const schema::CubeSchema& schema);

/// The recursive BUC-style traversal of CURE's execution plan (the paper's
/// ExecutePlan / FollowEdge of Fig. 13), writing TTs eagerly and pooling
/// signatures for every non-trivial tuple.
///
/// An Executor instance is single-threaded; parallel builds give each worker
/// its own Executor over a private per-partition store, pool, and stats
/// sink. The schema and options are shared read-only.
class Executor {
 public:
  Executor(const schema::CubeSchema* schema, const CureOptions* options,
           cube::CubeStore* store, cube::SignaturePool* pool,
           BuildStats* stats);

  /// Full in-memory construction: ExecutePlan over the whole input.
  Status RunInMemory(const Load& load);

  /// Per-partition construction: FollowEdge on dimension 0 at level L
  /// (builds only nodes with A at levels <= L).
  Status RunPartition(const Load& load, int level);

  /// Node-N construction: ExecutePlan with dimension 0 bounded below by
  /// L+1 (or skipped entirely when A was projected out of N).
  Status RunNodeN(const Load& load, int level);

 private:
  Status PrepareRun(const Load* load, const std::vector<int>& base_levels);
  uint32_t Key(uint32_t row, int d, int level) const;
  Status ExecutePlan(size_t begin, size_t end, int dim);
  Status FollowEdge(size_t begin, size_t end, int d);

  const schema::CubeSchema* schema_;
  const CureOptions* options_;
  cube::CubeStore* store_;
  cube::SignaturePool* pool_;
  BuildStats* stats_;
  plan::Cursor cursor_;  // Where the walk is; reset per run.
  int num_dims_;
  int y_;

  // Per-run state.
  const Load* load_ = nullptr;
  std::vector<uint32_t> idx_;
  std::vector<std::vector<std::vector<uint32_t>>> maps_;
  SortScratch scratch_;
  std::vector<int64_t> agg_buf_;
  std::vector<uint32_t> dr_dims_;
};

}  // namespace engine
}  // namespace cure

#endif  // CURE_ENGINE_CONSTRUCT_H_
