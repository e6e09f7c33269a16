#ifndef CURE_QUERY_NODE_QUERY_H_
#define CURE_QUERY_NODE_QUERY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "cube/source.h"
#include "engine/bubst.h"
#include "engine/buc.h"
#include "engine/cure.h"
#include "schema/node_id.h"
#include "storage/row_block.h"

namespace cure {
namespace query {

/// Row-ids CureQueryEngine dereferences per batch when a
/// source reads from a file: a chunk this full goes to an idle worker of the
/// engine's dereference pool, and the last, partial chunk of the NT, CAT and
/// TT parts of a query is read on the query thread (DESIGN.md §13).
inline constexpr size_t kDereferenceChunkRows = 16384;

/// Receives query result tuples. Always counts tuples and maintains an
/// order-independent checksum; with `retain` it also materializes the rows
/// (tests and the flat-cube roll-up path use that).
class ResultSink {
 public:
  struct Row {
    std::vector<uint32_t> dims;
    std::vector<int64_t> aggrs;
  };

  explicit ResultSink(bool retain = false) : retain_(retain) {}

  void Emit(const uint32_t* dims, int num_dims, const int64_t* aggrs,
            int num_aggrs) {
    ++count_;
    uint64_t h = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < num_dims; ++i) h = Mix(h, dims[i]);
    for (int i = 0; i < num_aggrs; ++i) {
      h = Mix(h, static_cast<uint64_t>(aggrs[i]));
    }
    checksum_ ^= h;  // Order-independent combine.
    if (retain_) {
      Row row;
      row.dims.assign(dims, dims + num_dims);
      row.aggrs.assign(aggrs, aggrs + num_aggrs);
      rows_.push_back(std::move(row));
    }
  }

  uint64_t count() const { return count_; }
  uint64_t checksum() const { return checksum_; }
  const std::vector<Row>& rows() const { return rows_; }
  std::vector<Row>&& TakeRows() { return std::move(rows_); }

  void Reset() {
    count_ = 0;
    checksum_ = 0;
    rows_.clear();
  }

 private:
  static uint64_t Mix(uint64_t h, uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return h * 0xBF58476D1CE4E5B9ull;
  }

  bool retain_;
  uint64_t count_ = 0;
  uint64_t checksum_ = 0;
  std::vector<Row> rows_;
};

/// Answers node queries over a CURE cube (Sec. 5's storage schemes read
/// back): NTs and CATs from the node's relations (dereferencing row-ids
/// through the fact table / node N), TTs collected along the execution-plan
/// path from the root — the reader side of the paper's TT sub-tree sharing.
///
/// Over a file-backed source, full dereference chunks are read on a pool of
/// ThreadPool::DefaultThreadCount() - 1 workers the engine owns, created at
/// the first full chunk; the rows still come out in one thread's order.
class CureQueryEngine {
 public:
  /// `fact_cache_fraction`: pinned fraction of the fact relation (Fig. 17);
  /// ignored (fully cached) when the cube was built from an in-memory table.
  static Result<std::unique_ptr<CureQueryEngine>> Create(
      const engine::CureCube* cube, double fact_cache_fraction);

  /// Emits every tuple of lattice node `id`.
  Status QueryNode(schema::NodeId id, ResultSink* sink) const;

  /// Count-iceberg query: HAVING count >= min_count. TT relations over the
  /// fact table are skipped outright (their count is always 1), the
  /// property that makes iceberg queries over CURE cubes orders of
  /// magnitude faster (Sec. 7). TTs over node N of a partitioned build
  /// aggregate many fact rows and are tested like any other tuple.
  Status QueryNodeCountIceberg(schema::NodeId id, int count_aggregate,
                               int64_t min_count, ResultSink* sink) const;

  /// A dice/slice predicate: dimension `dim` restricted to hierarchy-level
  /// `level` code `code`. The queried node must group `dim` at `level` or a
  /// finer level (the standard OLAP slicing restriction — coarser nodes do
  /// not retain the information).
  struct Slice {
    int dim = 0;
    int level = 0;
    uint32_t code = 0;
  };

  /// Node query with selection: emits only the groups whose codes roll up
  /// to every slice's value (e.g. node at City level sliced to
  /// Country = "France").
  Status QueryNodeSliced(schema::NodeId id, const std::vector<Slice>& slices,
                         ResultSink* sink) const;

  /// Combined slice + count-iceberg query: groups must both roll up to every
  /// slice's value and satisfy HAVING count >= min_count. With min_count <= 1
  /// this degenerates to QueryNodeSliced; with empty slices to
  /// QueryNodeCountIceberg. The serving layer routes every request through
  /// this entry.
  Status QueryNodeSlicedIceberg(schema::NodeId id,
                                const std::vector<Slice>& slices,
                                int count_aggregate, int64_t min_count,
                                ResultSink* sink) const;

  const cube::SourceSet& sources() const { return sources_; }

  /// Rows per block of the node relation scans (DESIGN.md §13); 0 means
  /// storage::kDefaultBlockRows. 1 reads one-row blocks of the same path.
  /// Results are identical, in order, at every block size.
  void set_batch_rows(size_t batch_rows) {
    block_rows_ = batch_rows != 0 ? batch_rows : storage::kDefaultBlockRows;
  }

 private:
  CureQueryEngine(const engine::CureCube* cube, cube::SourceSet sources,
                  int deref_workers)
      : cube_(cube),
        sources_(std::move(sources)),
        deref_workers_(deref_workers) {}

  Status QueryImpl(schema::NodeId id, int count_aggregate, int64_t min_count,
                   const std::vector<Slice>* slices, ResultSink* sink) const;

  /// The dereference pool, started on the first call; nullptr when the
  /// engine has no dereference workers.
  ThreadPool* DerefPool() const;

  const engine::CureCube* cube_;
  cube::SourceSet sources_;
  size_t block_rows_ = storage::kDefaultBlockRows;
  const int deref_workers_;
  mutable std::once_flag deref_pool_once_;
  mutable std::unique_ptr<ThreadPool> deref_pool_;
};

/// Answers node queries over a BUC cube: a direct scan of the node's
/// uncondensed relation.
class BucQueryEngine {
 public:
  explicit BucQueryEngine(const engine::BucCube* cube) : cube_(cube) {}

  Status QueryNode(schema::NodeId id, ResultSink* sink) const;

 private:
  const engine::BucCube* cube_;
};

/// Answers node queries over a BU-BST cube: a sequential scan of the entire
/// monolithic relation per query (the format's inherent cost, Fig. 16).
class BubstQueryEngine {
 public:
  explicit BubstQueryEngine(const engine::BubstCube* cube)
      : cube_(cube), codec_(cube->schema()) {}

  Status QueryNode(schema::NodeId id, ResultSink* sink) const;

 private:
  const engine::BubstCube* cube_;
  schema::NodeIdCodec codec_;
};

/// Mapping between a hierarchical node and its leaf-level (flat) twin.
struct FlatNodeMapping {
  schema::NodeId flat_node = 0;
  /// True when some grouping dimension sits above the leaf level, i.e. the
  /// flat result must be rolled up.
  bool needs_rollup = false;
  /// `hier_node` with every grouping dimension at its leaf level, in the
  /// hierarchical codec: the node whose rows the flat twin returns and
  /// query::RollUp rolls up (Fig. 28's on-the-fly aggregation).
  schema::NodeId leaf_node = 0;
};
FlatNodeMapping MapToFlatNode(const schema::CubeSchema& hier_schema,
                              schema::NodeId hier_node);

/// Answers a *hierarchical* node query over a *flat* cube by rolling the
/// matching leaf-level node up on the fly — the cost FCURE pays for
/// roll-up/drill-down workloads (Fig. 28). Rolled-up rows come out in
/// dim-code order (query::RollUp).
///
/// `hier_node` is a node id in `hier_schema`'s codec; `flat_engine` must
/// serve the flat cube of the same data.
Status QueryHierarchicalOverFlat(const CureQueryEngine& flat_engine,
                                 const schema::CubeSchema& hier_schema,
                                 schema::NodeId hier_node, ResultSink* sink);

}  // namespace query
}  // namespace cure

#endif  // CURE_QUERY_NODE_QUERY_H_
