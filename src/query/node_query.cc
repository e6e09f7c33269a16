#include "query/node_query.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/trace.h"
#include "cube/rowid.h"
#include "engine/kernels.h"
#include "plan/execution_plan.h"
#include "query/fold.h"
#include "storage/row_block.h"

namespace cure {
namespace query {

using cube::CatFormat;
using cube::CubeStore;
using cube::RowId;
using schema::NodeId;

Result<std::unique_ptr<CureQueryEngine>> CureQueryEngine::Create(
    const engine::CureCube* cube, double fact_cache_fraction) {
  if (cube->plan_style() != plan::Style::kTall) {
    return Status::InvalidArgument(
        "query answering requires a cube built with the tall (P3) plan");
  }
  CURE_ASSIGN_OR_RETURN(cube::SourceSet sources,
                        cube->MakeSources(fact_cache_fraction));
  // Read once here: per query, the environment lookup would cost as much as
  // a small query.
  return std::unique_ptr<CureQueryEngine>(new CureQueryEngine(
      cube, std::move(sources), ThreadPool::DefaultThreadCount() - 1));
}

ThreadPool* CureQueryEngine::DerefPool() const {
  if (deref_workers_ == 0) return nullptr;
  std::call_once(deref_pool_once_, [this] {
    deref_pool_ = std::make_unique<ThreadPool>(deref_workers_);
  });
  return deref_pool_.get();
}

Status CureQueryEngine::QueryNode(NodeId id, ResultSink* sink) const {
  return QueryImpl(id, -1, 0, nullptr, sink);
}

Status CureQueryEngine::QueryNodeCountIceberg(NodeId id, int count_aggregate,
                                              int64_t min_count,
                                              ResultSink* sink) const {
  return QueryImpl(id, count_aggregate, min_count, nullptr, sink);
}

Status CureQueryEngine::QueryNodeSliced(NodeId id,
                                        const std::vector<Slice>& slices,
                                        ResultSink* sink) const {
  return QueryImpl(id, -1, 0, &slices, sink);
}

Status CureQueryEngine::QueryNodeSlicedIceberg(NodeId id,
                                               const std::vector<Slice>& slices,
                                               int count_aggregate,
                                               int64_t min_count,
                                               ResultSink* sink) const {
  return QueryImpl(id, count_aggregate, min_count, &slices, sink);
}

namespace {

/// What a query does with dereferenced source rows: project each row's
/// native codes onto the node's levels through the Projection resolved once
/// for its source, apply the slices, emit. Const, with per-call scratch, so
/// the dereference pool's workers share one.
class RowEmitter {
 public:
  /// `count_aggregate` < 0 disables the iceberg test.
  RowEmitter(const cube::SourceSet& sources, const std::vector<int>& levels,
             const std::vector<SliceFilter>& slices, int count_aggregate,
             int64_t min_count, int g, int y)
      : slices_(slices),
        count_aggregate_(count_aggregate),
        min_count_(min_count),
        g_(g),
        y_(y) {
    for (uint32_t tag = 0; tag < cube::kNumSourceTags; ++tag) {
      resolved_[tag] =
          sources.ResolveProjection(tag, levels, &projection_[tag]);
    }
  }

  /// Emits to `sink`, in order, each of the `n` rows behind `rowids` (row
  /// i's native codes at `native + i * num_dims`, its aggregates at
  /// `aggrs + i * y`) that passes the iceberg test, projected onto the node
  /// and sliced.
  Status EmitRows(const RowId* rowids, size_t n, const uint32_t* native,
                  size_t num_dims, const int64_t* aggrs,
                  ResultSink* sink) const {
    uint32_t dims[cube::kMaxProjectedDims];
    for (size_t i = 0; i < n; ++i, native += num_dims, aggrs += y_) {
      if (count_aggregate_ >= 0 && aggrs[count_aggregate_] < min_count_) {
        continue;
      }
      const uint32_t tag = cube::RowIdSource(rowids[i]);
      if (tag >= cube::kNumSourceTags) {
        return Status::NotFound("no source registered for tag " +
                                std::to_string(tag));
      }
      // A source that cannot serve this node (or is not registered) fails
      // the query only when one of its rows shows up.
      if (!resolved_[tag].ok()) return resolved_[tag];
      projection_[tag].Apply(native, dims);
      if (PassesSlices(dims)) sink->Emit(dims, g_, aggrs, y_);
    }
    return Status::OK();
  }

 private:
  bool PassesSlices(const uint32_t* dims) const {
    return std::all_of(slices_.begin(), slices_.end(),
                       [&](const SliceFilter& p) { return p.Passes(dims); });
  }

  const std::vector<SliceFilter>& slices_;
  const int count_aggregate_;
  const int64_t min_count_;
  const int g_;
  const int y_;
  cube::Projection projection_[cube::kNumSourceTags];
  Status resolved_[cube::kNumSourceTags];
};

/// The node query's row-id dereference buffer (DESIGN.md §13). Tuples whose
/// codes live behind a row-id are queued in chunks with the aggregates they
/// carry. One SourceSet::GetRows dereferences a chunk — a gather from each
/// source's span — and the emitter then emits its tuples in queue order.
/// Over files the buffer is a pipeline: a full chunk is dereferenced and
/// emitted into a chunk-local sink on an idle worker of the engine's pool
/// while this thread scans on, and this thread splices finished chunk
/// sinks into the caller's sink, strictly in queue order. A chunk handled
/// here with nothing queued ahead of it emits straight into the caller's
/// sink; with every source in memory that is every tuple, read and emitted
/// as it is queued.
class DerefBuffer {
 public:
  /// `pool` yields the engine's dereference pool (nullptr without workers);
  /// it is asked at the first full chunk of a file-backed source.
  DerefBuffer(const cube::SourceSet& sources, const RowEmitter& emitter,
              int num_dims, int y, ResultSink* sink,
              std::function<ThreadPool*()> pool)
      : sources_(sources),
        emitter_(emitter),
        sink_(sink),
        pool_(std::move(pool)),
        chunk_rows_(sources.reads_files() ? kDereferenceChunkRows : 1),
        num_dims_(num_dims),
        y_(y),
        cur_(sink->retain()) {}

  /// A worker may still be emitting a chunk of a query that failed.
  ~DerefBuffer() {
    for (const std::unique_ptr<Chunk>& chunk : queue_) chunk->Wait();
  }

  /// Queues a tuple that carries its own aggregates (an NT or a CAT).
  Status Add(RowId rowid, const int64_t* aggrs) {
    cur_.carried.insert(cur_.carried.end(), aggrs, aggrs + y_);
    return Add(rowid);
  }

  /// Queues a tuple emitted with its source row's aggregates (a TT). One
  /// chunk never mixes the two kinds: the caller flushes between them.
  Status Add(RowId rowid) {
    cur_.rowids.push_back(rowid);
    return cur_.rowids.size() < chunk_rows_ ? Status::OK() : HandOff();
  }

  /// Ends a part of the query: handles the last, partial chunk on this
  /// thread and splices every queued chunk.
  Status Flush() {
    if (!cur_.rowids.empty()) CURE_RETURN_IF_ERROR(EmitHere());
    return SpliceQueued(0);
  }

 private:
  struct Chunk {
    explicit Chunk(bool retain) : sink(retain) {}

    std::vector<RowId> rowids;
    std::vector<int64_t> carried;
    std::vector<uint32_t> native;
    std::vector<int64_t> row_aggrs;
    ResultSink sink;              // the queued chunk's emitted rows
    std::future<Status> pending;  // valid while a worker emits the chunk
    Status status;                // the finished emission's

    bool Done() const {
      return !pending.valid() || pending.wait_for(std::chrono::seconds(0)) ==
                                     std::future_status::ready;
    }
    Status Wait() {
      if (pending.valid()) status = pending.get();
      return status;
    }
  };

  // Dereferences `c` and emits its tuples to `sink`. Runs on a worker or on
  // the query thread.
  Status Emit(Chunk* c, ResultSink* sink) const {
    const size_t n = c->rowids.size();
    c->native.resize(n * num_dims_);
    c->row_aggrs.resize(n * y_);
    CURE_RETURN_IF_ERROR(sources_.GetRows(c->rowids.data(), n,
                                          c->native.data(),
                                          c->row_aggrs.data()));
    const int64_t* aggrs =
        c->carried.empty() ? c->row_aggrs.data() : c->carried.data();
    return emitter_.EmitRows(c->rowids.data(), n, c->native.data(),
                             num_dims_, aggrs, sink);
  }

  // The current chunk is full: hand it to an idle worker, else emit it
  // here. Either way it joins the queue, which holds at most workers + 1
  // chunks.
  Status HandOff() {
    ThreadPool* pool = chunk_rows_ > 1 ? pool_() : nullptr;
    if (pool != nullptr) {
      CURE_RETURN_IF_ERROR(SpliceQueued(pool->num_threads()));
      if (pool->HasIdleWorker()) {
        Chunk* c = Enqueue();
        c->pending = pool->Submit([this, c] { return Emit(c, &c->sink); });
        return Status::OK();
      }
    }
    return EmitHere();
  }

  // Emits the current chunk on this thread: straight into the caller's
  // sink when no chunk is queued ahead of it — always so without a pool,
  // where this is every in-memory tuple's path and is kept free of Status
  // copies — else into its own sink, queued behind the others.
  Status EmitHere() {
    if (!queue_.empty()) {
      cur_.status = Emit(&cur_, &cur_.sink);
      Enqueue();
      return Status::OK();
    }
    CURE_RETURN_IF_ERROR(Emit(&cur_, sink_));
    cur_.rowids.clear();
    cur_.carried.clear();
    return Status::OK();
  }

  // Moves the current chunk to the back of the queue, where its address
  // stays put for a worker; the current chunk takes a spare's buffers.
  Chunk* Enqueue() {
    std::unique_ptr<Chunk> c;
    if (spare_.empty()) {
      c = std::make_unique<Chunk>(sink_->retain());
    } else {
      c = std::move(spare_.back());
      spare_.pop_back();
    }
    std::swap(*c, cur_);
    queue_.push_back(std::move(c));
    return queue_.back().get();
  }

  // Splices queued chunks into the caller's sink in queue order: each one
  // whose emission is done and, waiting for it, the oldest while more than
  // `max_queued` are queued. On the first failure it splices nothing more
  // and returns that status once every emission in flight has finished; a
  // failed chunk's rows never reach the caller's sink.
  Status SpliceQueued(size_t max_queued) {
    Status s = Status::OK();
    while (!queue_.empty()) {
      Chunk& head = *queue_.front();
      if (s.ok() && queue_.size() <= max_queued && !head.Done()) break;
      if (Status emitted = head.Wait(); s.ok()) {
        if (emitted.ok()) {
          sink_->Append(&head.sink);
        } else {
          s = std::move(emitted);
        }
      }
      head.rowids.clear();
      head.carried.clear();
      head.sink.Reset();
      head.status = Status::OK();
      spare_.push_back(std::move(queue_.front()));
      queue_.erase(queue_.begin());
    }
    return s;
  }

  const cube::SourceSet& sources_;
  const RowEmitter& emitter_;
  ResultSink* const sink_;
  const std::function<ThreadPool*()> pool_;
  const size_t chunk_rows_;
  const size_t num_dims_;
  const size_t y_;
  // Nothing here allocates before a chunk fills, so small queries pay no
  // heap allocation for the pipeline.
  Chunk cur_;
  std::vector<std::unique_ptr<Chunk>> queue_;  // in queue order, <= workers+1
  std::vector<std::unique_ptr<Chunk>> spare_;
};

}  // namespace

Status CureQueryEngine::QueryImpl(NodeId id, int count_aggregate,
                                  int64_t min_count,
                                  const std::vector<Slice>* slices,
                                  ResultSink* sink) const {
  const CubeStore& store = cube_->store();
  const schema::CubeSchema& schema = cube_->schema();
  const int num_dims = schema.num_dims();
  const int y = schema.num_aggregates();
  const std::vector<int> levels = store.codec().Decode(id);
  int g = 0;
  for (int d = 0; d < num_dims; ++d) {
    if (levels[d] != store.codec().all_level(d)) ++g;
  }
  const bool iceberg = count_aggregate >= 0 && min_count > 1;

  // Prepare slice predicates: each needs the grouping-output position of
  // its dimension and the roll-up map from the node's level to the slice's.
  std::vector<SliceFilter> prepared;
  if (slices != nullptr) {
    for (const Slice& slice : *slices) {
      if (slice.dim < 0 || slice.dim >= num_dims) {
        return Status::InvalidArgument("slice dimension out of range");
      }
      std::optional<LevelColumn> column =
          MapLevelColumn(schema, levels, slice.dim, slice.level);
      if (!column) {
        return Status::InvalidArgument(
            "slice on dimension '" + schema.dim(slice.dim).name() +
            "' requires the node to group it at a level at least as fine as "
            "the slice level");
      }
      prepared.push_back({std::move(*column), slice.code});
    }
  }

  uint32_t dims[64];
  int64_t aggrs[16];
  CURE_CHECK_LE(num_dims, 64);
  CURE_CHECK_LE(y, 16);

  const CubeStore::NodeData* node = store.node(id);
  const cube::RecordLayout& layout = store.layout();
  const size_t nt_aggrs_offset = store.NtAggregatesOffset(g);
  const RowEmitter emitter(sources_, levels, prepared,
                           iceberg ? count_aggregate : -1, min_count, g, y);
  DerefBuffer deref(sources_, emitter, num_dims, y, sink,
                    [this] { return DerefPool(); });

  // Normal tuples. Predicates run as selection-vector kernels over column
  // slices gathered once per block; only surviving rows are materialized
  // (and, in the row-id scheme, queued for dereference).
  if (node != nullptr && node->has_nt) {
    CURE_TRACE_SPAN("cure.engine.kernel.nt_scan", "rows", node->nt.num_rows());
    const bool dims_in_nt = store.options().dims_in_nt;
    storage::Relation::BlockScanner scan(node->nt, block_rows_);
    storage::RowBlock block;
    storage::SelectionVector sel(block_rows_);
    std::vector<int64_t> count_col(iceberg ? block_rows_ : 0);
    std::vector<uint32_t> dim_col(
        dims_in_nt && !prepared.empty() ? block_rows_ : 0);
    while (scan.Next(&block)) {
      size_t n;
      if (iceberg) {
        // Iceberg prefilter before any per-row work: in the row-id scheme
        // this skips the source dereference for sub-threshold groups.
        layout.GatherAggregate(block, nt_aggrs_offset, count_aggregate,
                               count_col.data());
        n = engine::SelectGeI64(count_col.data(), block.rows, min_count,
                                sel.data());
      } else {
        n = block.rows;
        for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
      }
      if (dims_in_nt) {
        for (const SliceFilter& p : prepared) {
          if (n == 0) break;
          storage::GatherBlockU32(block, 4ull * p.column.col, dim_col.data());
          n = p.column.map.empty()
                  ? engine::RefineEqU32(dim_col.data(), p.code, sel.data(), n)
                  : engine::RefineMappedEqU32(dim_col.data(),
                                              p.column.map.data(), p.code,
                                              sel.data(), n);
        }
      }
      for (size_t j = 0; j < n; ++j) {
        const uint8_t* rec = block.record(sel[j]);
        layout.GetAggregates(rec + nt_aggrs_offset, aggrs);
        if (dims_in_nt) {
          std::memcpy(dims, rec, 4ull * g);
          sink->Emit(dims, g, aggrs, y);
        } else {
          CURE_RETURN_IF_ERROR(deref.Add(layout.GetRowId(rec), aggrs));
        }
      }
    }
    CURE_RETURN_IF_ERROR(scan.status());
    CURE_RETURN_IF_ERROR(deref.Flush());
  }

  // Common aggregate tuples: each CAT's aggregates (and, in format (a), its
  // R-rowid) live in the AGGREGATES relation at the CAT's arowid. One
  // AGGREGATES gather per CAT block, then the iceberg test
  // and the queue for the source dereference.
  if (node != nullptr && node->has_cat) {
    const storage::Relation& aggregates = store.aggregates();
    const size_t agg_width = aggregates.record_size();
    const size_t arowid_offset = store.CatArowidOffset();
    const size_t agg_offset = store.AggregatesAggrOffset();
    const bool format_a = store.cat_format() == CatFormat::kFormatA;
    const size_t cat_block =
        std::min<uint64_t>(block_rows_, node->cat.num_rows());
    storage::Relation::BlockScanner scan(node->cat, cat_block);
    storage::RowBlock block;
    std::vector<uint64_t> arowids(cat_block);
    std::vector<uint8_t> agg_recs(cat_block * agg_width);
    while (scan.Next(&block)) {
      for (size_t i = 0; i < block.rows; ++i) {
        arowids[i] = layout.GetArowid(block.record(i) + arowid_offset);
      }
      CURE_RETURN_IF_ERROR(
          aggregates.ReadRows(arowids.data(), block.rows, agg_recs.data()));
      for (size_t i = 0; i < block.rows; ++i) {
        const uint8_t* agg_rec = agg_recs.data() + i * agg_width;
        // Format (a) keeps the R-rowid in AGGREGATES, format (b) in the CAT.
        const RowId rowid =
            layout.GetRowId(format_a ? agg_rec : block.record(i));
        layout.GetAggregates(agg_rec + agg_offset, aggrs);
        if (iceberg && aggrs[count_aggregate] < min_count) continue;
        CURE_RETURN_IF_ERROR(deref.Add(rowid, aggrs));
      }
    }
    CURE_RETURN_IF_ERROR(scan.status());
    CURE_RETURN_IF_ERROR(deref.Flush());
  }

  // Trivial tuples, shared along the plan path. A TT stands for one source
  // row: a fact row's COUNT is 1, so iceberg queries skip the TTs of nodes
  // built from R outright; a node-N row (region 1 of a partitioned build)
  // aggregates many fact rows and takes the emitter's iceberg test. The
  // whole path's row-ids are queued, so one dereference chunk spans several
  // TT relations.
  const int region = cube_->NodeRegion(id);
  if (!iceberg || region != 0) {
    for (NodeId path_node : plan::PathFromRoot(schema, store.codec(), id)) {
      if (cube_->NodeRegion(path_node) != region) continue;
      const CubeStore::NodeData* pd = store.node(path_node);
      if (pd == nullptr) continue;
      if (pd->tt_bitmap != nullptr) {
        Status status = Status::OK();
        pd->tt_bitmap->ForEach([&](uint64_t ordinal) {
          if (!status.ok()) return;
          status = deref.Add(cube::MakeRowId(pd->tt_source, ordinal));
        });
        CURE_RETURN_IF_ERROR(status);
      } else if (pd->has_tt) {
        storage::Relation::BlockScanner scan(pd->tt, block_rows_);
        storage::RowBlock block;
        while (scan.Next(&block)) {
          for (size_t i = 0; i < block.rows; ++i) {
            CURE_RETURN_IF_ERROR(deref.Add(layout.GetRowId(block.record(i))));
          }
        }
        CURE_RETURN_IF_ERROR(scan.status());
      }
    }
    CURE_RETURN_IF_ERROR(deref.Flush());
  }
  return Status::OK();
}

Status BucQueryEngine::QueryNode(NodeId id, ResultSink* sink) const {
  const CubeStore& store = cube_->store();
  const schema::CubeSchema& schema = cube_->schema();
  const int y = schema.num_aggregates();
  const CubeStore::NodeData* node = store.node(id);
  if (node == nullptr || !node->has_plain) return Status::OK();
  const int g = static_cast<int>(node->grouping_dims.size());
  uint32_t dims[64];
  int64_t aggrs[16];
  const cube::RecordLayout& layout = store.layout();
  storage::Relation::BlockScanner scan(node->plain);
  storage::RowBlock block;
  while (scan.Next(&block)) {
    for (size_t i = 0; i < block.rows; ++i) {
      const uint8_t* rec = block.record(i);
      std::memcpy(dims, rec, 4ull * g);
      layout.GetAggregates(rec + 4ull * g, aggrs);
      sink->Emit(dims, g, aggrs, y);
    }
  }
  return scan.status();
}

Status BubstQueryEngine::QueryNode(NodeId id, ResultSink* sink) const {
  const schema::CubeSchema& schema = cube_->schema();
  const int num_dims = schema.num_dims();
  const int y = schema.num_aggregates();
  const std::vector<int> query_levels = codec_.Decode(id);
  std::vector<bool> grouped(num_dims);
  int g = 0;
  for (int d = 0; d < num_dims; ++d) {
    grouped[d] = query_levels[d] != codec_.all_level(d);
    if (grouped[d]) ++g;
  }

  uint32_t row_dims[64];
  uint32_t out_dims[64];
  int64_t aggrs[16];
  std::vector<int> row_levels(num_dims);
  const cube::RecordLayout& layout = cube_->layout();
  const size_t tag_offset = 4ull * num_dims + layout.aggregates_bytes();
  const size_t tag_width = cube_->tag_width();
  auto emit_row = [&](const uint8_t* rec) {
    std::memcpy(row_dims, rec, 4ull * num_dims);
    layout.GetAggregates(rec + 4ull * num_dims, aggrs);
    const uint64_t tag = engine::BubstRecord::GetTag(rec + tag_offset, tag_width);
    const bool bst = (tag & engine::BubstRecord::kBstFlag) != 0;
    const NodeId row_node = tag & ~engine::BubstRecord::kBstFlag;
    bool matches;
    if (bst) {
      // A BST written at node G stands for the tuples of G's recursion
      // sub-tree: nodes whose extra grouping dims all come after G's last
      // one. (A plain superset test would double-count tuples that are
      // singletons in several independent dimension subsets, because the
      // bottom-up recursion writes one BST per pruned branch.)
      codec_.DecodeInto(row_node, &row_levels);
      matches = true;
      int max_row_dim = -1;
      for (int d = 0; d < num_dims; ++d) {
        if (row_levels[d] != codec_.all_level(d)) max_row_dim = d;
      }
      for (int d = 0; d < num_dims; ++d) {
        const bool row_grouped = row_levels[d] != codec_.all_level(d);
        if (row_grouped && !grouped[d]) {
          matches = false;  // query must include all of G's dims
          break;
        }
        if (!row_grouped && grouped[d] && d < max_row_dim) {
          matches = false;  // extra dims must come after G's last dim
          break;
        }
      }
    } else {
      matches = row_node == id;
    }
    if (!matches) return;
    int o = 0;
    for (int d = 0; d < num_dims; ++d) {
      if (grouped[d]) out_dims[o++] = row_dims[d];
    }
    sink->Emit(out_dims, g, aggrs, y);
  };

  // The format's cost: every query scans the entire monolithic relation.
  // The node-tag column is gathered once per block and prefiltered with a
  // branch-free kernel — only exact-node rows and BSTs (which need the full
  // sub-tree test) reach the per-row logic.
  storage::Relation::BlockScanner scan(cube_->monolithic());
  storage::RowBlock block;
  std::vector<uint64_t> tags(storage::kDefaultBlockRows);
  storage::SelectionVector sel(storage::kDefaultBlockRows);
  while (scan.Next(&block)) {
    engine::BubstRecord::GatherTags(block, tag_offset, tag_width, tags.data());
    const size_t n = engine::SelectEqOrFlagU64(
        tags.data(), block.rows, id, engine::BubstRecord::kBstFlag, sel.data());
    for (size_t j = 0; j < n; ++j) emit_row(block.record(sel[j]));
  }
  return scan.status();
}

FlatNodeMapping MapToFlatNode(const schema::CubeSchema& hier_schema,
                              NodeId hier_node) {
  const schema::NodeIdCodec hier_codec(hier_schema);
  const schema::CubeSchema flat_schema = hier_schema.Flattened();
  const schema::NodeIdCodec flat_codec(flat_schema);
  std::vector<int> leaf_levels = hier_codec.Decode(hier_node);
  std::vector<int> flat_levels(hier_schema.num_dims());
  FlatNodeMapping mapping;
  for (int d = 0; d < hier_schema.num_dims(); ++d) {
    if (leaf_levels[d] == hier_codec.all_level(d)) {
      flat_levels[d] = flat_codec.all_level(d);
    } else {
      flat_levels[d] = 0;
      if (leaf_levels[d] != 0) mapping.needs_rollup = true;
      leaf_levels[d] = 0;
    }
  }
  mapping.flat_node = flat_codec.Encode(flat_levels);
  mapping.leaf_node = hier_codec.Encode(leaf_levels);
  return mapping;
}

Status QueryHierarchicalOverFlat(const CureQueryEngine& flat_engine,
                                 const schema::CubeSchema& hier_schema,
                                 NodeId hier_node, ResultSink* sink) {
  const FlatNodeMapping mapping = MapToFlatNode(hier_schema, hier_node);
  if (!mapping.needs_rollup) {
    // Leaf-level query: answer directly from the flat cube.
    return flat_engine.QueryNode(mapping.flat_node, sink);
  }
  // Fetch the leaf-level node and roll it up on the fly (the extra
  // aggregation work the paper's Fig. 28 measures).
  ResultSink leaf_sink(/*retain=*/true);
  CURE_RETURN_IF_ERROR(flat_engine.QueryNode(mapping.flat_node, &leaf_sink));
  return RollUp(hier_schema, mapping.leaf_node, leaf_sink.rows(), hier_node,
                {}, -1, 0, sink);
}

}  // namespace query
}  // namespace cure
