#include "query/node_query.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "common/logging.h"
#include "common/trace.h"
#include "cube/rowid.h"
#include "engine/kernels.h"
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
  if (cube->plan_style() != plan::ExecutionPlan::Style::kTall) {
    return Status::InvalidArgument(
        "query answering requires a cube built with the tall (P3) plan");
  }
  CURE_ASSIGN_OR_RETURN(cube::SourceSet sources,
                        cube->MakeSources(fact_cache_fraction));
  return std::unique_ptr<CureQueryEngine>(
      new CureQueryEngine(cube, std::move(sources)));
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
  auto passes_slices = [&](const uint32_t* out_dims) {
    return std::all_of(
        prepared.begin(), prepared.end(),
        [&](const SliceFilter& p) { return p.Passes(out_dims); });
  };

  uint32_t native[64];
  uint32_t dims[64];
  int64_t aggrs[16];
  int64_t row_aggrs[16];
  CURE_CHECK_LE(num_dims, 64);
  CURE_CHECK_LE(y, 16);

  const CubeStore::NodeData* node = store.node(id);
  const size_t block_rows = engine::ResolveBatchRows(batch_rows_);
  const cube::RecordLayout& layout = store.layout();
  const size_t nt_aggrs_offset = store.NtAggregatesOffset(g);

  // Normal tuples.
  if (node != nullptr && node->has_nt && block_rows > 1) {
    // Block path: predicates run as selection-vector kernels over column
    // slices gathered once per block; only surviving rows are materialized
    // (and, in the row-id scheme, dereferenced through the sources).
    CURE_TRACE_SPAN("cure.engine.kernel.nt_scan", "rows", node->nt.num_rows());
    const bool dims_in_nt = store.options().dims_in_nt;
    storage::Relation::BlockScanner scan(node->nt, block_rows);
    storage::RowBlock block;
    storage::SelectionVector sel(block_rows);
    std::vector<int64_t> count_col(iceberg ? block_rows : 0);
    std::vector<uint32_t> dim_col(
        dims_in_nt && !prepared.empty() ? block_rows : 0);
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
        } else {
          const RowId rowid = layout.GetRowId(rec);
          CURE_RETURN_IF_ERROR(sources_.GetRow(rowid, native, row_aggrs));
          CURE_RETURN_IF_ERROR(sources_.ProjectDims(cube::RowIdSource(rowid),
                                                    native, levels, dims));
          if (!passes_slices(dims)) continue;
        }
        sink->Emit(dims, g, aggrs, y);
      }
    }
    CURE_RETURN_IF_ERROR(scan.status());
  } else if (node != nullptr && node->has_nt) {
    storage::Relation::Scanner scan(node->nt);
    while (const uint8_t* rec = scan.Next()) {
      layout.GetAggregates(rec + nt_aggrs_offset, aggrs);
      if (store.options().dims_in_nt) {
        std::memcpy(dims, rec, 4ull * g);
      } else {
        const RowId rowid = layout.GetRowId(rec);
        CURE_RETURN_IF_ERROR(sources_.GetRow(rowid, native, row_aggrs));
        CURE_RETURN_IF_ERROR(
            sources_.ProjectDims(cube::RowIdSource(rowid), native, levels, dims));
      }
      if (iceberg && aggrs[count_aggregate] < min_count) continue;
      if (!passes_slices(dims)) continue;
      sink->Emit(dims, g, aggrs, y);
    }
    CURE_RETURN_IF_ERROR(scan.status());
  }

  // Common aggregate tuples. The block scanner batches the CAT relation
  // reads; the per-row aggregate-table dereference is inherently random
  // access and stays scalar.
  if (node != nullptr && node->has_cat) {
    const storage::Relation& aggregates = store.aggregates();
    uint8_t agg_rec[256];
    CURE_CHECK_LE(aggregates.record_size(), sizeof(agg_rec));
    const size_t arowid_offset = store.CatArowidOffset();
    const size_t agg_offset = store.AggregatesAggrOffset();
    auto emit_cat = [&](const uint8_t* rec) -> Status {
      CURE_RETURN_IF_ERROR(
          aggregates.Read(layout.GetArowid(rec + arowid_offset), agg_rec));
      // Format (a) keeps the R-rowid in AGGREGATES, format (b) in the CAT.
      const RowId rowid = layout.GetRowId(
          store.cat_format() == CatFormat::kFormatA ? agg_rec : rec);
      layout.GetAggregates(agg_rec + agg_offset, aggrs);
      if (iceberg && aggrs[count_aggregate] < min_count) return Status::OK();
      CURE_RETURN_IF_ERROR(sources_.GetRow(rowid, native, row_aggrs));
      CURE_RETURN_IF_ERROR(
          sources_.ProjectDims(cube::RowIdSource(rowid), native, levels, dims));
      if (!passes_slices(dims)) return Status::OK();
      sink->Emit(dims, g, aggrs, y);
      return Status::OK();
    };
    if (block_rows > 1) {
      storage::Relation::BlockScanner scan(node->cat, block_rows);
      storage::RowBlock block;
      while (scan.Next(&block)) {
        for (size_t i = 0; i < block.rows; ++i) {
          CURE_RETURN_IF_ERROR(emit_cat(block.record(i)));
        }
      }
      CURE_RETURN_IF_ERROR(scan.status());
    } else {
      storage::Relation::Scanner scan(node->cat);
      while (const uint8_t* rec = scan.Next()) {
        CURE_RETURN_IF_ERROR(emit_cat(rec));
      }
      CURE_RETURN_IF_ERROR(scan.status());
    }
  }

  // Trivial tuples, shared along the plan path (skipped entirely for
  // iceberg queries: a TT's count is always 1).
  if (!iceberg) {
    const int region = cube_->NodeRegion(id);
    for (NodeId path_node : plan_.PathFromRoot(id)) {
      if (cube_->NodeRegion(path_node) != region) continue;
      const CubeStore::NodeData* pd = store.node(path_node);
      if (pd == nullptr) continue;
      auto emit_tt = [&](RowId rowid) -> Status {
        CURE_RETURN_IF_ERROR(sources_.GetRow(rowid, native, row_aggrs));
        CURE_RETURN_IF_ERROR(
            sources_.ProjectDims(cube::RowIdSource(rowid), native, levels, dims));
        if (passes_slices(dims)) sink->Emit(dims, g, row_aggrs, y);
        return Status::OK();
      };
      if (pd->tt_bitmap != nullptr) {
        Status status = Status::OK();
        pd->tt_bitmap->ForEach([&](uint64_t ordinal) {
          if (!status.ok()) return;
          status = emit_tt(cube::MakeRowId(pd->tt_source, ordinal));
        });
        CURE_RETURN_IF_ERROR(status);
      } else if (pd->has_tt && block_rows > 1) {
        // Block path: one contiguous row-id gather per block, then the
        // scalar per-row dereference/emit.
        storage::Relation::BlockScanner scan(pd->tt, block_rows);
        storage::RowBlock block;
        std::vector<RowId> rowids(block_rows);
        while (scan.Next(&block)) {
          layout.GatherRowIds(block, 0, rowids.data());
          for (size_t i = 0; i < block.rows; ++i) {
            CURE_RETURN_IF_ERROR(emit_tt(rowids[i]));
          }
        }
        CURE_RETURN_IF_ERROR(scan.status());
      } else if (pd->has_tt) {
        storage::Relation::Scanner scan(pd->tt);
        while (const uint8_t* rec = scan.Next()) {
          CURE_RETURN_IF_ERROR(emit_tt(layout.GetRowId(rec)));
        }
        CURE_RETURN_IF_ERROR(scan.status());
      }
    }
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
  const size_t block_rows = engine::ResolveBatchRows(batch_rows_);
  if (block_rows > 1) {
    storage::Relation::BlockScanner scan(node->plain, block_rows);
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
  storage::Relation::Scanner scan(node->plain);
  while (const uint8_t* rec = scan.Next()) {
    std::memcpy(dims, rec, 4ull * g);
    layout.GetAggregates(rec + 4ull * g, aggrs);
    sink->Emit(dims, g, aggrs, y);
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
  const size_t block_rows = engine::ResolveBatchRows(batch_rows_);
  if (block_rows > 1) {
    // Block path: gather the node-tag column once per block and prefilter
    // with a branch-free kernel — only exact-node rows and BSTs (which need
    // the full sub-tree test) reach the per-row logic.
    storage::Relation::BlockScanner scan(cube_->monolithic(), block_rows);
    storage::RowBlock block;
    std::vector<uint64_t> tags(block_rows);
    storage::SelectionVector sel(block_rows);
    while (scan.Next(&block)) {
      engine::BubstRecord::GatherTags(block, tag_offset, tag_width, tags.data());
      const size_t n = engine::SelectEqOrFlagU64(
          tags.data(), block.rows, id, engine::BubstRecord::kBstFlag,
          sel.data());
      for (size_t j = 0; j < n; ++j) emit_row(block.record(sel[j]));
    }
    return scan.status();
  }
  storage::Relation::Scanner scan(cube_->monolithic());
  while (const uint8_t* rec = scan.Next()) emit_row(rec);
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
