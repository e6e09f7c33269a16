#include "engine/construct.h"

#include <algorithm>

#include "common/trace.h"
#include "engine/cure.h"
#include "engine/kernels.h"
#include "storage/row_block.h"

namespace cure {
namespace engine {

using cube::AggTable;
using cube::RowId;
using schema::CubeSchema;
using schema::Dimension;
using schema::NodeId;

Load LoadFromTable(const schema::FactTable& table, const CubeSchema& schema) {
  const int d = schema.num_dims();
  const int y = schema.num_aggregates();
  Load load;
  load.n = table.num_rows();
  load.native_level.assign(d, 0);
  load.native.resize(d);
  for (int i = 0; i < d; ++i) load.native[i] = table.dim_column(i).data();
  load.aggrs.resize(y);
  for (int a = 0; a < y; ++a) {
    const schema::AggregateSpec& spec = schema.aggregate(a);
    if (spec.fn == schema::AggFn::kCount) {
      load.own_aggrs.emplace_back(load.n, 1);
      load.aggrs[a] = load.own_aggrs.back().data();
    } else {
      load.aggrs[a] = table.measure_column(spec.measure_index).data();
    }
  }
  load.rowids.resize(load.n);
  for (size_t i = 0; i < load.n; ++i) {
    load.rowids[i] = cube::MakeRowId(cube::kSourceFact, i);
  }
  load.measure_ranges.resize(table.num_measures());
  for (int m = 0; m < table.num_measures(); ++m) {
    load.measure_ranges[m] = {table.measure_min(m), table.measure_max(m)};
  }
  return load;
}

Result<Load> LoadFromFactRelation(const storage::Relation& rel,
                                  const CubeSchema& schema) {
  const int d = schema.num_dims();
  const int y = schema.num_aggregates();
  Load load;
  load.n = rel.num_rows();
  load.native_level.assign(d, 0);
  load.own_dims.assign(d, std::vector<uint32_t>(load.n));
  load.own_aggrs.assign(y, std::vector<int64_t>(load.n));
  load.rowids.resize(load.n);
  load.measure_ranges.assign(schema.num_raw_measures(), {});
  // One contiguous gather per column per block; COUNT aggregates lift to a
  // constant fill, others to a measure-column gather (the columnarized
  // Aggregator::Lift).
  CURE_TRACE_SPAN("cure.engine.kernel.load_gather", "rows", load.n, "cols",
                  static_cast<uint64_t>(d + y));
  storage::Relation::BlockScanner scan(rel);
  storage::RowBlock block;
  while (scan.Next(&block)) {
    const size_t base = block.first_row;
    for (int k = 0; k < d; ++k) {
      storage::GatherBlockU32(block, 4ull * k, load.own_dims[k].data() + base);
    }
    for (int a = 0; a < y; ++a) {
      const schema::AggregateSpec& spec = schema.aggregate(a);
      int64_t* out = load.own_aggrs[a].data() + base;
      if (spec.fn == schema::AggFn::kCount) {
        std::fill(out, out + block.rows, int64_t{1});
      } else {
        storage::GatherBlockI64(block, 4ull * d + 8ull * spec.measure_index,
                                out);
        cube::ValueRange& range = load.measure_ranges[spec.measure_index];
        for (size_t i = 0; i < block.rows; ++i) range.Add(out[i]);
      }
    }
  }
  CURE_RETURN_IF_ERROR(scan.status());
  for (size_t i = 0; i < load.n; ++i) {
    load.rowids[i] = cube::MakeRowId(cube::kSourceFact, i);
  }
  load.native.resize(d);
  load.aggrs.resize(y);
  for (int k = 0; k < d; ++k) load.native[k] = load.own_dims[k].data();
  for (int a = 0; a < y; ++a) load.aggrs[a] = load.own_aggrs[a].data();
  return load;
}

Result<Load> LoadFromPartition(const storage::Relation& rel,
                               const CubeSchema& schema) {
  const int d = schema.num_dims();
  const int y = schema.num_aggregates();
  Load load;
  load.n = rel.num_rows();
  load.native_level.assign(d, 0);
  load.own_dims.assign(d, std::vector<uint32_t>(load.n));
  load.own_aggrs.assign(y, std::vector<int64_t>(load.n));
  load.rowids.resize(load.n);
  // Partition records carry lifted aggregates and raw fact-table ordinals,
  // so every column is a straight gather.
  CURE_TRACE_SPAN("cure.engine.kernel.load_gather", "rows", load.n, "cols",
                  static_cast<uint64_t>(d + y + 1));
  storage::Relation::BlockScanner scan(rel);
  storage::RowBlock block;
  while (scan.Next(&block)) {
    const size_t base = block.first_row;
    for (int k = 0; k < d; ++k) {
      storage::GatherBlockU32(block, 4ull * k, load.own_dims[k].data() + base);
    }
    for (int a = 0; a < y; ++a) {
      storage::GatherBlockI64(block, 4ull * d + 8ull * a,
                              load.own_aggrs[a].data() + base);
    }
    storage::GatherBlockU64(block, 4ull * d + 8ull * y,
                            load.rowids.data() + base);
  }
  CURE_RETURN_IF_ERROR(scan.status());
  for (size_t i = 0; i < load.n; ++i) {
    load.rowids[i] = cube::MakeRowId(cube::kSourceFact, load.rowids[i]);
  }
  load.native.resize(d);
  load.aggrs.resize(y);
  for (int k = 0; k < d; ++k) load.native[k] = load.own_dims[k].data();
  for (int a = 0; a < y; ++a) load.aggrs[a] = load.own_aggrs[a].data();
  return load;
}

Load LoadFromAggTable(const AggTable& table, const CubeSchema& schema) {
  const int d = schema.num_dims();
  const int y = schema.num_aggregates();
  Load load;
  load.n = table.num_rows;
  load.native_level = table.native_levels;
  load.native.resize(d);
  for (int k = 0; k < d; ++k) load.native[k] = table.dims[k].data();
  load.aggrs.resize(y);
  for (int a = 0; a < y; ++a) load.aggrs[a] = table.aggrs[a].data();
  load.rowids.resize(load.n);
  for (size_t i = 0; i < load.n; ++i) {
    load.rowids[i] = cube::MakeRowId(cube::kSourceNodeN, i);
  }
  return load;
}

Executor::Executor(const CubeSchema* schema, const CureOptions* options,
                   cube::CubeStore* store, cube::SignaturePool* pool,
                   BuildStats* stats)
    : schema_(schema),
      options_(options),
      store_(store),
      pool_(pool),
      stats_(stats),
      cursor_(*schema, options->plan_style),
      num_dims_(schema->num_dims()),
      y_(schema->num_aggregates()) {
  agg_buf_.resize(y_);
  dr_dims_.resize(num_dims_);
}

Status Executor::RunInMemory(const Load& load) {
  CURE_RETURN_IF_ERROR(PrepareRun(&load, {}));
  return ExecutePlan(0, load.n, 0);
}

Status Executor::RunPartition(const Load& load, int level) {
  CURE_RETURN_IF_ERROR(PrepareRun(&load, {}));
  cursor_.Set(0, level);
  return FollowEdge(0, load.n, 0);
}

Status Executor::RunNodeN(const Load& load, int level) {
  // Dimension 0 stays above the partition level; when N projected it out,
  // level + 1 is its ALL level and the walk never enters it.
  std::vector<int> base(num_dims_, 0);
  base[0] = level + 1;
  CURE_RETURN_IF_ERROR(PrepareRun(&load, base));
  return ExecutePlan(0, load.n, 0);
}

Status Executor::PrepareRun(const Load* load,
                            const std::vector<int>& base_levels) {
  load_ = load;
  cursor_.Reset(base_levels);
  idx_.resize(load->n);
  for (size_t i = 0; i < load->n; ++i) idx_[i] = static_cast<uint32_t>(i);
  // Build native-level -> target-level code maps for every level we may
  // sort on. Levels below a dimension's base level are never visited.
  maps_.assign(num_dims_, {});
  for (int d = 0; d < num_dims_; ++d) {
    const Dimension& dim = schema_->dim(d);
    maps_[d].resize(dim.num_levels());
    const int native = load->native_level[d];
    if (native == cube::kNativeAll) continue;  // Dimension never accessed.
    for (int l = cursor_.base_level(d); l < dim.num_levels(); ++l) {
      if (l == native) continue;  // Identity.
      CURE_ASSIGN_OR_RETURN(maps_[d][l], dim.LevelToLevelMap(native, l));
    }
  }
  return Status::OK();
}

uint32_t Executor::Key(uint32_t row, int d, int level) const {
  const uint32_t code = load_->native[d][row];
  const std::vector<uint32_t>& map = maps_[d][level];
  return map.empty() ? code : map[code];
}

Status Executor::ExecutePlan(size_t begin, size_t end, int dim) {
  const size_t count = end - begin;
  if (count < options_->min_support || count == 0) return Status::OK();
  const NodeId node = cursor_.node();
  if (count == 1 && options_->min_support <= 1) {
    // Trivial tuple: store the row-id at this (least detailed) node and
    // prune — the whole sub-tree above shares it (Sec. 5.1).
    return store_->WriteTT(node, load_->rowids[idx_[begin]]);
  }

  // Aggregate the span and pool the signature — batch kernels over the
  // index span (engine/kernels.h): per-aggregate dispatch happens once per
  // span, the accumulation is a tight loop.
  const uint32_t* span_idx = idx_.data() + begin;
  const RowId min_rowid = MinU64Gather(load_->rowids.data(), span_idx, count);
  for (int a = 0; a < y_; ++a) {
    agg_buf_[a] = AggregateGather(schema_->aggregate(a).fn, load_->aggrs[a],
                                  span_idx, count);
  }
  if (pool_->full()) {
    ++stats_->signature_flushes;
    CURE_RETURN_IF_ERROR(pool_->Flush(store_));
  }
  const uint32_t* dr = nullptr;
  if (options_->dims_in_nt) {
    const uint32_t first = idx_[begin];
    for (int d = 0; d < num_dims_; ++d) {
      dr_dims_[d] = cursor_.included(d) ? Key(first, d, cursor_.level(d)) : 0;
    }
    dr = dr_dims_.data();
  }
  pool_->Add(agg_buf_.data(), min_rowid, node, dr);

  return cursor_.ForEachChild(dim, [&](int d) {
    return FollowEdge(begin, end, d);
  });
}

Status Executor::FollowEdge(size_t begin, size_t end, int d) {
  // Per-node construction timing: each edge sorts its span and materializes
  // exactly the cursor's node (d is already set), so the nested
  // spans render the whole construction tree in Perfetto. Disabled cost is
  // one relaxed load; args are only computed when armed.
  TraceSpan span("cure.build.edge");
  if (Tracer::enabled()) {
    span.AddArg("node", static_cast<uint64_t>(cursor_.node()));
    span.AddArg("rows", static_cast<uint64_t>(end - begin));
  }
  const int level = cursor_.level(d);
  const uint32_t cardinality = schema_->dim(d).cardinality(level);
  SortSpan(
      idx_.data() + begin, end - begin, cardinality,
      [&](uint32_t row) { return Key(row, d, level); }, options_->sort_policy,
      &scratch_);
  size_t i = begin;
  while (i < end) {
    const uint32_t value = Key(idx_[i], d, level);
    size_t j = i + 1;
    while (j < end && Key(idx_[j], d, level) == value) ++j;
    CURE_RETURN_IF_ERROR(ExecutePlan(i, j, d + 1));
    i = j;
  }
  return Status::OK();
}

}  // namespace engine
}  // namespace cure
