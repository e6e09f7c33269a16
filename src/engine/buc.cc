#include "engine/buc.h"

#include <limits>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "cube/measures.h"
#include "engine/kernels.h"

namespace cure {
namespace engine {

using schema::CubeSchema;
using schema::FactTable;
using schema::NodeId;

namespace {

class BucExecutor {
 public:
  BucExecutor(const CubeSchema* schema, const FactTable* table,
              const BucOptions* options, cube::CubeStore* store)
      : schema_(schema),
        table_(table),
        options_(options),
        store_(store),
        codec_(*schema),
        num_dims_(schema->num_dims()),
        y_(schema->num_aggregates()) {
    idx_.resize(table->num_rows());
    for (size_t i = 0; i < idx_.size(); ++i) idx_[i] = static_cast<uint32_t>(i);
    included_.assign(num_dims_, false);
    agg_buf_.resize(y_);
    dims_buf_.resize(num_dims_);
    node_levels_buf_.resize(num_dims_);
    // Lift COUNT aggregates once; other aggregates read measure columns.
    for (int a = 0; a < y_; ++a) {
      if (schema->aggregate(a).fn == schema::AggFn::kCount) {
        count_ones_.assign(table->num_rows(), 1);
        break;
      }
    }
  }

  Status Run() { return Recurse(0, idx_.size(), 0); }

 private:
  const int64_t* AggColumn(int a) const {
    const schema::AggregateSpec& spec = schema_->aggregate(a);
    if (spec.fn == schema::AggFn::kCount) return count_ones_.data();
    return table_->measure_column(spec.measure_index).data();
  }

  Status Recurse(size_t begin, size_t end, int dim) {
    const size_t count = end - begin;
    if (count < options_->min_support || count == 0) return Status::OK();

    // Aggregate and write the current node's tuple (uncondensed).
    const uint32_t* span_idx = idx_.data() + begin;
    for (int a = 0; a < y_; ++a) {
      agg_buf_[a] = AggregateGather(schema_->aggregate(a).fn, AggColumn(a),
                                    span_idx, count);
    }
    const uint32_t first = idx_[begin];
    for (int d = 0; d < num_dims_; ++d) {
      dims_buf_[d] = included_[d] ? table_->dim(d, first) : 0;
      node_levels_buf_[d] = included_[d] ? 0 : codec_.all_level(d);
    }
    const NodeId node = codec_.Encode(node_levels_buf_);
    CURE_RETURN_IF_ERROR(store_->WritePlain(node, dims_buf_.data(), agg_buf_.data()));

    for (int d = dim; d < num_dims_; ++d) {
      const uint32_t cardinality = schema_->dim(d).leaf_cardinality();
      const std::vector<uint32_t>& col = table_->dim_column(d);
      included_[d] = true;
      SortSpan(
          idx_.data() + begin, count, cardinality,
          [&](uint32_t row) { return col[row]; }, options_->sort_policy,
          &scratch_);
      Status status = Status::OK();
      for (size_t i = begin; i < end && status.ok();) {
        const uint32_t value = col[idx_[i]];
        size_t j = i + 1;
        while (j < end && col[idx_[j]] == value) ++j;
        status = Recurse(i, j, d + 1);
        i = j;
      }
      included_[d] = false;
      CURE_RETURN_IF_ERROR(status);
    }
    return Status::OK();
  }

  const CubeSchema* schema_;
  const FactTable* table_;
  const BucOptions* options_;
  cube::CubeStore* store_;
  schema::NodeIdCodec codec_;
  int num_dims_;
  int y_;

  std::vector<uint32_t> idx_;
  std::vector<bool> included_;
  std::vector<int64_t> agg_buf_;
  std::vector<uint32_t> dims_buf_;
  std::vector<int> node_levels_buf_;
  std::vector<int64_t> count_ones_;
  SortScratch scratch_;
};

}  // namespace

Result<std::unique_ptr<BucCube>> BuildBuc(const CubeSchema& schema,
                                          const FactTable& table,
                                          const BucOptions& options) {
  std::unique_ptr<BucCube> cube(new BucCube());
  cube->schema_ = schema.Flattened();
  // PLAIN records take the aggregate widths CURE's width rule picks for
  // the same data, so size comparisons stay like for like.
  cube->store_ = cube::CubeStore(
      &cube->schema_, {},
      cube::ChooseRecordLayout(
          cube->schema_.aggregates(),
          cube::BoundsForTable(table, schema::NodeIdCodec(cube->schema_).num_nodes())));
  cube->stats_.input_rows = table.num_rows();

  Stopwatch watch;
  BucExecutor executor(&cube->schema_, &table, &options, &cube->store_);
  CURE_RETURN_IF_ERROR(executor.Run());
  cube->stats_.build_seconds = watch.ElapsedSeconds();
  cube->stats_.plain = cube->store_.Counts().plain;
  cube->stats_.cube_bytes = cube->store_.TotalBytes();
  cube->stats_.num_relations = cube->store_.NumRelations();
  return cube;
}

}  // namespace engine
}  // namespace cure
