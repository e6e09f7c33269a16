#include "engine/bubst.h"

#include <cstring>
#include <limits>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "engine/kernels.h"

namespace cure {
namespace engine {

using schema::CubeSchema;
using schema::FactTable;
using schema::NodeId;

namespace {

class BubstExecutor {
 public:
  BubstExecutor(const CubeSchema* schema, const FactTable* table,
                const BubstOptions* options, const cube::RecordLayout* layout,
                size_t tag_width, storage::Relation* out, BuildStats* stats)
      : schema_(schema),
        table_(table),
        options_(options),
        layout_(layout),
        tag_width_(tag_width),
        out_(out),
        stats_(stats),
        codec_(*schema),
        num_dims_(schema->num_dims()),
        y_(schema->num_aggregates()),
        record_(BubstRecord::Size(num_dims_, *layout, tag_width)) {
    idx_.resize(table->num_rows());
    for (size_t i = 0; i < idx_.size(); ++i) idx_[i] = static_cast<uint32_t>(i);
    included_.assign(num_dims_, false);
    node_levels_buf_.resize(num_dims_);
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

  NodeId CurrentNode() {
    for (int d = 0; d < num_dims_; ++d) {
      node_levels_buf_[d] = included_[d] ? 0 : codec_.all_level(d);
    }
    return codec_.Encode(node_levels_buf_);
  }

  Status WriteRow(uint32_t exemplar_row, bool bst, const int64_t* aggrs) {
    uint8_t* p = record_.data();
    for (int d = 0; d < num_dims_; ++d) {
      // BSTs keep all leaf codes (they stand for tuples of every ancestor
      // node); normal rows mark absent dimensions with the ALL code.
      const uint32_t code = (bst || included_[d]) ? table_->dim(d, exemplar_row)
                                                  : BubstRecord::kAllCode;
      std::memcpy(p, &code, 4);
      p += 4;
    }
    layout_->PutAggregates(p, aggrs);
    p += layout_->aggregates_bytes();
    BubstRecord::PutTag(p, CurrentNode() | (bst ? BubstRecord::kBstFlag : 0),
                        tag_width_);
    if (bst) {
      ++stats_->tt;
    } else {
      ++stats_->plain;
    }
    return out_->Append(record_.data());
  }

  Status Recurse(size_t begin, size_t end, int dim) {
    const size_t count = end - begin;
    if (count < options_->min_support || count == 0) return Status::OK();
    if (count == 1 && options_->min_support <= 1) {
      // BST: store once at the least detailed node it belongs to; prune.
      const uint32_t row = idx_[begin];
      int64_t aggrs[16];
      CURE_CHECK_LE(y_, 16);
      for (int a = 0; a < y_; ++a) aggrs[a] = AggColumn(a)[row];
      return WriteRow(row, /*bst=*/true, aggrs);
    }

    int64_t aggrs[16];
    CURE_CHECK_LE(y_, 16);
    const uint32_t* span_idx = idx_.data() + begin;
    for (int a = 0; a < y_; ++a) {
      aggrs[a] = AggregateGather(schema_->aggregate(a).fn, AggColumn(a),
                                 span_idx, count);
    }
    CURE_RETURN_IF_ERROR(WriteRow(idx_[begin], /*bst=*/false, aggrs));

    for (int d = dim; d < num_dims_; ++d) {
      // Per-node timing, mirroring construct.cc: this edge sorts the span
      // on dimension d and materializes the node with d newly included.
      TraceSpan span("cure.baseline.edge");
      if (Tracer::enabled()) {
        span.AddArg("dim", static_cast<uint64_t>(d));
        span.AddArg("rows", static_cast<uint64_t>(count));
      }
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
  const BubstOptions* options_;
  const cube::RecordLayout* layout_;
  size_t tag_width_;
  storage::Relation* out_;
  BuildStats* stats_;
  schema::NodeIdCodec codec_;
  int num_dims_;
  int y_;
  std::vector<uint8_t> record_;
  std::vector<uint32_t> idx_;
  std::vector<bool> included_;
  std::vector<int> node_levels_buf_;
  std::vector<int64_t> count_ones_;
  SortScratch scratch_;
};

}  // namespace

Result<std::unique_ptr<BubstCube>> BuildBubst(const CubeSchema& schema,
                                              const FactTable& table,
                                              const BubstOptions& options) {
  std::unique_ptr<BubstCube> cube(new BubstCube());
  cube->schema_ = schema.Flattened();
  const uint64_t num_nodes = schema::NodeIdCodec(cube->schema_).num_nodes();
  cube->layout_ = cube::ChooseRecordLayout(
      cube->schema_.aggregates(), cube::BoundsForTable(table, num_nodes));
  cube->tag_width_ = BubstRecord::TagWidth(num_nodes);
  cube->monolithic_ = storage::Relation::Memory(BubstRecord::Size(
      cube->schema_.num_dims(), cube->layout_, cube->tag_width_));
  cube->stats_.input_rows = table.num_rows();

  Stopwatch watch;
  CURE_TRACE_SPAN("cure.baseline.bubst_build", "rows", table.num_rows());
  BubstExecutor executor(&cube->schema_, &table, &options, &cube->layout_,
                         cube->tag_width_, &cube->monolithic_, &cube->stats_);
  CURE_RETURN_IF_ERROR(executor.Run());
  cube->stats_.build_seconds = watch.ElapsedSeconds();
  cube->stats_.cube_bytes = cube->TotalBytes();
  cube->stats_.num_relations = 1;
  return cube;
}

}  // namespace engine
}  // namespace cure
