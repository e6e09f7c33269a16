#include "query/fold.h"

#include <algorithm>
#include <utility>

namespace cure {
namespace query {

void GroupFold::Add(const std::vector<uint32_t>& dims, const int64_t* aggrs) {
  if (num_dims_ < 0) num_dims_ = static_cast<int>(dims.size());
  Add(dims.data(), aggrs);
}

void GroupFold::Add(const uint32_t* dims, const int64_t* aggrs) {
  dims_.insert(dims_.end(), dims, dims + std::max(num_dims_, 0));
  aggrs_.insert(aggrs_.end(), aggrs, aggrs + num_aggrs_);
  ++records_;
  folded_ = false;
}

void GroupFold::Fold() {
  if (folded_) return;
  const size_t nd = num_dims_ > 0 ? static_cast<size_t>(num_dims_) : 0;
  const uint32_t* keys = dims_.data();
  // Sort (leading two codes packed into one integer, record) pairs: one
  // integer compare orders most records; only keys wider than two codes
  // that tie on the first two compare the rest.
  struct Entry {
    uint64_t lead;
    uint32_t record;
  };
  std::vector<Entry> order(records_);
  for (size_t r = 0; r < records_; ++r) {
    const uint32_t* key = keys + r * nd;
    uint64_t lead = nd > 0 ? static_cast<uint64_t>(key[0]) << 32 : 0;
    if (nd > 1) lead |= key[1];
    order[r] = Entry{lead, static_cast<uint32_t>(r)};
  }
  const auto less = [keys, nd](const Entry& a, const Entry& b) {
    if (a.lead != b.lead) return a.lead < b.lead;
    if (nd <= 2) return false;
    const uint32_t* ka = keys + a.record * nd;
    const uint32_t* kb = keys + b.record * nd;
    return std::lexicographical_compare(ka + 2, ka + nd, kb + 2, kb + nd);
  };
  std::sort(order.begin(), order.end(), less);
  std::vector<uint32_t> dims;
  std::vector<int64_t> aggrs;
  dims.reserve(dims_.size());
  aggrs.reserve(aggrs_.size());
  size_t groups = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    const int64_t* value = aggrs_.data() + order[i].record * num_aggrs_;
    if (i > 0 && !less(order[i - 1], order[i])) {  // same key: sorted
      aggregator_.Combine(aggrs.data() + (groups - 1) * num_aggrs_, value);
      continue;
    }
    const uint32_t* key = keys + order[i].record * nd;
    dims.insert(dims.end(), key, key + nd);
    aggrs.insert(aggrs.end(), value, value + num_aggrs_);
    ++groups;
  }
  dims_.swap(dims);
  aggrs_.swap(aggrs);
  records_ = groups;
  folded_ = true;
}

Status GroupFold::Finish(int count_aggregate, int64_t min_count,
                         ResultSink* sink) {
  const int nd = std::max(num_dims_, 0);
  const int na = num_aggregates();
  return ForEachGroup(count_aggregate, min_count,
                      [&](const uint32_t* dims, const int64_t* aggrs) {
                        sink->Emit(dims, nd, aggrs, na);
                      });
}

std::optional<LevelColumn> MapLevelColumn(const schema::CubeSchema& schema,
                                          const std::vector<int>& levels,
                                          int dim, int level) {
  if (dim < 0 || dim >= schema.num_dims()) return std::nullopt;
  const schema::Dimension& dimension = schema.dim(dim);
  if (levels[dim] == dimension.all_level() ||
      !dimension.Derives(levels[dim], level)) {
    return std::nullopt;
  }
  LevelColumn column;
  for (int d = 0; d < dim; ++d) {
    if (levels[d] != schema.dim(d).all_level()) ++column.col;
  }
  if (levels[dim] != level) {
    Result<std::vector<uint32_t>> map =
        dimension.LevelToLevelMap(levels[dim], level);
    if (!map.ok()) return std::nullopt;
    column.map = std::move(map).value();
  }
  return column;
}

Status RollUp(const schema::CubeSchema& schema, schema::NodeId from,
              const std::vector<ResultSink::Row>& rows, schema::NodeId to,
              const std::vector<CureQueryEngine::Slice>& slices,
              int count_aggregate, int64_t min_count, ResultSink* sink) {
  const schema::NodeIdCodec codec(schema);
  const std::vector<int> from_levels = codec.Decode(from);
  const std::vector<int> to_levels = codec.Decode(to);

  // The source column and level map of every grouped dimension of `to`.
  size_t from_dims = 0;
  std::vector<LevelColumn> projections;
  for (int d = 0; d < schema.num_dims(); ++d) {
    if (from_levels[d] != codec.all_level(d)) ++from_dims;
    if (to_levels[d] == codec.all_level(d)) continue;
    std::optional<LevelColumn> column =
        MapLevelColumn(schema, from_levels, d, to_levels[d]);
    if (!column) {
      return Status::Internal(
          "roll-up containment violated: source node does not derive "
          "dimension " +
          schema.dim(d).name() + " of the target node");
    }
    projections.push_back(std::move(*column));
  }
  // Slice filters, evaluated against the source rows' levels.
  std::vector<SliceFilter> filters;
  for (const CureQueryEngine::Slice& slice : slices) {
    std::optional<LevelColumn> column =
        MapLevelColumn(schema, from_levels, slice.dim, slice.level);
    if (!column) {
      return Status::Internal(
          "roll-up containment violated: slice on a dimension the source "
          "node does not group finely enough");
    }
    filters.push_back({std::move(*column), slice.code});
  }
  if (min_count > 1 &&
      (count_aggregate < 0 || count_aggregate >= schema.num_aggregates() ||
       schema.aggregate(count_aggregate).fn != schema::AggFn::kCount)) {
    return Status::FailedPrecondition(
        "iceberg roll-up requires a COUNT aggregate index");
  }

  const size_t num_aggrs = static_cast<size_t>(schema.num_aggregates());
  GroupFold fold(schema, static_cast<int>(projections.size()));
  std::vector<uint32_t> key(projections.size());
  for (const ResultSink::Row& row : rows) {
    if (row.dims.size() != from_dims || row.aggrs.size() != num_aggrs) {
      return Status::Internal("source row shape does not match its node");
    }
    bool pass = true;
    for (const SliceFilter& f : filters) pass &= f.Passes(row.dims.data());
    if (!pass) continue;
    for (size_t i = 0; i < projections.size(); ++i) {
      if (!projections[i].Code(row.dims.data(), &key[i])) {
        return Status::Internal("source dim code out of level-map range");
      }
    }
    fold.Add(key.data(), row.aggrs.data());
  }
  return fold.Finish(count_aggregate, min_count, sink);
}

}  // namespace query
}  // namespace cure
