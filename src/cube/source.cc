#include "cube/source.h"

#include <algorithm>
#include <cstring>
#include <tuple>

#include "common/logging.h"

namespace cure {
namespace cube {

namespace {

// GetRows as one GetRow per row: the in-memory accessors' batch read.
Status GetRowsOneByOne(const SourceAccessor& src, const uint64_t* ordinals,
                       size_t n, uint32_t* dims, size_t num_dims,
                       int64_t* aggrs, size_t num_aggrs) {
  for (size_t i = 0; i < n; ++i) {
    CURE_RETURN_IF_ERROR(src.GetRow(ordinals[i], dims + i * num_dims,
                                    aggrs + i * num_aggrs));
  }
  return Status::OK();
}

}  // namespace

Status FactTableSource::GetRow(uint64_t ordinal, uint32_t* dims,
                               int64_t* aggrs) const {
  if (ordinal >= table_->num_rows()) {
    return Status::OutOfRange("fact row out of range");
  }
  for (int d = 0; d < table_->num_dims(); ++d) dims[d] = table_->dim(d, ordinal);
  // Lift through a small stack buffer; measure counts are tiny.
  int64_t raw[16];
  CURE_CHECK_LE(table_->num_measures(), 16);
  for (int m = 0; m < table_->num_measures(); ++m) raw[m] = table_->measure(m, ordinal);
  aggregator_.Lift(raw, aggrs);
  return Status::OK();
}

Status FactTableSource::GetRows(const uint64_t* ordinals, size_t n,
                                uint32_t* dims, int64_t* aggrs) const {
  return GetRowsOneByOne(*this, ordinals, n, dims, table_->num_dims(), aggrs,
                         aggregator_.num_aggregates());
}

Result<std::unique_ptr<FactRelationSource>> FactRelationSource::Create(
    const storage::Relation* relation, const schema::CubeSchema* schema,
    double cached_fraction) {
  const size_t expected = 4ull * schema->num_dims() + 8ull * schema->num_raw_measures();
  if (relation->record_size() != expected) {
    return Status::InvalidArgument("fact relation record size mismatch");
  }
  std::unique_ptr<FactRelationSource> src(new FactRelationSource(relation, schema));
  CURE_RETURN_IF_ERROR(src->cache_.Init(relation, cached_fraction));
  return src;
}

void FactRelationSource::Decode(const uint8_t* rec, uint32_t* dims,
                                int64_t* aggrs) const {
  std::memcpy(dims, rec, 4ull * num_dims_);
  int64_t raw[16];
  CURE_CHECK_LE(num_raw_, 16);
  std::memcpy(raw, rec + 4ull * num_dims_, 8ull * num_raw_);
  aggregator_.Lift(raw, aggrs);
}

Status FactRelationSource::GetRow(uint64_t ordinal, uint32_t* dims,
                                  int64_t* aggrs) const {
  uint8_t rec[256];
  CURE_CHECK_LE(relation_->record_size(), sizeof(rec));
  const uint8_t* p = cache_.TryRaw(ordinal);
  if (p == nullptr) {
    CURE_RETURN_IF_ERROR(cache_.Read(ordinal, rec));
    p = rec;
  }
  Decode(p, dims, aggrs);
  return Status::OK();
}

Status FactRelationSource::GetRows(const uint64_t* ordinals, size_t n,
                                   uint32_t* dims, int64_t* aggrs) const {
  const int y = aggregator_.num_aggregates();
  return cache_.ForEachRecord(ordinals, n, [&](size_t i, const uint8_t* rec) {
    Decode(rec, dims + i * num_dims_, aggrs + i * y);
  });
}

Status AggTableSource::GetRow(uint64_t ordinal, uint32_t* dims,
                              int64_t* aggrs) const {
  if (ordinal >= table_->num_rows) return Status::OutOfRange("agg row out of range");
  for (size_t d = 0; d < table_->dims.size(); ++d) {
    dims[d] = table_->native_levels[d] == kNativeAll ? 0 : table_->dims[d][ordinal];
  }
  for (size_t y = 0; y < table_->aggrs.size(); ++y) {
    aggrs[y] = table_->aggrs[y][ordinal];
  }
  return Status::OK();
}

Status AggTableSource::GetRows(const uint64_t* ordinals, size_t n,
                               uint32_t* dims, int64_t* aggrs) const {
  return GetRowsOneByOne(*this, ordinals, n, dims, table_->dims.size(), aggrs,
                         table_->aggrs.size());
}

void SourceSet::Register(uint32_t source_tag,
                         std::shared_ptr<SourceAccessor> accessor) {
  CURE_CHECK_LT(source_tag, kNumSourceTags);
  if (accessors_.size() <= source_tag) accessors_.resize(source_tag + 1);
  accessors_[source_tag] = std::move(accessor);
  // Build every level map reachable from this source's native levels. The
  // maps are small (one uint32 per code at the native level), and nothing
  // adds to level_maps_ after registration — which is what lets concurrent
  // query workers share one SourceSet without locking.
  const SourceAccessor* src = accessors_[source_tag].get();
  for (int d = 0; d < schema_->num_dims(); ++d) {
    const int from = src->native_level(d);
    if (from == kNativeAll) continue;
    for (int target = 0; target < schema_->dim(d).num_levels(); ++target) {
      if (target == from || !schema_->dim(d).Derives(from, target)) continue;
      const auto key = std::make_tuple(d, from, target);
      if (level_maps_.find(key) != level_maps_.end()) continue;
      Result<std::vector<uint32_t>> map =
          schema_->dim(d).LevelToLevelMap(from, target);
      if (map.ok()) level_maps_.emplace(key, std::move(map).value());
    }
  }
}

const SourceAccessor* SourceSet::Get(uint32_t source_tag) const {
  if (source_tag >= accessors_.size()) return nullptr;
  return accessors_[source_tag].get();
}

bool SourceSet::reads_files() const {
  return std::any_of(accessors_.begin(), accessors_.end(),
                     [](const std::shared_ptr<SourceAccessor>& src) {
                       return src != nullptr && src->reads_files();
                     });
}

Status SourceSet::GetRow(RowId rowid, uint32_t* dims, int64_t* aggrs) const {
  const SourceAccessor* src = Get(RowIdSource(rowid));
  if (src == nullptr) {
    return Status::NotFound("no source registered for tag " +
                            std::to_string(RowIdSource(rowid)));
  }
  return src->GetRow(RowIdOrdinal(rowid), dims, aggrs);
}

Status SourceSet::GetRows(const RowId* rowids, size_t n, uint32_t* dims,
                          int64_t* aggrs) const {
  static_assert(kSourceFact == 0, "fact row-ids must be their own ordinals");
  const auto is_fact = [](RowId id) { return RowIdSource(id) == kSourceFact; };
  if (std::all_of(rowids, rowids + n, is_fact)) {
    // The common single-source case reads straight through.
    if (n == 0) return Status::OK();
    const SourceAccessor* src = Get(kSourceFact);
    if (src == nullptr) return Status::NotFound("no source registered for tag 0");
    return src->GetRows(rowids, n, dims, aggrs);
  }
  for (size_t i = 0; i < n; ++i) {
    if (Get(RowIdSource(rowids[i])) == nullptr) {
      return Status::NotFound("no source registered for tag " +
                              std::to_string(RowIdSource(rowids[i])));
    }
  }
  // Mixed sources (an external build's NTs reference R and node N): one
  // batch read per source, scattered back into the caller's order.
  const size_t num_dims = schema_->num_dims();
  const size_t num_aggrs = schema_->num_aggregates();
  std::vector<uint64_t> ordinals;
  std::vector<size_t> at;
  std::vector<uint32_t> part_dims;
  std::vector<int64_t> part_aggrs;
  for (uint32_t tag = 0; tag < accessors_.size(); ++tag) {
    ordinals.clear();
    at.clear();
    for (size_t i = 0; i < n; ++i) {
      if (RowIdSource(rowids[i]) != tag) continue;
      ordinals.push_back(RowIdOrdinal(rowids[i]));
      at.push_back(i);
    }
    if (at.empty()) continue;
    part_dims.resize(at.size() * num_dims);
    part_aggrs.resize(at.size() * num_aggrs);
    CURE_RETURN_IF_ERROR(accessors_[tag]->GetRows(
        ordinals.data(), at.size(), part_dims.data(), part_aggrs.data()));
    for (size_t k = 0; k < at.size(); ++k) {
      std::copy_n(part_dims.data() + k * num_dims, num_dims,
                  dims + at[k] * num_dims);
      std::copy_n(part_aggrs.data() + k * num_aggrs, num_aggrs,
                  aggrs + at[k] * num_aggrs);
    }
  }
  return Status::OK();
}

Status SourceSet::ResolveProjection(uint32_t source_tag,
                                    const std::vector<int>& node_levels,
                                    Projection* out) const {
  const SourceAccessor* src = Get(source_tag);
  if (src == nullptr) {
    return Status::NotFound("no source registered for tag " +
                            std::to_string(source_tag));
  }
  int o = 0;
  for (int d = 0; d < schema_->num_dims(); ++d) {
    const int target = node_levels[d];
    if (target == schema_->dim(d).num_levels()) continue;  // ALL: skipped.
    if (o == kMaxProjectedDims) {
      return Status::InvalidArgument("node groups too many dimensions");
    }
    const int from = src->native_level(d);
    if (from == kNativeAll) {
      return Status::Internal("node requires dimension the source projected out");
    }
    const uint32_t* map = nullptr;
    if (from != target) {
      auto it = level_maps_.find(std::make_tuple(d, from, target));
      if (it == level_maps_.end()) {
        return Status::Internal(
            "no level map from level " + std::to_string(from) + " to " +
            std::to_string(target) + " of dimension '" +
            schema_->dim(d).name() + "'");
      }
      map = it->second.data();
    }
    out->dim_[o] = d;
    out->map_[o] = map;
    ++o;
  }
  out->num_out_ = o;
  return Status::OK();
}

}  // namespace cube
}  // namespace cure
