#ifndef CURE_CUBE_SOURCE_H_
#define CURE_CUBE_SOURCE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/status.h"
#include "cube/measures.h"
#include "cube/rowid.h"
#include "schema/cube_schema.h"
#include "schema/fact_table.h"
#include "storage/buffer_cache.h"
#include "storage/relation.h"

namespace cure {
namespace cube {

/// Native level marker for a dimension a source does not carry (projected
/// out, i.e. at ALL).
inline constexpr int kNativeAll = -1;

/// Read access to a relation that cube tuples reference by row-id: the
/// original fact table R (source tag kSourceFact) or the partition-pass node
/// N (kSourceNodeN). Rows are exposed uniformly as D dimension codes at the
/// source's *native* hierarchy levels plus Y lifted aggregate values, so
/// every consumer (query answering, TT projection, CURE_DR) aggregates with
/// plain combines.
class SourceAccessor {
 public:
  virtual ~SourceAccessor() = default;

  virtual uint64_t num_rows() const = 0;

  /// Hierarchy level of the codes this source stores for dimension d
  /// (0 = leaf), or kNativeAll when the dimension is projected out.
  virtual int native_level(int d) const = 0;

  /// Reads row `ordinal`: D native dimension codes and Y lifted aggregates.
  virtual Status GetRow(uint64_t ordinal, uint32_t* dims, int64_t* aggrs) const = 0;

  /// Reads rows `ordinals[0..n)` (any order): row i's D codes to
  /// `dims + i * D`, its Y aggregates to `aggrs + i * Y`. In-memory sources
  /// call GetRow per row; file-backed ones gather from one span instead.
  virtual Status GetRows(const uint64_t* ordinals, size_t n, uint32_t* dims,
                         int64_t* aggrs) const = 0;

  /// True when rows may come from a file, i.e. batching reads pays.
  virtual bool reads_files() const { return false; }
};

/// Accessor over an in-memory FactTable (native level 0 everywhere).
class FactTableSource : public SourceAccessor {
 public:
  FactTableSource(const schema::FactTable* table, const schema::CubeSchema* schema)
      : table_(table), aggregator_(*schema) {}

  uint64_t num_rows() const override { return table_->num_rows(); }
  int native_level(int) const override { return 0; }
  Status GetRow(uint64_t ordinal, uint32_t* dims, int64_t* aggrs) const override;
  Status GetRows(const uint64_t* ordinals, size_t n, uint32_t* dims,
                 int64_t* aggrs) const override;

 private:
  const schema::FactTable* table_;
  Aggregator aggregator_;
};

/// Accessor over a (typically file-backed) binary fact relation with record
/// layout [D x u32 dims][M x i64 raw measures], read through a pinned-prefix
/// BufferCache. This is the query-time path whose caching behaviour Fig. 17
/// studies.
class FactRelationSource : public SourceAccessor {
 public:
  /// `cached_fraction` of the relation's rows are pinned in memory.
  static Result<std::unique_ptr<FactRelationSource>> Create(
      const storage::Relation* relation, const schema::CubeSchema* schema,
      double cached_fraction);

  uint64_t num_rows() const override { return relation_->num_rows(); }
  int native_level(int) const override { return 0; }
  Status GetRow(uint64_t ordinal, uint32_t* dims, int64_t* aggrs) const override;
  /// Decodes each row in place, pinned rows from the cache's pinned prefix
  /// and the rest from the relation's span (BufferCache::ForEachRecord).
  Status GetRows(const uint64_t* ordinals, size_t n, uint32_t* dims,
                 int64_t* aggrs) const override;
  bool reads_files() const override { return !relation_->memory_backed(); }

  const storage::BufferCache& cache() const { return cache_; }

 private:
  FactRelationSource(const storage::Relation* relation,
                     const schema::CubeSchema* schema)
      : relation_(relation),
        aggregator_(*schema),
        num_dims_(schema->num_dims()),
        num_raw_(schema->num_raw_measures()) {}

  /// Decodes one fact record into native codes and lifted aggregates.
  void Decode(const uint8_t* rec, uint32_t* dims, int64_t* aggrs) const;

  const storage::Relation* relation_;
  Aggregator aggregator_;
  int num_dims_;
  int num_raw_;
  storage::BufferCache cache_;
};

/// An aggregated table: dimension codes at fixed native levels plus already
/// lifted aggregate columns. The partition-pass node N (Sec. 4) is stored as
/// an AggTable; it doubles as a cube node and as a row-id source.
struct AggTable {
  std::vector<int> native_levels;              // per dimension; kNativeAll allowed
  std::vector<std::vector<uint32_t>> dims;     // D columns
  std::vector<std::vector<int64_t>> aggrs;     // Y columns
  uint64_t num_rows = 0;

  /// Logical binary footprint (4 bytes per stored dim code, 8 per aggregate).
  uint64_t bytes() const {
    uint64_t per_row = 0;
    for (int nl : native_levels) {
      if (nl != kNativeAll) per_row += 4;
    }
    per_row += 8ull * aggrs.size();
    return per_row * num_rows;
  }
};

/// Accessor over an AggTable.
class AggTableSource : public SourceAccessor {
 public:
  explicit AggTableSource(const AggTable* table) : table_(table) {}

  uint64_t num_rows() const override { return table_->num_rows; }
  int native_level(int d) const override { return table_->native_levels[d]; }
  Status GetRow(uint64_t ordinal, uint32_t* dims, int64_t* aggrs) const override;
  Status GetRows(const uint64_t* ordinals, size_t n, uint32_t* dims,
                 int64_t* aggrs) const override;

 private:
  const AggTable* table_;
};

/// Most grouping dimensions a Projection carries (the query engine's limit).
inline constexpr int kMaxProjectedDims = 64;

/// One source's native codes projected onto one node's grouping levels, with
/// the level map of every grouping dimension resolved up front (nullptr when
/// the source already stores that level).
class Projection {
 public:
  /// Writes one code per grouping dimension, in dimension order.
  void Apply(const uint32_t* native, uint32_t* out) const {
    for (int o = 0; o < num_out_; ++o) {
      const uint32_t code = native[dim_[o]];
      out[o] = map_[o] == nullptr ? code : map_[o][code];
    }
  }

 private:
  friend class SourceSet;
  int num_out_ = 0;
  int dim_[kMaxProjectedDims];
  const uint32_t* map_[kMaxProjectedDims];
};

/// The set of row-id sources of a cube, indexed by source tag, plus every
/// level-to-level code map that projects a source's native codes onto a
/// node's grouping levels.
///
/// Thread-safety: Register() builds every level map derivable from the
/// source's native levels, and nothing mutates the set afterwards, so once
/// registration is done GetRow/GetRows/ResolveProjection are safe to call
/// from many threads at once (the serving layer relies on this).
class SourceSet {
 public:
  explicit SourceSet(const schema::CubeSchema* schema) : schema_(schema) {}

  /// Registers an accessor and builds its projection maps. Not thread-safe;
  /// call before sharing the set across query workers.
  void Register(uint32_t source_tag, std::shared_ptr<SourceAccessor> accessor);
  const SourceAccessor* Get(uint32_t source_tag) const;
  const schema::CubeSchema& schema() const { return *schema_; }
  /// True when some registered source reads from a file.
  bool reads_files() const;

  /// Dereferences a namespaced row-id into native dims + lifted aggregates.
  Status GetRow(RowId rowid, uint32_t* dims, int64_t* aggrs) const;

  /// GetRow for `rowids[0..n)` (any order, sources may mix): row i's D
  /// native codes to `dims + i * D`, its Y aggregates to `aggrs + i * Y`.
  /// Each source reads its rows with one SourceAccessor::GetRows.
  Status GetRows(const RowId* rowids, size_t n, uint32_t* dims,
                 int64_t* aggrs) const;

  /// Resolves the projection of `source_tag`'s native codes onto
  /// `node_levels` (ALL levels skipped). Internal when some grouping level
  /// is not derivable from the source's native level.
  Status ResolveProjection(uint32_t source_tag,
                           const std::vector<int>& node_levels,
                           Projection* out) const;

 private:
  const schema::CubeSchema* schema_;
  std::vector<std::shared_ptr<SourceAccessor>> accessors_;
  /// (dim, from_level, to_level) -> code map; complete after Register().
  std::map<std::tuple<int, int, int>, std::vector<uint32_t>> level_maps_;
};

}  // namespace cube
}  // namespace cure

#endif  // CURE_CUBE_SOURCE_H_
