#ifndef CURE_ENGINE_CURE_H_
#define CURE_ENGINE_CURE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "cube/cube_store.h"
#include "cube/source.h"
#include "engine/cube_build.h"
#include "engine/sorters.h"
#include "plan/execution_plan.h"
#include "schema/cube_schema.h"

namespace cure {
namespace engine {

/// Options of the CURE algorithm (Fig. 13 of the paper) and its variants.
struct CureOptions {
  /// Bounded signature pool capacity (paper default: 10^6 signatures).
  size_t signature_pool_capacity = 1 << 20;

  /// Memory budget that decides in-memory vs external construction and
  /// sizes partitions. It does not bound node N: the partition level is
  /// chosen by the paper's Observation-2 estimate of |N|, which is low when
  /// the other dimensions nearly key the rows, and an N that outgrows the
  /// budget is only logged (bench_fig25_apb_qrt: 4,985,088 B of N against a
  /// 4,026,531 B budget).
  uint64_t memory_budget_bytes = 256ull << 20;

  /// CURE_DR: materialize dimension values in NTs (space for query speed).
  bool dims_in_nt = false;

  /// FCURE: build a flat cube (leaf levels only) over hierarchical data.
  bool flat = false;

  /// Iceberg threshold: groups of fewer source tuples are not materialized
  /// (HAVING count(*) >= min_support). 1 = complete cube.
  uint64_t min_support = 1;

  /// P3 (kTall, the paper's plan) or P2 (kShort) traversal; kShort exists
  /// for the plan ablation and does not support the external path.
  plan::Style plan_style = plan::Style::kTall;

  /// Segment sort policy (counting sort matters under skew).
  SortPolicy sort_policy = SortPolicy::kAuto;

  /// Base directory for build scratch files. Every build creates (and
  /// removes, on success and error alike) its own unique subdirectory here,
  /// so concurrent builds sharing a temp_dir never collide.
  std::string temp_dir = "/tmp";

  /// Construction threads for the external path's per-partition stage.
  /// 0 = auto (the CURE_THREADS environment variable if set, otherwise
  /// hardware concurrency); 1 = the serial reference path. Any setting
  /// produces byte-identical cubes.
  int num_threads = 0;

  /// Force the external path even when the input fits in memory (tests).
  bool force_external = false;

  /// Test hook for the CAT storage format.
  cube::CatFormat forced_cat_format = cube::CatFormat::kUndecided;

  /// Arms the process-global span tracer (common/trace.h) for this build
  /// when it is not already enabled: per-stage, per-partition and per-node
  /// spans become recordable, exportable via Tracer::WriteChromeTrace().
  /// Equivalent to the CURE_TRACE environment toggle; leaves the tracer
  /// enabled afterwards so the caller can export.
  bool trace = false;
};

struct UpdateStats;  // engine/incremental.h

/// A constructed CURE cube: the condensed store, the effective schema (the
/// flattened one for FCURE), the partition-pass node N (external builds),
/// and everything needed to dereference row-ids at query time.
/// Heap-pinned: the store and sources point into this object.
class CureCube {
 public:
  /// Reopens a cube persisted by SpillStoreToDisk / PersistPacked: `schema`
  /// is copied, the packed store is opened read-only, and row-ids resolve
  /// through `fact_relation` (binary fact form, sealed; must outlive the
  /// cube). Only in-memory-built cubes (no node N) can be reopened this way.
  static Result<std::unique_ptr<CureCube>> OpenPersisted(
      const schema::CubeSchema& schema, const std::string& packed_path,
      const storage::Relation* fact_relation);

  const schema::CubeSchema& schema() const { return schema_; }
  const cube::CubeStore& store() const { return store_; }
  cube::CubeStore& mutable_store() { return store_; }
  const BuildStats& stats() const { return stats_; }
  int partition_level() const { return partition_level_; }
  plan::Style plan_style() const { return plan_style_; }
  const std::shared_ptr<cube::AggTable>& n_table() const { return n_table_; }

  /// Builds the row-id source set for this cube: the fact table (through a
  /// pinned-prefix cache holding `fact_cache_fraction` of it when the cube
  /// was built from a file relation) and node N when present.
  Result<cube::SourceSet> MakeSources(double fact_cache_fraction) const;

  /// Region of a node in a partitioned build: nodes whose first-dimension
  /// level is <= partition_level were built from the sound partitions
  /// (row-ids reference R); the rest were built from node N. In-memory
  /// builds have a single region. TT collection must not cross regions.
  int NodeRegion(schema::NodeId id) const;

  /// Total cube size, including node N (it is both a cube node and a row-id
  /// source, so its bytes are part of the materialized cube).
  uint64_t TotalBytes() const {
    return store_.TotalBytes() + (n_table_ != nullptr ? n_table_->bytes() : 0);
  }

  /// Writes the cube store into a packed file at `path` and reopens it from
  /// disk in place: subsequent queries read node relations via pread instead
  /// of memory. Gives benchmarks the paper's disk-resident cube behaviour.
  Status SpillStoreToDisk(const std::string& path);

  /// The fact table the cube was built from (null for relation-built cubes).
  const schema::FactTable* fact_table() const { return fact_table_; }
  /// True once the store has been spilled to a packed file.
  bool spilled() const { return spilled_; }

 private:
  friend Result<std::unique_ptr<CureCube>> BuildCure(const schema::CubeSchema&,
                                                     const FactInput&,
                                                     const CureOptions&);
  friend Status CurePostProcess(CureCube* cube, bool use_bitmaps);
  friend Result<UpdateStats> ApplyDelta(CureCube* cube,
                                        const schema::FactTable& table,
                                        uint64_t old_rows);

  CureCube() : store_(nullptr, {}) {}

  schema::CubeSchema schema_;
  cube::CubeStore store_;
  std::shared_ptr<cube::AggTable> n_table_;
  const schema::FactTable* fact_table_ = nullptr;
  const storage::Relation* fact_relation_ = nullptr;
  int partition_level_ = -1;
  plan::Style plan_style_ = plan::Style::kTall;
  bool spilled_ = false;
  BuildStats stats_;
};

/// Runs Algorithm CURE (Fig. 13): in-memory when the input fits the budget,
/// otherwise partition + per-partition construction + node-N construction.
Result<std::unique_ptr<CureCube>> BuildCure(const schema::CubeSchema& schema,
                                            const FactInput& input,
                                            const CureOptions& options);

/// The CURE+ post-processing step (Sec. 5.3): sorts TT row-id lists (and CAT
/// format-(a) lists) and replaces them with bitmap indexes where smaller.
/// Updates the cube's stats (postprocess_seconds, sizes).
Status CurePostProcess(CureCube* cube, bool use_bitmaps = true);

}  // namespace engine
}  // namespace cure

#endif  // CURE_ENGINE_CURE_H_
