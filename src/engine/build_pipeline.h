#ifndef CURE_ENGINE_BUILD_PIPELINE_H_
#define CURE_ENGINE_BUILD_PIPELINE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "cube/cube_store.h"
#include "cube/signature.h"
#include "engine/construct.h"
#include "engine/cube_build.h"
#include "engine/partition.h"

namespace cure {
namespace engine {

struct CureOptions;  // engine/cure.h

/// Immutable inputs shared by every stage of one cube build (and by every
/// construction worker). All pointees outlive the pipeline.
struct BuildContext {
  const schema::CubeSchema* schema = nullptr;  // effective (flattened) schema
  const CureOptions* options = nullptr;
  const FactInput* input = nullptr;
  /// True when the build takes the external (partitioned) path.
  bool external = false;
  /// Resolved construction concurrency (>= 1). 1 = the serial reference
  /// path: one store, one signature pool, partitions in order.
  int num_threads = 1;
  /// Unique per-build scratch directory for partition files.
  /// Created by the caller before Run() and removed afterwards on success
  /// and error paths alike (external builds only).
  std::string scratch_dir;
};

/// Creates a unique scratch directory under `base` (pid + sequence-number
/// suffix) for one build's temp files. Returns its path.
Result<std::string> CreateBuildScratchDir(const std::string& base);

/// Best-effort recursive removal of a build scratch directory.
void RemoveBuildScratchDir(const std::string& dir);

/// The staged CURE build (Fig. 13 restructured as an explicit pipeline):
///
///   LoadStage       -> in-memory input columns (in-memory path) or input
///                      validation (external path)
///   PartitionStage  -> histograms, level selection, the single
///                      partition-and-hash-N pass (external path)
///   ConstructStage  -> the BUC-style recursion; external builds run one
///                      task per sound partition, either inline (serial
///                      reference) or on a shared ThreadPool with private
///                      per-partition CubeStore shards and signature pools
///   MergeStage      -> stitches shards into the final store in partition
///                      order and constructs the node-N region
///   PersistStage    -> final signature flush and stats finalization
///
/// Parallel builds are byte-identical to the serial reference: partitions
/// are mutually sound (disjoint row sets, disjoint node regions per value),
/// shard relations are concatenated in partition order, A-rowids are rebased
/// at merge, and the CAT format decision is arbitrated in partition order
/// (cube::CatFormatArbiter). The serial path flushes the signature pool at
/// every partition boundary to keep CAT detection within partitions — the
/// property that makes per-partition construction independent.
///
/// The number of in-flight partitions is capped by the memory budget:
/// budget / (max_partition_rows * partition_record_size), clamped to
/// [1, num_threads].
class BuildPipeline {
 public:
  BuildPipeline(const BuildContext& ctx, cube::CubeStore* store,
                BuildStats* stats);
  ~BuildPipeline();

  BuildPipeline(const BuildPipeline&) = delete;
  BuildPipeline& operator=(const BuildPipeline&) = delete;

  /// Runs all stages. On success the target store holds the constructed
  /// cube and `stats` carries the per-stage breakdown.
  Status Run();

  // Outputs of the external path (unset for in-memory builds).
  int partition_level() const { return outcome_.level; }
  const std::shared_ptr<cube::AggTable>& n_table() const {
    return outcome_.n_table;
  }

 private:
  Status LoadStage();
  Status PartitionStage();
  Status ConstructStage();
  Status ConstructSerial();
  Status ConstructParallel();
  Status MergeStage();
  Status PersistStage();

  /// Fixes the build's record widths from the bounds the load or partition
  /// pass gathered, and resets the (still empty) target store to them.
  /// Every shard uses the same layout, so MergeShard stays a byte copy.
  void FixRecordLayout(std::vector<cube::ValueRange> measure_ranges,
                       uint64_t n_rows);

  /// Builds one sound partition into `store` with `pool`, flushing the pool
  /// at the partition boundary, and deletes the partition file. Used by the
  /// serial path (shared store/pool) and by parallel workers (private
  /// shard/pool) alike.
  Status ConstructOnePartition(size_t index, cube::CubeStore* store,
                               cube::SignaturePool* pool, BuildStats* stats);

  const BuildContext ctx_;
  cube::CubeStore* store_;
  BuildStats* stats_;

  // The record widths of the target store and every shard.
  cube::RecordLayout layout_;

  // Shared main-path signature pool (in-memory construction, serial
  // external construction, and the node-N region).
  cube::SignaturePool pool_;

  // LoadStage output (in-memory path).
  Load load_;
  bool load_ready_ = false;

  // PartitionStage output.
  PartitionOutcome outcome_;

  // ConstructStage output (parallel path): one shard per partition.
  std::vector<std::unique_ptr<cube::CubeStore>> shards_;

  // Guards aggregation of worker-local BuildStats into *stats_.
  std::mutex stats_mu_;
};

}  // namespace engine
}  // namespace cure

#endif  // CURE_ENGINE_BUILD_PIPELINE_H_
