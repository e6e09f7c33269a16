#ifndef CURE_ENGINE_PARTITION_H_
#define CURE_ENGINE_PARTITION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "cube/measures.h"
#include "cube/record_layout.h"
#include "cube/source.h"
#include "schema/cube_schema.h"
#include "storage/relation.h"

namespace cure {
namespace engine {

/// Options of the external partitioning pass (Sec. 4 of the paper).
struct PartitionOptions {
  /// Memory available for loading a partition (and for node N).
  uint64_t memory_budget_bytes = 256ull << 20;
  std::string temp_dir = "/tmp";
  /// Safety factor applied to the estimated in-memory footprint of N
  /// (hash-table overhead).
  double n_overhead_factor = 2.0;
};

/// Outcome of SelectPartitionLevel: the maximum level L of the first
/// dimension such that (a) every value of A_L fits a memory-sized sound
/// partition and (b) the node N = A_{L+1} B_0 C_0 ... is estimated to fit in
/// memory (observations 1-2 of the paper).
struct LevelChoice {
  int level = -1;
  uint64_t max_value_rows = 0;  ///< rows of the most frequent A_L value
  uint64_t est_n_rows = 0;
  uint64_t num_partitions = 0;  ///< after first-fit packing of values
};

/// Result of the single partitioning pass: sound partitions on A_L (packed
/// file relations of records [D x u32 dims][Y x i64 lifted][u64 rowid]) plus
/// the node N built in memory by hashing during the same scan — the paper's
/// "2 reads, 1 write" property (one histogram read + one partition read;
/// partitions are then each read once more by the construction phase).
struct PartitionOutcome {
  int level = -1;
  std::vector<storage::Relation> partitions;
  std::shared_ptr<cube::AggTable> n_table;
  uint64_t write_bytes = 0;
  uint64_t max_partition_rows = 0;
};

/// Record width of a partition file for a given schema.
size_t PartitionRecordSize(const schema::CubeSchema& schema);

/// Chooses L from exact per-level value histograms of the first dimension.
/// `level_histograms[l][code]` = number of fact rows with A_l = code.
/// Fails when no level satisfies both constraints (the paper's rare case
/// that requires partitioning on dimension pairs, which is out of scope).
Result<LevelChoice> SelectPartitionLevel(
    const schema::CubeSchema& schema,
    const std::vector<std::vector<uint64_t>>& level_histograms,
    uint64_t num_rows, const PartitionOptions& options);

/// Computes the per-level histograms of dimension 0 with one sequential
/// block scan of the fact relation, filling the histograms from a gathered
/// leaf-code slice per block. When `measure_ranges` is set, the same scan
/// also records the value range of every raw measure (the record-width
/// bounds of the external build).
Result<std::vector<std::vector<uint64_t>>> ComputeLevelHistograms(
    const storage::Relation& fact, const schema::CubeSchema& schema,
    std::vector<cube::ValueRange>* measure_ranges = nullptr);

/// Runs the partitioning pass: scans `fact` once, routes each row to its
/// sound partition file, and simultaneously hash-builds node N.
/// Requires dimension 0 to have a linear hierarchy (the paper's setting).
Result<PartitionOutcome> PartitionFact(const storage::Relation& fact,
                                       const schema::CubeSchema& schema,
                                       const LevelChoice& choice,
                                       const std::vector<std::vector<uint64_t>>&
                                           level_histograms,
                                       const PartitionOptions& options);

}  // namespace engine
}  // namespace cure

#endif  // CURE_ENGINE_PARTITION_H_
