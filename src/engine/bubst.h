#ifndef CURE_ENGINE_BUBST_H_
#define CURE_ENGINE_BUBST_H_

#include <memory>

#include "common/status.h"
#include "engine/cube_build.h"
#include "engine/sorters.h"
#include "schema/cube_schema.h"
#include "schema/fact_table.h"
#include "schema/node_id.h"
#include "storage/relation.h"

namespace cure {
namespace engine {

/// Options for the BU-BST baseline [Wang et al., ICDE'02].
struct BubstOptions {
  uint64_t min_support = 1;
  SortPolicy sort_policy = SortPolicy::kAuto;
  /// Batch scan path: same contract as CureOptions::batch_rows (1 =
  /// scalar reference path, 0 = the default).
  size_t batch_rows = 0;
};

/// Monolithic record of the condensed cube: all D leaf/grouping codes (ALL
/// marker for absent dimensions of non-BST rows), Y aggregates, and a
/// node-id word whose top bit flags a BST (base single tuple).
struct BubstRecord {
  static constexpr uint32_t kAllCode = 0xFFFFFFFFu;
  static constexpr uint64_t kBstFlag = uint64_t{1} << 63;

  static size_t Size(int num_dims, int num_aggregates) {
    return 4ull * num_dims + 8ull * num_aggregates + 8;
  }
};

/// A cube built by BU-BST: BSTs are detected (our TTs) and stored once, but
/// everything lives in one monolithic D-wide relation — the storage scheme
/// whose query cost the paper's Fig. 16 exposes (every query scans the whole
/// cube).
class BubstCube {
 public:
  const schema::CubeSchema& schema() const { return schema_; }
  const storage::Relation& monolithic() const { return monolithic_; }
  const BuildStats& stats() const { return stats_; }
  uint64_t TotalBytes() const { return monolithic_.bytes(); }

  /// Persists the monolithic relation to disk and reopens it in place, so
  /// every query's full scan really reads storage.
  Status SpillToDisk(const std::string& path) {
    CURE_ASSIGN_OR_RETURN(storage::Relation file, storage::Relation::CreateFile(
                                                      path, monolithic_.record_size()));
    storage::Relation::Scanner scan(monolithic_);
    while (const uint8_t* rec = scan.Next()) {
      CURE_RETURN_IF_ERROR(file.Append(rec));
    }
    CURE_RETURN_IF_ERROR(scan.status());
    CURE_RETURN_IF_ERROR(file.Seal());
    monolithic_ = std::move(file);
    return Status::OK();
  }

 private:
  friend Result<std::unique_ptr<BubstCube>> BuildBubst(const schema::CubeSchema&,
                                                       const schema::FactTable&,
                                                       const BubstOptions&);
  BubstCube() = default;

  schema::CubeSchema schema_;
  storage::Relation monolithic_;
  BuildStats stats_;
};

/// Runs BU-BST over the leaf levels of `schema` (flat cubes only, like BUC).
Result<std::unique_ptr<BubstCube>> BuildBubst(const schema::CubeSchema& schema,
                                              const schema::FactTable& table,
                                              const BubstOptions& options);

}  // namespace engine
}  // namespace cure

#endif  // CURE_ENGINE_BUBST_H_
