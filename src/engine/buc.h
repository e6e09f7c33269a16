#ifndef CURE_ENGINE_BUC_H_
#define CURE_ENGINE_BUC_H_

#include <memory>

#include "common/status.h"
#include "cube/cube_store.h"
#include "engine/cube_build.h"
#include "engine/sorters.h"
#include "schema/cube_schema.h"
#include "schema/fact_table.h"

namespace cure {
namespace engine {

/// Options for the BUC baseline [Beyer & Ramakrishnan, SIGMOD'99].
struct BucOptions {
  /// Iceberg threshold (BUC's native capability); 1 = complete cube.
  uint64_t min_support = 1;
  SortPolicy sort_policy = SortPolicy::kAuto;
};

/// A cube built by BUC: per-node uncondensed relations of
/// (grouping codes..., aggregates...). BUC identifies no redundancy and
/// supports only flat cubes — the paper's point of comparison.
class BucCube {
 public:
  const schema::CubeSchema& schema() const { return schema_; }
  const cube::CubeStore& store() const { return store_; }
  const BuildStats& stats() const { return stats_; }

  /// Persists the cube to a packed file and reopens it from disk in place.
  Status SpillStoreToDisk(const std::string& path) {
    CURE_RETURN_IF_ERROR(store_.PersistPacked(path));
    CURE_ASSIGN_OR_RETURN(store_, cube::CubeStore::OpenPacked(path, &schema_));
    return Status::OK();
  }

 private:
  friend Result<std::unique_ptr<BucCube>> BuildBuc(const schema::CubeSchema&,
                                                   const schema::FactTable&,
                                                   const BucOptions&);
  BucCube() : store_(nullptr, {}) {}

  schema::CubeSchema schema_;
  cube::CubeStore store_;
  BuildStats stats_;
};

/// Runs BUC over the leaf levels of `schema` (hierarchies are ignored; the
/// schema is flattened). Bottom-up, depth-first, shared sorting — the P1
/// plan of Fig. 2.
Result<std::unique_ptr<BucCube>> BuildBuc(const schema::CubeSchema& schema,
                                          const schema::FactTable& table,
                                          const BucOptions& options);

}  // namespace engine
}  // namespace cure

#endif  // CURE_ENGINE_BUC_H_
