#ifndef CURE_ALGEBRA_SEMANTIC_CACHE_H_
#define CURE_ALGEBRA_SEMANTIC_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "algebra/query_desc.h"
#include "algebra/result_cache.h"
#include "schema/cube_schema.h"
#include "schema/lattice.h"

namespace cure {
namespace algebra {

/// Semantic result cache: an exact-key sharded LRU plus a per-node secondary
/// index that lets a query be answered from a cached *ancestor* result (a
/// more detailed relation over the same snapshot) via the containment
/// algebra and query::RollUp. The lookup ladder the serving layer runs is
///
///   exact key  ->  DeriveFromCache (containment + roll-up)  ->  engine
///
/// The secondary index maps NodeId -> keys of cached results grouped at
/// that node. It is maintained lazily: evicted or stale-epoch keys are
/// pruned when a candidate probe fails, never eagerly, so the index adds no
/// work to the LRU's hot path. Derived results are re-inserted under the
/// request's own key, so a drill-down session pays the roll-up once and
/// exact-hits afterwards.
class SemanticCache {
 public:
  /// `schema` must outlive the cache. `capacity_bytes` == 0 disables both
  /// layers; `semantic_enabled` == false degrades to the plain exact-key
  /// cache (the serving layer's --no-semantic escape hatch).
  SemanticCache(const schema::CubeSchema* schema, uint64_t capacity_bytes,
                int num_shards = 8, bool semantic_enabled = true);

  bool enabled() const { return cache_.enabled(); }
  bool semantic_enabled() const { return semantic_enabled_ && enabled(); }

  /// The underlying exact-key cache (stats, direct probes in tests).
  QueryCache* exact() { return &cache_; }
  const QueryCache* exact() const { return &cache_; }

  /// Exact-key lookup; identical to QueryCache::Lookup.
  std::shared_ptr<const QueryResult> Lookup(const QueryKey& key) {
    return cache_.Lookup(key);
  }

  /// Inserts into the exact-key cache and indexes the key under its node.
  void Insert(const QueryKey& key, std::shared_ptr<const QueryResult> result);

  /// A successful semantic derivation: the request's result, computed from
  /// the cached rows of `source_node` by scanning `scanned_rows` of them.
  struct Derivation {
    std::shared_ptr<const QueryResult> result;
    schema::NodeId source_node = 0;
    uint64_t scanned_rows = 0;
  };

  /// Attempts to answer `key` from a cached result it is contained in.
  /// Candidates are tried cheapest-first (the request's own node, then
  /// ascending grouping-dim count — coarser cached relations have fewer
  /// rows to scan). On success the derived result is inserted under `key`.
  /// Returns nullopt on a semantic miss (also when semantic answering is
  /// disabled).
  ///
  /// `max_source_rows` is the caller's cost gate: a candidate whose cached
  /// result has more rows than this is not worth re-aggregating because the
  /// engine can answer the request cheaper (the serving layer passes its
  /// per-node scan estimate). 0 = no gate. Identical-containment candidates
  /// (pure reuse, nothing scanned) always qualify.
  std::optional<Derivation> DeriveFromCache(const QueryKey& key,
                                            uint64_t max_source_rows = 0);

  struct Stats {
    uint64_t semantic_hits = 0;    ///< queries answered by derivation
    uint64_t semantic_misses = 0;  ///< derivation attempted, no candidate fit
    uint64_t rollup_rows = 0;      ///< cached rows scanned by derivations
    uint64_t derived_rows = 0;     ///< result rows produced by derivations
    uint64_t index_nodes = 0;      ///< nodes with at least one indexed key
    uint64_t index_keys = 0;       ///< total indexed keys
  };
  Stats stats() const;

 private:
  /// Removes `key` from its node's index bucket (entry was evicted).
  void Unindex(const QueryKey& key);

  const schema::CubeSchema* schema_;
  schema::Lattice lattice_;
  QueryCache cache_;
  const bool semantic_enabled_;

  /// Index entries carry the cached result's row count so the cost gate
  /// prunes oversized candidates during the index scan, before any LRU
  /// probe — a failed semantic attempt must stay cheap on the query path.
  struct IndexedKey {
    QueryKey key;
    uint64_t rows = 0;
  };

  mutable std::mutex index_mu_;
  std::unordered_map<schema::NodeId, std::vector<IndexedKey>> index_;

  std::atomic<uint64_t> semantic_hits_{0};
  std::atomic<uint64_t> semantic_misses_{0};
  std::atomic<uint64_t> rollup_rows_{0};
  std::atomic<uint64_t> derived_rows_{0};
};

}  // namespace algebra
}  // namespace cure

#endif  // CURE_ALGEBRA_SEMANTIC_CACHE_H_
