#include "algebra/semantic_cache.h"

#include <algorithm>
#include <utility>

#include "query/fold.h"

namespace cure {
namespace algebra {

namespace {

/// Bound on indexed keys per node; beyond it the oldest indexed key is
/// dropped from the index (the LRU entry itself stays until evicted — it is
/// simply no longer a semantic candidate).
constexpr size_t kMaxKeysPerNode = 128;

/// Bound on candidates a single derivation attempt classifies and probes.
/// Candidates are sorted cheapest-first, so the cap trims the expensive
/// tail; without it a semantic *miss* pays a Classify per indexed key,
/// which can cost more than the engine query it failed to avoid.
constexpr size_t kMaxCandidateProbes = 32;

}  // namespace

SemanticCache::SemanticCache(const schema::CubeSchema* schema,
                             uint64_t capacity_bytes, int num_shards,
                             bool semantic_enabled)
    : schema_(schema),
      lattice_(schema),
      cache_(capacity_bytes, num_shards),
      semantic_enabled_(semantic_enabled) {}

void SemanticCache::Insert(const QueryKey& key,
                           std::shared_ptr<const QueryResult> result) {
  const uint64_t rows = result != nullptr ? result->rows.size() : 0;
  cache_.Insert(key, std::move(result));
  if (!semantic_enabled()) return;
  std::lock_guard<std::mutex> lock(index_mu_);
  std::vector<IndexedKey>& keys = index_[key.node];
  // Stale epochs can never be candidates again (epochs only advance), so
  // insertion doubles as the bucket's garbage collection.
  keys.erase(std::remove_if(keys.begin(), keys.end(),
                            [&](const IndexedKey& k) {
                              return k.key.epoch < key.epoch || k.key == key;
                            }),
             keys.end());
  if (keys.size() >= kMaxKeysPerNode) keys.erase(keys.begin());
  keys.push_back(IndexedKey{key, rows});
}

void SemanticCache::Unindex(const QueryKey& key) {
  std::lock_guard<std::mutex> lock(index_mu_);
  auto it = index_.find(key.node);
  if (it == index_.end()) return;
  std::vector<IndexedKey>& keys = it->second;
  keys.erase(std::remove_if(keys.begin(), keys.end(),
                            [&](const IndexedKey& k) { return k.key == key; }),
             keys.end());
  if (keys.empty()) index_.erase(it);
}

std::optional<SemanticCache::Derivation> SemanticCache::DeriveFromCache(
    const QueryKey& key, uint64_t max_source_rows) {
  if (!semantic_enabled()) return std::nullopt;

  // Candidate keys of the same epoch whose node can compute the request's,
  // cheapest first: the request's own node (pure selection / re-threshold,
  // no re-aggregation), then ascending grouping-dim count. The cost gate
  // prunes ancestor candidates right here, off the indexed row counts —
  // a failed semantic attempt must not pay LRU probes for sources the
  // engine would beat anyway. Same-node candidates always pass: they may
  // classify as identical (pure reuse, nothing scanned).
  struct Candidate {
    QueryKey key;
    int cost = 0;
  };
  std::vector<Candidate> candidates;
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    const auto prune_stale = [&](std::vector<IndexedKey>& keys) {
      keys.erase(std::remove_if(keys.begin(), keys.end(),
                                [&](const IndexedKey& k) {
                                  return k.key.epoch < key.epoch;
                                }),
                 keys.end());
    };
    if (max_source_rows == 1) {
      // Fast path for requests the engine answers nearly for free: only an
      // identical (same key modulo threshold) or one-row same-node source
      // can qualify, and identical containment requires node equality — so
      // probe one bucket instead of scanning the whole index.
      auto it = index_.find(key.node);
      if (it != index_.end()) {
        prune_stale(it->second);
        if (it->second.empty()) {
          index_.erase(it);
        } else {
          for (const IndexedKey& k : it->second) {
            if (k.key.epoch == key.epoch) candidates.push_back({k.key, -1});
          }
        }
      }
    } else {
      for (auto it = index_.begin(); it != index_.end();) {
        std::vector<IndexedKey>& keys = it->second;
        prune_stale(keys);
        if (keys.empty()) {
          it = index_.erase(it);
          continue;
        }
        const bool same_node = it->first == key.node;
        if (same_node || lattice_.IsAncestorOf(it->first, key.node)) {
          const int cost = same_node ? -1 : lattice_.NumGroupingDims(it->first);
          for (const IndexedKey& k : keys) {
            if (k.key.epoch != key.epoch) continue;
            if (!same_node && max_source_rows > 0 && k.rows > max_source_rows) {
              continue;
            }
            candidates.push_back({k.key, cost});
          }
        }
        ++it;
      }
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.cost < b.cost;
                   });
  if (candidates.size() > kMaxCandidateProbes) {
    candidates.resize(kMaxCandidateProbes);
  }

  for (const Candidate& candidate : candidates) {
    const Containment containment =
        Classify(*schema_, lattice_, candidate.key, key);
    if (containment == Containment::kNo) continue;
    // count_stats=false: a semantic probe must not skew the exact-key
    // hit/miss statistics.
    std::shared_ptr<const QueryResult> cached =
        cache_.Lookup(candidate.key, /*count_stats=*/false);
    if (cached == nullptr) {
      Unindex(candidate.key);  // evicted underneath the index
      continue;
    }
    if (containment == Containment::kIdentical) {
      semantic_hits_.fetch_add(1, std::memory_order_relaxed);
      return Derivation{std::move(cached), candidate.key.node, 0};
    }
    // Cost gate: scanning more cached rows than the engine would touch
    // directly makes derivation a pessimization, not a cache hit.
    if (max_source_rows > 0 && cached->rows.size() > max_source_rows) {
      continue;
    }
    query::ResultSink sink(/*retain=*/true);
    const Status status = query::RollUp(
        *schema_, candidate.key.node, cached->rows, key.node, key.slices,
        key.count_aggregate, key.min_count, &sink);
    if (!status.ok()) continue;  // defensive: containment said yes
    auto derived = std::make_shared<QueryResult>();
    derived->count = sink.count();
    derived->checksum = sink.checksum();
    derived->rows = sink.TakeRows();
    semantic_hits_.fetch_add(1, std::memory_order_relaxed);
    rollup_rows_.fetch_add(cached->rows.size(), std::memory_order_relaxed);
    derived_rows_.fetch_add(derived->count, std::memory_order_relaxed);
    Derivation derivation{derived, candidate.key.node, cached->rows.size()};
    // Future repeats of this query exact-hit instead of re-deriving.
    Insert(key, std::move(derived));
    return derivation;
  }

  semantic_misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

SemanticCache::Stats SemanticCache::stats() const {
  Stats stats;
  stats.semantic_hits = semantic_hits_.load(std::memory_order_relaxed);
  stats.semantic_misses = semantic_misses_.load(std::memory_order_relaxed);
  stats.rollup_rows = rollup_rows_.load(std::memory_order_relaxed);
  stats.derived_rows = derived_rows_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(index_mu_);
  stats.index_nodes = index_.size();
  for (const auto& [node, keys] : index_) stats.index_keys += keys.size();
  return stats;
}

}  // namespace algebra
}  // namespace cure
