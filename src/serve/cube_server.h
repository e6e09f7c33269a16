#ifndef CURE_SERVE_CUBE_SERVER_H_
#define CURE_SERVE_CUBE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "algebra/result_cache.h"
#include "algebra/semantic_cache.h"
#include "common/metrics.h"
#include "common/slowlog.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/cure.h"
#include "maintain/live_cube.h"
#include "query/node_query.h"

namespace cure {
namespace serve {

struct CubeServerOptions {
  /// Query worker threads (0 = ThreadPool::DefaultThreadCount()).
  int num_threads = 0;
  /// Admission control: maximum queries admitted (queued + running) at any
  /// moment. Submit() beyond this bound fails fast with kResourceExhausted
  /// instead of queueing unboundedly.
  int max_inflight = 128;
  /// Result-cache byte budget; 0 disables the cache.
  uint64_t cache_bytes = 0;
  /// Semantic answering: when the exact key misses, try to derive the
  /// result from a cached ancestor via the containment algebra (DESIGN.md
  /// §15). false degrades to the plain exact-key cache (--no-semantic).
  bool semantic_cache = true;
  /// Minimum engine scan estimate (rows, per EngineScanRowsEstimate) below
  /// which the semantic probe is skipped outright: when the engine answers
  /// a node nearly for free, even a failed derivation attempt costs more
  /// than the scan it tried to avoid. 0 disables the cost gate entirely —
  /// every exact miss probes, and candidates are not pruned by row count
  /// (used by tests and small cubes where derivation is always worthwhile).
  uint64_t semantic_min_scan_rows = 4096;
  /// Pinned fraction of the fact relation (Fig. 17 semantics).
  double fact_cache_fraction = 1.0;
  /// Default per-query deadline measured from Submit(); 0 = none. A query
  /// still queued when its deadline passes fails with kDeadlineExceeded
  /// without running.
  double default_deadline_seconds = 0;
  /// Slow-query log threshold: queries slower than this log a
  /// CURE_LOG(kWarning) line with the per-stage breakdown (key/cache/
  /// execute micros) and the trace id. 0 disables the log.
  double slow_query_seconds = 0;
};

/// One query against the served cube. `min_count > 1` makes it an iceberg
/// query; `count_aggregate` -1 lets the server locate the schema's COUNT
/// aggregate automatically.
struct QueryRequest {
  schema::NodeId node = 0;
  std::vector<query::CureQueryEngine::Slice> slices;
  int64_t min_count = 0;
  int count_aggregate = -1;
  /// Materialize result rows in the response even when the cache is off.
  bool retain_rows = false;
  /// Per-request deadline override (seconds from Submit); 0 = server default.
  double deadline_seconds = 0;
  /// Caller-supplied trace id (e.g. propagated by a scatter–gather router
  /// so every backend's spans share the fan-out's id); 0 mints a fresh
  /// process-unique id.
  uint64_t trace_id = 0;
  /// Request a per-stage profile in the response (`profile=1` token). The
  /// stage checkpoints are recorded unconditionally — this flag only
  /// controls whether the transport renders them back to the client.
  bool profile = false;
};

struct QueryResponse {
  Status status;
  uint64_t count = 0;
  uint64_t checksum = 0;
  /// Rows, when retained or served from cache; may be null otherwise.
  std::shared_ptr<const algebra::QueryResult> result;
  bool cache_hit = false;
  /// Answered by rolling up a cached ancestor result (implies a cache miss
  /// on the exact key; mutually exclusive with cache_hit).
  bool semantic_hit = false;
  double latency_seconds = 0;
  /// Cube snapshot version the query ran against (0 for a static cube).
  uint64_t version = 0;
  /// Process-unique id correlating this query across trace spans, the
  /// slow-query log and the protocol response header (`trace=<id>`).
  uint64_t trace_id = 0;
  /// Per-stage breakdown in microseconds (always filled; the protocol layer
  /// renders them only when the request carried `profile=1`). queue_wait_us
  /// is filled by Submit's worker — Execute() leaves it 0.
  int64_t queue_wait_us = 0;
  int64_t key_us = 0;      ///< request canonicalization + cache-key build
  int64_t cache_us = 0;    ///< exact-key lookup + semantic derive attempt
  int64_t execute_us = 0;  ///< engine scan/aggregate (0 on a cache hit)
};

/// Long-lived concurrent serving layer over a CURE cube: per-snapshot
/// CureQueryEngines, a FIFO ThreadPool of query workers, a sharded LRU
/// result cache, bounded admission, per-query deadlines, and a metrics
/// registry. Concurrent queries produce (count, checksum) identical to
/// serial execution — each query runs against one immutable snapshot (see
/// DESIGN.md §9).
///
/// Two modes:
///  * static — Create(cube): one immutable cube for the server's lifetime;
///  * live — Create(live): snapshots come from a maintain::LiveCube, rows
///    arrive through Append/Flush, and background refreshes (scheduled on
///    this server's worker pool) swap in new versions with zero downtime. A
///    query in flight keeps serving its snapshot across a swap; the result
///    cache is invalidated by epoch (version-stamped keys), never purged.
class CubeServer {
 public:
  /// `cube` must outlive the server and must not be mutated while serving.
  static Result<std::unique_ptr<CubeServer>> Create(
      const engine::CureCube* cube, const CubeServerOptions& options);

  /// Live mode: serves `live`'s current snapshot and refreshes through it.
  /// `live` must outlive the server.
  static Result<std::unique_ptr<CubeServer>> Create(
      maintain::LiveCube* live, const CubeServerOptions& options);

  /// Drains queued queries, then joins the workers.
  ~CubeServer();

  CubeServer(const CubeServer&) = delete;
  CubeServer& operator=(const CubeServer&) = delete;

  /// Admission-controlled asynchronous dispatch. The future is always
  /// fulfilled: with the query result, a kResourceExhausted rejection, or a
  /// kDeadlineExceeded expiry.
  std::future<QueryResponse> Submit(QueryRequest request);

  /// Synchronous execution on the calling thread (bypasses the worker pool,
  /// admission control and deadlines; still cached and counted).
  QueryResponse Execute(const QueryRequest& request);

  /// Durable row ingest (live mode only; kFailedPrecondition otherwise).
  Status Append(const maintain::RowBatch& batch);
  /// Synchronous refresh of everything appended so far (live mode only).
  Result<maintain::RefreshStats> Flush();
  /// Staleness view of the served snapshot (live mode only).
  Result<maintain::Freshness> GetFreshness() const;

  /// Metrics text dump plus cache gauges — the line protocol's STATS body.
  /// Live mode adds the maintenance section: cube version, last-refresh
  /// wall time, pending-WAL rows, staleness gauge, refresh/replay
  /// histograms.
  std::string StatsText() const;

  /// Prometheus text exposition — the line protocol's METRICS body. Server
  /// series carry the `cure_serve_` prefix (query latency, cache, thread
  /// pool, refresh); the process-global storage series (buffer cache, I/O
  /// bytes, fsyncs, sort spills) are appended from GlobalMetrics().
  std::string PrometheusText() const;

  MetricsRegistry* metrics() { return &metrics_; }
  /// Flight recorder of the last N over-threshold query profiles (the
  /// SLOWLOG verb's body; populated when slow_query_seconds > 0).
  SlowQueryLog* slowlog() { return &slowlog_; }
  /// The exact-key layer of the result cache.
  algebra::QueryCache* cache() { return cache_.exact(); }
  /// The full semantic cache (containment index + roll-up derivation).
  algebra::SemanticCache* semantic_cache() { return &cache_; }
  maintain::LiveCube* live() { return live_; }
  const schema::CubeSchema& schema() const {
    return live_ != nullptr ? live_->schema() : cube_->schema();
  }
  const schema::NodeIdCodec& codec() const {
    return live_ != nullptr ? live_->codec() : cube_->store().codec();
  }
  const CubeServerOptions& options() const { return options_; }
  /// Index of the schema's COUNT aggregate, -1 when absent.
  int count_aggregate() const { return count_aggregate_; }
  int64_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  /// Test hook: runs at the start of every pooled query task, before the
  /// deadline check (lets tests hold workers to fill the admission queue).
  void set_worker_hook(std::function<void()> hook) {
    worker_hook_ = std::move(hook);
  }

 private:
  CubeServer(const engine::CureCube* cube, maintain::LiveCube* live,
             const CubeServerOptions& options,
             std::shared_ptr<const maintain::CubeSnapshot> static_snapshot);

  /// The snapshot queries run against right now. Live mode reads the
  /// LiveCube's active version; static mode returns the fixed one.
  std::shared_ptr<const maintain::CubeSnapshot> Snapshot() const {
    return live_ != nullptr ? live_->snapshot() : static_snapshot_;
  }

  /// Canonicalizes the request into a cache key stamped with the snapshot
  /// epoch; fails on an iceberg request when the schema has no COUNT
  /// aggregate.
  Result<algebra::QueryKey> MakeKey(const QueryRequest& request,
                                    uint64_t epoch) const;
  QueryResponse ExecuteInternal(const QueryRequest& request);

  /// Samples point-in-time state (cache, thread pool, buffer cache, live
  /// freshness) into registry gauges so StatsText and PrometheusText render
  /// from one source instead of ad-hoc string assembly.
  void UpdateDerivedMetrics() const;

  const engine::CureCube* cube_;  ///< static mode only (null in live mode)
  maintain::LiveCube* live_;      ///< live mode only (null in static mode)
  CubeServerOptions options_;
  std::shared_ptr<const maintain::CubeSnapshot> static_snapshot_;
  int count_aggregate_ = -1;
  // Depends on schema(): declared after cube_/live_ so the constructor's
  // member-init order hands it a live schema pointer.
  algebra::SemanticCache cache_;
  // mutable: StatsText()/PrometheusText() are logically const but sample
  // point-in-time gauges into the registry right before rendering.
  mutable MetricsRegistry metrics_;
  SlowQueryLog slowlog_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<int64_t> in_flight_{0};
  std::function<void()> worker_hook_;

  /// Classifies a failed query into the storage-fault counters
  /// (io_errors_total / data_loss_total) in addition to queries_errors.
  void CountErrorClass(const Status& status);

  // Hot-path metric handles (owned by metrics_).
  Counter* queries_total_;
  Counter* queries_errors_;
  Counter* rejected_total_;
  Counter* deadline_exceeded_total_;
  Counter* io_errors_total_;
  Counter* data_loss_total_;
  Counter* slow_queries_total_;
  LogHistogram* latency_us_;
  LogHistogram* queue_wait_us_;
};

}  // namespace serve
}  // namespace cure

#endif  // CURE_SERVE_CUBE_SERVER_H_
