#include "serve/cube_server.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "cube/source.h"

namespace cure {
namespace serve {

namespace {

/// Rows the engine would touch to answer `node` from the cube directly —
/// the cost gate for semantic derivation. Row-id-bearing relations (TT, and
/// NT without dims_in_nt) count double: each row is a fact-table
/// dereference on top of the scan. A node with no storage estimates 0, so
/// derivation is skipped and the (trivially cheap) engine answers.
uint64_t EngineScanRowsEstimate(const engine::CureCube& cube,
                                schema::NodeId node) {
  const cube::CubeStore::NodeData* data = cube.store().node(node);
  if (data == nullptr) return 0;
  const bool nt_derefs = !cube.store().options().dims_in_nt;
  uint64_t rows = 0;
  if (data->has_nt) rows += data->nt.num_rows() * (nt_derefs ? 2 : 1);
  if (data->has_tt) rows += data->tt.num_rows() * 2;
  if (data->tt_bitmap != nullptr) rows += data->tt_bitmap->Count() * 2;
  if (data->has_cat) rows += data->cat.num_rows();
  if (data->has_plain) rows += data->plain.num_rows();
  return rows;
}

/// A derived row costs several engine rows: the roll-up re-aggregates
/// through a hash table while the engine streams a materialized relation.
/// The gate passed to DeriveFromCache scales the estimate down accordingly,
/// so derivation only replaces engine scans it genuinely undercuts.
constexpr uint64_t kDerivationRowCostFactor = 4;

/// Result-cache lock shards: independent mutex + LRU each.
constexpr int kCacheShards = 8;

}  // namespace

CubeServer::CubeServer(
    const engine::CureCube* cube, maintain::LiveCube* live,
    const CubeServerOptions& options,
    std::shared_ptr<const maintain::CubeSnapshot> static_snapshot)
    : cube_(cube),
      live_(live),
      options_(options),
      static_snapshot_(std::move(static_snapshot)),
      cache_(&this->schema(), options.cache_bytes, kCacheShards,
             options.semantic_cache),
      pool_(std::make_unique<ThreadPool>(options.num_threads)) {
  const schema::CubeSchema& schema = this->schema();
  for (int y = 0; y < schema.num_aggregates(); ++y) {
    if (schema.aggregate(y).fn == schema::AggFn::kCount) {
      count_aggregate_ = y;
      break;
    }
  }
  queries_total_ = metrics_.counter("queries_total");
  queries_errors_ = metrics_.counter("queries_errors");
  rejected_total_ = metrics_.counter("rejected_total");
  deadline_exceeded_total_ = metrics_.counter("deadline_exceeded_total");
  io_errors_total_ = metrics_.counter("io_errors_total");
  data_loss_total_ = metrics_.counter("data_loss_total");
  slow_queries_total_ = metrics_.counter("slow_queries_total");
  latency_us_ = metrics_.histogram("query_latency");
  queue_wait_us_ = metrics_.histogram("queue_wait");
  // Background refreshes share the query worker pool (the refresh job never
  // blocks on in-flight queries — it skips and retries — so queries queued
  // behind it are delayed by at most one delta application, not deadlocked).
  if (live_ != nullptr) live_->set_refresh_pool(pool_.get());
}

CubeServer::~CubeServer() {
  pool_->Shutdown();
  if (live_ != nullptr) live_->set_refresh_pool(nullptr);
}

Result<std::unique_ptr<CubeServer>> CubeServer::Create(
    const engine::CureCube* cube, const CubeServerOptions& options) {
  if (options.max_inflight < 1) {
    return Status::InvalidArgument("max_inflight must be >= 1");
  }
  // The static cube is wrapped into a fixed snapshot (version 0) so both
  // modes share one execution path.
  auto snapshot = std::make_shared<maintain::CubeSnapshot>();
  snapshot->version = 0;
  snapshot->rows = cube->stats().input_rows;
  snapshot->cube = cube;
  CURE_ASSIGN_OR_RETURN(
      snapshot->engine,
      query::CureQueryEngine::Create(cube, options.fact_cache_fraction));
  return std::unique_ptr<CubeServer>(
      new CubeServer(cube, nullptr, options, std::move(snapshot)));
}

Result<std::unique_ptr<CubeServer>> CubeServer::Create(
    maintain::LiveCube* live, const CubeServerOptions& options) {
  if (options.max_inflight < 1) {
    return Status::InvalidArgument("max_inflight must be >= 1");
  }
  return std::unique_ptr<CubeServer>(
      new CubeServer(nullptr, live, options, nullptr));
}

Status CubeServer::Append(const maintain::RowBatch& batch) {
  if (live_ == nullptr) {
    return Status::FailedPrecondition(
        "APPEND requires a live cube (the server was started over a static "
        "cube)");
  }
  return live_->Append(batch);
}

Result<maintain::RefreshStats> CubeServer::Flush() {
  if (live_ == nullptr) {
    return Status::FailedPrecondition(
        "FLUSH requires a live cube (the server was started over a static "
        "cube)");
  }
  return live_->Flush();
}

Result<maintain::Freshness> CubeServer::GetFreshness() const {
  if (live_ == nullptr) {
    return Status::FailedPrecondition("the server is serving a static cube");
  }
  return live_->freshness();
}

Result<algebra::QueryKey> CubeServer::MakeKey(const QueryRequest& request,
                                              uint64_t epoch) const {
  algebra::QueryKey key;
  key.node = request.node;
  key.slices = request.slices;
  key.min_count = request.min_count;
  key.count_aggregate = request.count_aggregate;
  key.epoch = epoch;
  if (key.min_count > 1 && key.count_aggregate < 0) {
    if (count_aggregate_ < 0) {
      return Status::InvalidArgument(
          "iceberg query requires a COUNT aggregate in the schema");
    }
    key.count_aggregate = count_aggregate_;
  }
  key.Canonicalize();
  return key;
}

QueryResponse CubeServer::ExecuteInternal(const QueryRequest& request) {
  QueryResponse response;
  Stopwatch watch;
  response.trace_id = request.trace_id != 0 ? request.trace_id
                                            : Tracer::Instance().NextTraceId();
  TraceSpan query_span("cure.serve.query", "trace_id", response.trace_id,
                       "node", static_cast<uint64_t>(request.node));
  queries_total_->Inc();

  // Per-stage checkpoints (micros since `watch`): cheap enough to keep
  // unconditionally, reported by the slow-query log and the trace.
  int64_t key_done_us = 0;
  int64_t cache_done_us = 0;
  int64_t execute_done_us = 0;
  const auto finish = [&](bool record_latency) {
    const int64_t total_us = watch.ElapsedMicros();
    response.latency_seconds = static_cast<double>(total_us) * 1e-6;
    response.key_us = key_done_us;
    response.cache_us = std::max<int64_t>(cache_done_us - key_done_us, 0);
    response.execute_us =
        std::max<int64_t>(execute_done_us - cache_done_us, 0);
    if (record_latency) latency_us_->Record(total_us);
    if (options_.slow_query_seconds > 0 &&
        response.latency_seconds > options_.slow_query_seconds) {
      slow_queries_total_->Inc();
      const char* cache_token = response.cache_hit        ? "HIT"
                                : response.semantic_hit   ? "SEMANTIC"
                                                          : "MISS";
      CURE_LOG(kWarning) << "slow query trace=" << response.trace_id
                         << " node=" << request.node
                         << " version=" << response.version
                         << " status=" << response.status.ToString()
                         << " total_us=" << total_us
                         << " key_us=" << key_done_us
                         << " cache_us=" << (cache_done_us - key_done_us)
                         << " execute_us=" << (execute_done_us - cache_done_us)
                         << " rows=" << response.count << " cache="
                         << cache_token;
      // Same breakdown into the flight recorder, one line per query, in the
      // profile section's key=value grammar so SLOWLOG output is machine-
      // parseable with the same scanner.
      slowlog_.Record(
          "trace=" + std::to_string(response.trace_id) +
          " node=" + std::to_string(request.node) +
          " status=" + std::string(StatusCodeName(response.status.code())) +
          " total_us=" + std::to_string(total_us) +
          " key_us=" + std::to_string(key_done_us) +
          " cache_us=" + std::to_string(cache_done_us - key_done_us) +
          " execute_us=" + std::to_string(execute_done_us - cache_done_us) +
          " rows=" + std::to_string(response.count) + " cache=" + cache_token);
    }
  };

  // Pin the snapshot for the whole execution: a refresh swapping versions
  // mid-query cannot mutate or free anything this query reads.
  const std::shared_ptr<const maintain::CubeSnapshot> snapshot = Snapshot();
  response.version = snapshot->version;

  Result<algebra::QueryKey> key = MakeKey(request, snapshot->version);
  key_done_us = watch.ElapsedMicros();
  if (!key.ok()) {
    queries_errors_->Inc();
    CountErrorClass(key.status());
    response.status = key.status();
    finish(/*record_latency=*/false);
    return response;
  }

  if (cache_.enabled()) {
    CURE_TRACE_SPAN("cure.serve.cache_lookup");
    if (std::shared_ptr<const algebra::QueryResult> cached =
            cache_.Lookup(*key)) {
      response.cache_hit = true;
      response.count = cached->count;
      response.checksum = cached->checksum;
      response.result = std::move(cached);
      cache_done_us = watch.ElapsedMicros();
      execute_done_us = cache_done_us;
      finish(/*record_latency=*/true);
      return response;
    }
  }

  // Exact key missed: try to derive the answer from a cached ancestor
  // result (containment + roll-up, DESIGN.md §15) before paying for a cube
  // scan. The derivation's checksum is bit-identical to the engine path's.
  if (cache_.semantic_enabled()) {
    CURE_TRACE_SPAN("cure.serve.semantic_lookup", "trace_id",
                    response.trace_id);
    // Two-level cost gate. Below semantic_min_scan_rows the probe itself is
    // the pessimization, so it is skipped entirely; above it, candidates
    // whose cached rows exceed the scaled estimate are pruned inside
    // DeriveFromCache (0 would mean "ungated"; the floor of 1 still admits
    // identical-containment reuse).
    uint64_t scan_budget = 0;
    bool probe = true;
    if (snapshot->cube != nullptr && options_.semantic_min_scan_rows > 0) {
      const uint64_t estimate =
          EngineScanRowsEstimate(*snapshot->cube, request.node);
      probe = estimate >= options_.semantic_min_scan_rows;
      scan_budget =
          std::max<uint64_t>(estimate / kDerivationRowCostFactor, 1);
    }
    std::optional<algebra::SemanticCache::Derivation> derived;
    if (probe) derived = cache_.DeriveFromCache(*key, scan_budget);
    if (derived) {
      response.semantic_hit = true;
      response.count = derived->result->count;
      response.checksum = derived->result->checksum;
      response.result = std::move(derived->result);
      cache_done_us = watch.ElapsedMicros();
      execute_done_us = cache_done_us;
      finish(/*record_latency=*/true);
      return response;
    }
  }
  cache_done_us = watch.ElapsedMicros();

  // Rows are materialized when the caller wants them or the cache will
  // store them; checksum-only requests with the cache off stay lean.
  const bool retain = request.retain_rows || cache_.enabled();
  query::ResultSink sink(retain);
  {
    CURE_TRACE_SPAN("cure.serve.execute", "trace_id", response.trace_id);
    response.status = snapshot->engine->QueryNodeSlicedIceberg(
        key->node, key->slices, key->count_aggregate, key->min_count, &sink);
  }
  execute_done_us = watch.ElapsedMicros();
  if (!response.status.ok()) {
    queries_errors_->Inc();
    CountErrorClass(response.status);
    finish(/*record_latency=*/false);
    return response;
  }
  response.count = sink.count();
  response.checksum = sink.checksum();
  if (retain) {
    auto result = std::make_shared<algebra::QueryResult>();
    result->count = sink.count();
    result->checksum = sink.checksum();
    result->rows = sink.TakeRows();
    if (cache_.enabled()) cache_.Insert(*key, result);
    response.result = std::move(result);
  }
  finish(/*record_latency=*/true);
  return response;
}

void CubeServer::CountErrorClass(const Status& status) {
  // Storage faults get their own counters so an operator can tell "the
  // disk is dying / the cube file is corrupt" from request mistakes.
  if (status.code() == StatusCode::kIoError) {
    io_errors_total_->Inc();
  } else if (status.code() == StatusCode::kDataLoss) {
    data_loss_total_->Inc();
  }
}

QueryResponse CubeServer::Execute(const QueryRequest& request) {
  return ExecuteInternal(request);
}

std::future<QueryResponse> CubeServer::Submit(QueryRequest request) {
  auto promise = std::make_shared<std::promise<QueryResponse>>();
  std::future<QueryResponse> future = promise->get_future();

  int64_t admitted = in_flight_.load(std::memory_order_relaxed);
  do {
    if (admitted >= options_.max_inflight) {
      rejected_total_->Inc();
      QueryResponse response;
      response.status = Status::ResourceExhausted(
          "server at capacity: " + std::to_string(admitted) +
          " queries in flight");
      promise->set_value(std::move(response));
      return future;
    }
  } while (!in_flight_.compare_exchange_weak(admitted, admitted + 1,
                                             std::memory_order_relaxed));

  const double deadline = request.deadline_seconds > 0
                              ? request.deadline_seconds
                              : options_.default_deadline_seconds;
  pool_->Submit([this, promise, deadline,
                 request = std::move(request),
                 submit_watch = Stopwatch()]() mutable -> Status {
    if (worker_hook_) worker_hook_();
    const int64_t wait_us = submit_watch.ElapsedMicros();
    queue_wait_us_->Record(wait_us);
    if (Tracer::enabled()) {
      // The wait happened before this worker picked the task up, so the
      // span is recorded retroactively with an explicit start timestamp.
      TraceEvent event;
      event.name = "cure.serve.queue_wait";
      event.type = TraceEventType::kComplete;
      event.ts_us = Tracer::NowMicros() - wait_us;
      event.dur_us = wait_us;
      Tracer::Instance().Record(event);
    }
    QueryResponse response;
    if (deadline > 0 && submit_watch.ElapsedSeconds() > deadline) {
      deadline_exceeded_total_->Inc();
      response.status = Status::DeadlineExceeded(
          "query spent its deadline in the admission queue");
    } else {
      response = ExecuteInternal(request);
      response.queue_wait_us = wait_us;
    }
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    promise->set_value(std::move(response));
    return Status::OK();
  });
  return future;
}

void CubeServer::UpdateDerivedMetrics() const {
  // Satellite: every point-in-time stat flows through the registry (one
  // uniform rendering path for STATS and METRICS) instead of ad-hoc
  // snprintf assembly.
  const algebra::QueryCache::Stats stats = cache_.exact()->stats();
  metrics_.gauge("cache_enabled")->Set(cache_.enabled() ? 1 : 0);
  metrics_.gauge("cache_hits")->Set(static_cast<double>(stats.hits));
  metrics_.gauge("cache_misses")->Set(static_cast<double>(stats.misses));
  metrics_.gauge("cache_evictions")->Set(static_cast<double>(stats.evictions));
  metrics_.gauge("cache_inserts")->Set(static_cast<double>(stats.inserts));
  metrics_.gauge("cache_bytes")->Set(static_cast<double>(stats.bytes));
  metrics_.gauge("cache_entries")->Set(static_cast<double>(stats.entries));
  const algebra::SemanticCache::Stats sem = cache_.stats();
  metrics_.gauge("cache_semantic_enabled")
      ->Set(cache_.semantic_enabled() ? 1 : 0);
  metrics_.gauge("cache_semantic_hits")
      ->Set(static_cast<double>(sem.semantic_hits));
  metrics_.gauge("cache_semantic_misses")
      ->Set(static_cast<double>(sem.semantic_misses));
  metrics_.gauge("cache_rollup_rows")
      ->Set(static_cast<double>(sem.rollup_rows));
  metrics_.gauge("cache_derived_rows")
      ->Set(static_cast<double>(sem.derived_rows));
  metrics_.gauge("cache_index_nodes")
      ->Set(static_cast<double>(sem.index_nodes));
  metrics_.gauge("cache_index_keys")
      ->Set(static_cast<double>(sem.index_keys));
  metrics_.gauge("in_flight")->Set(static_cast<double>(in_flight()));

  // Satellite: thread-pool queue depth and worker utilization.
  metrics_.gauge("pool_threads")->Set(pool_->num_threads());
  metrics_.gauge("pool_queue_depth")
      ->Set(static_cast<double>(pool_->queue_depth()));
  metrics_.gauge("pool_busy_workers")->Set(pool_->busy_workers());
  metrics_.gauge("pool_tasks_submitted")
      ->Set(static_cast<double>(pool_->tasks_submitted()));
  metrics_.gauge("pool_tasks_completed")
      ->Set(static_cast<double>(pool_->tasks_completed()));

  // Buffer-cache counters of the served snapshot's fact source (already
  // relaxed atomics; sampled here rather than plumbed through the engine).
  if (const std::shared_ptr<const maintain::CubeSnapshot> snapshot =
          Snapshot();
      snapshot != nullptr && snapshot->engine != nullptr) {
    const cube::SourceAccessor* fact =
        snapshot->engine->sources().Get(cube::kSourceFact);
    if (const auto* rel = dynamic_cast<const cube::FactRelationSource*>(fact)) {
      const storage::BufferCache& cache = rel->cache();
      metrics_.gauge("buffer_cache_hits")
          ->Set(static_cast<double>(cache.hits()));
      metrics_.gauge("buffer_cache_misses")
          ->Set(static_cast<double>(cache.misses()));
      metrics_.gauge("buffer_cache_cached_rows")
          ->Set(static_cast<double>(cache.cached_rows()));
    }
  }

  if (live_ != nullptr) {
    const maintain::Freshness fresh = live_->freshness();
    const maintain::LiveCube::Counters c = live_->counters();
    metrics_.gauge("cube_version")->Set(static_cast<double>(fresh.version));
    metrics_.gauge("snapshot_rows")
        ->Set(static_cast<double>(fresh.snapshot_rows));
    metrics_.gauge("total_rows")->Set(static_cast<double>(fresh.total_rows));
    metrics_.gauge("pending_wal_rows")
        ->Set(static_cast<double>(fresh.pending_rows));
    metrics_.gauge("pending_wal_bytes")
        ->Set(static_cast<double>(fresh.pending_bytes));
    metrics_.gauge("staleness_seconds")->Set(fresh.staleness_seconds);
    metrics_.gauge("last_refresh_unix")->Set(fresh.last_refresh_unix);
    metrics_.gauge("last_refresh_seconds")->Set(fresh.last_refresh_seconds);
    metrics_.gauge("refresh_total")->Set(static_cast<double>(c.refresh_total));
    metrics_.gauge("refresh_delta")->Set(static_cast<double>(c.refresh_delta));
    metrics_.gauge("refresh_rebuild")
        ->Set(static_cast<double>(c.refresh_rebuild));
    metrics_.gauge("refresh_failed")
        ->Set(static_cast<double>(c.refresh_failed));
    metrics_.gauge("refresh_skipped")
        ->Set(static_cast<double>(c.refresh_skipped));
    metrics_.gauge("append_batches")
        ->Set(static_cast<double>(c.append_batches));
    metrics_.gauge("append_rows")->Set(static_cast<double>(c.append_rows));
  }
}

std::string CubeServer::StatsText() const {
  UpdateDerivedMetrics();
  std::string out = metrics_.TextSnapshot();
  if (live_ != nullptr) {
    AppendHistogramText("refresh_latency", live_->refresh_latency_us(), &out);
    AppendHistogramText("wal_replay", live_->wal_replay_us(), &out);
  }
  return out;
}

std::string CubeServer::PrometheusText() const {
  UpdateDerivedMetrics();
  // include_buckets: the `# BUCKETS` comment lines feed the router's
  // METRICS-cluster federation (bucket-exact histogram merge).
  std::string out =
      metrics_.PrometheusText("cure_serve_", /*include_buckets=*/true);
  if (live_ != nullptr) {
    AppendPrometheusHistogram("cure_serve_refresh_latency_us",
                              live_->refresh_latency_us(), &out);
    AppendHistogramBuckets("cure_serve_refresh_latency_us",
                           live_->refresh_latency_us(), &out);
    AppendPrometheusHistogram("cure_serve_wal_replay_us",
                              live_->wal_replay_us(), &out);
    AppendHistogramBuckets("cure_serve_wal_replay_us", live_->wal_replay_us(),
                           &out);
  }
  // Process-global storage series (file I/O, fsyncs, ...) — already
  // prefixed cure_storage_.
  out += GlobalMetrics().PrometheusText();
  return out;
}

}  // namespace serve
}  // namespace cure
