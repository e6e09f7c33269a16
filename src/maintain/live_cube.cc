#include "maintain/live_cube.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/stopwatch.h"
#include "common/trace.h"
#include "engine/incremental.h"

namespace cure {
namespace maintain {
namespace {

double UnixSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// How long a non-waiting refresh is allowed to poll for the standby's old
/// readers before giving up (skipped_busy); Flush() polls indefinitely.
constexpr int kBusyPollMicros = 200;
constexpr int kBusyPollLimit = 50;  // 10 ms

/// Cap of the refresh retry's exponential backoff.
constexpr uint64_t kIoRetryBackoffCapMs = 100;

}  // namespace

LiveCube::LiveCube(const schema::CubeSchema& schema,
                   const MaintainOptions& options)
    : schema_(schema), codec_(schema), options_(options) {
  record_size_ = 4ull * schema.num_dims() + 8ull * schema.num_raw_measures();
}

Result<std::unique_ptr<LiveCube>> LiveCube::Open(
    const schema::CubeSchema& schema, schema::FactTable base,
    const MaintainOptions& options) {
  if (schema.num_dims() != base.num_dims() ||
      schema.num_raw_measures() != base.num_measures()) {
    return Status::InvalidArgument(
        "fact table shape does not match the cube schema");
  }
  if (options.wal_path.empty()) {
    return Status::InvalidArgument("MaintainOptions.wal_path is required");
  }
  auto live = std::unique_ptr<LiveCube>(new LiveCube(schema, options));

  // Replay the WAL straight into the base table: rows durably appended by
  // prior runs (possibly never refreshed before a crash) become part of the
  // initial build.
  auto replica = std::make_unique<Replica>();
  replica->table = std::move(base);
  schema::FactTable* table = &replica->table;
  const int num_dims = schema.num_dims();
  // Measures sit at offset 4*D inside a record, which is 8-byte aligned
  // only for even D — stage them through an aligned buffer.
  std::vector<int64_t> measures(schema.num_raw_measures());
  CURE_ASSIGN_OR_RETURN(
      live->wal_,
      DeltaWal::Open(options.wal_path, num_dims, schema.num_raw_measures(),
                     [table, num_dims, &measures](const uint8_t* record) {
                       std::memcpy(measures.data(), record + 4ull * num_dims,
                                   8ull * measures.size());
                       table->AppendRow(
                           reinterpret_cast<const uint32_t*>(record),
                           measures.data());
                     }));
  live->wal_replay_us_.Record(
      static_cast<int64_t>(live->wal_->recovery().seconds * 1e6));
  live->base_rows_ = replica->table.num_rows();

  // Initial version.
  Stopwatch build_watch;
  engine::FactInput input;
  input.table = &replica->table;
  CURE_ASSIGN_OR_RETURN(replica->cube,
                        engine::BuildCure(schema, input, options.build));
  auto snap = std::make_shared<CubeSnapshot>();
  snap->version = live->next_version_++;
  snap->rows = replica->table.num_rows();
  snap->cube = replica->cube.get();
  CURE_ASSIGN_OR_RETURN(
      snap->engine, query::CureQueryEngine::Create(replica->cube.get(),
                                                   options.fact_cache_fraction));
  live->replicas_[0] = std::move(replica);
  live->active_replica_ = 0;
  live->active_ = std::move(snap);
  live->last_refresh_unix_ = UnixSeconds();
  live->last_refresh_seconds_ = build_watch.ElapsedSeconds();

  if (options.refresh_seconds > 0) {
    live->timer_ = std::thread([raw = live.get()] { raw->TimerLoop(); });
  }
  return live;
}

LiveCube::~LiveCube() {
  stopping_.store(true);
  if (timer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(timer_mu_);
      timer_cv_.notify_all();
    }
    timer_.join();
  }
  // Wait out any in-flight background refresh (it checks stopping_ and
  // bails early, but may be mid-build).
  std::lock_guard<std::mutex> lock(refresh_mu_);
}

Status LiveCube::Append(const RowBatch& batch) {
  if (batch.num_dims() != schema_.num_dims() ||
      batch.num_measures() != schema_.num_raw_measures()) {
    return Status::InvalidArgument("RowBatch shape does not match the schema");
  }
  if (batch.rows() == 0) return Status::OK();
  // Validate leaf codes before anything touches the WAL: a bad code must
  // not become durable.
  for (uint64_t r = 0; r < batch.rows(); ++r) {
    const uint8_t* record = batch.data() + r * record_size_;
    for (int d = 0; d < schema_.num_dims(); ++d) {
      uint32_t code;
      std::memcpy(&code, record + 4ull * d, 4);
      if (code >= schema_.dim(d).leaf_cardinality()) {
        return Status::InvalidArgument(
            "row " + std::to_string(r) + ": dimension '" +
            schema_.dim(d).name() + "' leaf code " + std::to_string(code) +
            " out of range (cardinality " +
            std::to_string(schema_.dim(d).leaf_cardinality()) + ")");
      }
    }
  }

  bool trigger = false;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    CURE_RETURN_IF_ERROR(wal_->AppendBatch(batch));
    const size_t off = row_log_.size();
    row_log_.resize(off + batch.bytes());
    std::memcpy(row_log_.data() + off, batch.data(), batch.bytes());
    log_rows_ += batch.rows();
    if (!has_pending_) {
      has_pending_ = true;
      oldest_pending_ = std::chrono::steady_clock::now();
    }
    const uint64_t pending = PendingRowsLocked();
    trigger = pending >= options_.refresh_rows ||
              pending * record_size_ >= options_.refresh_bytes;
  }
  append_batches_.fetch_add(1, std::memory_order_relaxed);
  append_rows_.fetch_add(batch.rows(), std::memory_order_relaxed);
  if (trigger) MaybeScheduleRefresh();
  return Status::OK();
}

Status LiveCube::AppendRow(const uint32_t* dims, const int64_t* measures) {
  RowBatch batch(schema_.num_dims(), schema_.num_raw_measures());
  batch.Add(dims, measures);
  return Append(batch);
}

std::shared_ptr<const CubeSnapshot> LiveCube::snapshot() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return active_;
}

uint64_t LiveCube::PendingRowsLocked() const {
  uint64_t snapshot_rows = 0;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    snapshot_rows = active_->rows;
  }
  return base_rows_ + log_rows_ - snapshot_rows;
}

Freshness LiveCube::freshness() const {
  Freshness f;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    f.version = active_->version;
    f.snapshot_rows = active_->rows;
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  f.total_rows = base_rows_ + log_rows_;
  f.pending_rows = f.total_rows - f.snapshot_rows;
  f.pending_bytes = f.pending_rows * record_size_;
  if (has_pending_ && f.pending_rows > 0) {
    f.staleness_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - oldest_pending_)
                              .count();
  }
  f.last_refresh_unix = last_refresh_unix_;
  f.last_refresh_seconds = last_refresh_seconds_;
  return f;
}

LiveCube::Counters LiveCube::counters() const {
  Counters c;
  c.refresh_total = refresh_total_.load(std::memory_order_relaxed);
  c.refresh_delta = refresh_delta_.load(std::memory_order_relaxed);
  c.refresh_rebuild = refresh_rebuild_.load(std::memory_order_relaxed);
  c.refresh_failed = refresh_failed_.load(std::memory_order_relaxed);
  c.refresh_skipped = refresh_skipped_.load(std::memory_order_relaxed);
  c.append_batches = append_batches_.load(std::memory_order_relaxed);
  c.append_rows = append_rows_.load(std::memory_order_relaxed);
  return c;
}

uint64_t LiveCube::wal_rows() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return wal_->total_rows();
}

Result<RefreshStats> LiveCube::Flush() { return RefreshWithRetry(true); }

Result<RefreshStats> LiveCube::RefreshWithRetry(bool wait_for_standby) {
  const int attempts = options_.io_retry_attempts > 0
                           ? options_.io_retry_attempts
                           : 1;
  uint64_t backoff_ms = std::max<uint64_t>(options_.io_retry_backoff_ms, 1);
  for (int attempt = 1;; ++attempt) {
    auto result = RefreshOnce(wait_for_standby);
    // Only transient I/O failures retry: the published snapshot is still
    // serving, so a capped backoff costs staleness, not availability.
    if (result.ok() || result.status().code() != StatusCode::kIoError ||
        attempt >= attempts || stopping_.load()) {
      return result;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, kIoRetryBackoffCapMs);
  }
}

void LiveCube::MaybeScheduleRefresh() {
  if (stopping_.load()) return;
  if (refresh_scheduled_.exchange(true)) return;
  auto job = [this]() -> Status {
    auto result = RefreshWithRetry(false);
    refresh_scheduled_.store(false);
    if (!result.ok()) return result.status();
    // Rows that arrived while we were refreshing (or a busy skip) may have
    // re-crossed the threshold with no future append to re-trigger it.
    bool retrigger = false;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      const uint64_t pending = PendingRowsLocked();
      retrigger = pending >= options_.refresh_rows ||
                  pending * record_size_ >= options_.refresh_bytes;
    }
    if (retrigger) MaybeScheduleRefresh();
    return Status::OK();
  };
  if (pool_ != nullptr) {
    pool_->Submit(job);
  } else {
    job();
  }
}

void LiveCube::TimerLoop() {
  const auto period = std::chrono::duration<double>(options_.refresh_seconds);
  std::unique_lock<std::mutex> lock(timer_mu_);
  while (!stopping_.load()) {
    timer_cv_.wait_for(lock, period, [this] { return stopping_.load(); });
    if (stopping_.load()) return;
    bool pending = false;
    {
      std::lock_guard<std::mutex> state_lock(state_mu_);
      pending = PendingRowsLocked() > 0;
    }
    if (pending) MaybeScheduleRefresh();
  }
}

Result<RefreshStats> LiveCube::RefreshOnce(bool wait_for_standby) {
  std::lock_guard<std::mutex> refresh_lock(refresh_mu_);
  CURE_TRACE_SPAN("cure.maintain.refresh");
  Stopwatch watch;
  RefreshStats stats;
  if (stopping_.load() && !wait_for_standby) {
    std::lock_guard<std::mutex> lock(snap_mu_);
    stats.version = active_->version;
    return stats;
  }

  // Capture the refresh target: every row committed before this point.
  uint64_t target = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    target = base_rows_ + log_rows_;
  }
  uint64_t prev_rows = 0;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    stats.version = active_->version;
    prev_rows = active_->rows;
    if (prev_rows == target) return stats;  // Nothing pending.
  }

  // Fault-test seam: a failing hook is indistinguishable from an attempt
  // that died in real I/O — counted, retried per policy, snapshot intact.
  if (refresh_hook_) {
    Status hook_status = refresh_hook_();
    if (!hook_status.ok()) {
      refresh_failed_.fetch_add(1, std::memory_order_relaxed);
      return hook_status;
    }
  }

  // The standby replica may still be read by queries that started before
  // the *previous* swap (they hold retired_). Never mutate it under a
  // reader: wait for the refcount to drain (Flush) or skip and let the next
  // trigger retry (background refresh, which must not block a pool worker).
  const int standby_idx = 1 - active_replica_;
  for (int poll = 0;; ++poll) {
    {
      std::lock_guard<std::mutex> lock(snap_mu_);
      if (retired_ == nullptr) break;
      // Queries only ever copy active_, so once retired_'s count drops to
      // ours alone it cannot rise again: the standby has no readers left.
      if (retired_.use_count() == 1) {
        retired_.reset();  // Destroys the standby's old engine.
        break;
      }
    }
    if (!wait_for_standby && poll >= kBusyPollLimit) {
      refresh_skipped_.fetch_add(1, std::memory_order_relaxed);
      stats.skipped_busy = true;
      return stats;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(kBusyPollMicros));
  }

  // Materialize the standby replica at `target` rows: copy-on-first-use,
  // then append its unapplied row-log suffix.
  if (replicas_[standby_idx] == nullptr) {
    auto fresh = std::make_unique<Replica>();
    fresh->table = replicas_[active_replica_]->table;  // Deep copy.
    replicas_[standby_idx] = std::move(fresh);
  }
  Replica* standby = replicas_[standby_idx].get();
  const uint64_t old_rows = standby->table.num_rows();
  if (old_rows < target) {
    CURE_TRACE_SPAN("cure.maintain.refresh.catchup", "rows", target - old_rows);
    std::vector<uint8_t> slice((target - old_rows) * record_size_);
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      std::memcpy(slice.data(),
                  row_log_.data() + (old_rows - base_rows_) * record_size_,
                  slice.size());
    }
    standby->table.Reserve(target);
    std::vector<int64_t> measures(schema_.num_raw_measures());
    for (size_t off = 0; off < slice.size(); off += record_size_) {
      std::memcpy(measures.data(), slice.data() + off + 4ull * schema_.num_dims(),
                  8ull * schema_.num_raw_measures());
      standby->table.AppendRow(
          reinterpret_cast<const uint32_t*>(slice.data() + off),
          measures.data());
    }
  }
  // Operator-facing: rows newly visible relative to the previous published
  // version. (The standby's own catch-up, target - old_rows, also covers
  // rows already published by the refresh before this one.)
  stats.rows_applied = target - prev_rows;

  // Fold the delta in: ApplyDelta when its preconditions hold, the staged
  // rebuild pipeline otherwise (kFailedPrecondition is the arbitration
  // signal, any other error is real).
  bool delta_applied = false;
  if (standby->cube == nullptr && options_.allow_delta) {
    // The first refresh on each replica has no cube to update in place;
    // steady state (every later refresh) takes the delta path.
    stats.fallback_reason = "standby replica has no cube yet (first refresh)";
  }
  if (standby->cube != nullptr && options_.allow_delta) {
    CURE_TRACE_SPAN("cure.maintain.refresh.delta", "rows", target - old_rows);
    auto update =
        engine::ApplyDelta(standby->cube.get(), standby->table, old_rows);
    if (update.ok()) {
      delta_applied = true;
    } else if (update.status().code() == StatusCode::kFailedPrecondition) {
      stats.fallback_reason = update.status().message();
    } else {
      refresh_failed_.fetch_add(1, std::memory_order_relaxed);
      return update.status();
    }
  }
  if (!delta_applied) {
    CURE_TRACE_SPAN("cure.maintain.refresh.rebuild", "rows",
                    standby->table.num_rows());
    standby->cube.reset();  // Release before rebuilding (peak memory).
    engine::FactInput input;
    input.table = &standby->table;
    auto rebuilt = engine::BuildCure(schema_, input, options_.build);
    if (!rebuilt.ok()) {
      refresh_failed_.fetch_add(1, std::memory_order_relaxed);
      return rebuilt.status();
    }
    standby->cube = std::move(rebuilt).value();
  }

  auto snap = std::make_shared<CubeSnapshot>();
  snap->rows = standby->table.num_rows();
  snap->cube = standby->cube.get();
  auto engine = query::CureQueryEngine::Create(standby->cube.get(),
                                               options_.fact_cache_fraction);
  if (!engine.ok()) {
    refresh_failed_.fetch_add(1, std::memory_order_relaxed);
    return engine.status();
  }
  snap->engine = std::move(engine).value();
  snap->version = next_version_++;
  stats.version = snap->version;
  stats.refreshed = true;
  stats.used_delta = delta_applied;

  // Publish: swap the active snapshot; the old one becomes retired and pins
  // its replica until its readers drain.
  {
    CURE_TRACE_SPAN("cure.maintain.refresh.publish", "version", snap->version);
    std::lock_guard<std::mutex> lock(snap_mu_);
    retired_ = std::move(active_);
    active_ = std::move(snap);
  }
  active_replica_ = standby_idx;
  stats.seconds = watch.ElapsedSeconds();
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    last_refresh_unix_ = UnixSeconds();
    last_refresh_seconds_ = stats.seconds;
    if (base_rows_ + log_rows_ == target) {
      has_pending_ = false;
    } else {
      // Rows arrived during the refresh; approximate their age from now.
      oldest_pending_ = std::chrono::steady_clock::now();
    }
  }
  refresh_total_.fetch_add(1, std::memory_order_relaxed);
  (delta_applied ? refresh_delta_ : refresh_rebuild_)
      .fetch_add(1, std::memory_order_relaxed);
  refresh_latency_us_.Record(static_cast<int64_t>(stats.seconds * 1e6));
  return stats;
}

}  // namespace maintain
}  // namespace cure
