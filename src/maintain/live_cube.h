#ifndef CURE_MAINTAIN_LIVE_CUBE_H_
#define CURE_MAINTAIN_LIVE_CUBE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/cure.h"
#include "maintain/delta_wal.h"
#include "query/node_query.h"
#include "schema/cube_schema.h"
#include "schema/fact_table.h"
#include "schema/node_id.h"

namespace cure {
namespace maintain {

/// One immutable serving version: a cube and its query engine, identified by
/// a monotonically increasing version number (the serving layer's cache
/// epoch). Handed out as shared_ptr<const CubeSnapshot>; a query holds its
/// snapshot for the duration of execution, so a refresh never mutates a cube
/// a reader can still see.
struct CubeSnapshot {
  uint64_t version = 0;
  uint64_t rows = 0;  ///< fact rows reflected in this cube
  const engine::CureCube* cube = nullptr;  ///< owned by the replica
  std::unique_ptr<query::CureQueryEngine> engine;
};

/// Outcome of one refresh attempt.
struct RefreshStats {
  uint64_t version = 0;       ///< active version after the attempt
  uint64_t rows_applied = 0;  ///< rows newly visible vs the previous version
  bool refreshed = false;     ///< a new version was published
  bool used_delta = false;    ///< ApplyDelta path (else staged rebuild)
  bool skipped_busy = false;  ///< standby still pinned by in-flight queries
  double seconds = 0;
  /// Why the delta path was declined (ApplyDelta's kFailedPrecondition
  /// message), empty when the delta path ran or was not attempted.
  std::string fallback_reason;
};

/// Operator-facing staleness view.
struct Freshness {
  uint64_t version = 0;
  uint64_t snapshot_rows = 0;  ///< rows reflected in the served version
  uint64_t total_rows = 0;     ///< rows durably appended (base + WAL)
  uint64_t pending_rows = 0;   ///< total_rows - snapshot_rows
  uint64_t pending_bytes = 0;
  double staleness_seconds = 0;     ///< age of the oldest unapplied append
  double last_refresh_unix = 0;     ///< wall time of the last publish
  double last_refresh_seconds = 0;  ///< duration of the last refresh
};

struct MaintainOptions {
  /// Durable WAL file; replayed (and torn tails truncated) at Open.
  std::string wal_path;
  /// Refresh triggers: pending rows / pending bytes (either fires), and an
  /// optional periodic check (0 disables the timer thread).
  uint64_t refresh_rows = 4096;
  uint64_t refresh_bytes = 4ull << 20;
  double refresh_seconds = 0;
  /// Build options for the initial build and staged rebuilds. The delta
  /// path needs the defaults (tall plan, complete cube); a non-default
  /// configuration simply routes every refresh through the rebuild path.
  engine::CureOptions build;
  double fact_cache_fraction = 1.0;
  /// Force the staged-rebuild path even when ApplyDelta's preconditions
  /// hold (benchmarks compare the two).
  bool allow_delta = true;
  /// Transient-I/O resilience: a refresh attempt failing with kIoError is
  /// retried up to `io_retry_attempts` total attempts with exponential
  /// backoff starting at `io_retry_backoff_ms` and capped at 100 ms.
  /// Non-I/O errors never retry. On persistent failure the published
  /// snapshot stays untouched and refresh_failed counts every failed
  /// attempt (surfaced in STATS).
  int io_retry_attempts = 3;
  uint64_t io_retry_backoff_ms = 1;
};

/// A live, crash-safe CURE cube: durable row ingest through a delta WAL,
/// immutable versioned snapshots, and zero-downtime refresh.
///
/// Two replicas (fact table + cube) alternate between *active* (the
/// published snapshot queries run on) and *standby*. A refresh appends the
/// pending rows to the standby's table, applies `ApplyDelta` — falling back
/// to a staged rebuild (`BuildCure`, the build pipeline) when the delta
/// path returns kFailedPrecondition — builds a fresh engine, and atomically
/// publishes the standby as the new active version. In-flight queries keep
/// their snapshot; the previous version stays intact until its last reader
/// releases it (the manager checks the retired snapshot's refcount before
/// ever mutating that replica again). See DESIGN.md §10.
///
/// Thread-safe: Append/Flush/snapshot/freshness may be called from any
/// thread. Refreshes are serialized; background refreshes run on the
/// ThreadPool set via set_refresh_pool (the serving layer shares its query
/// pool) or inline on the appending thread when no pool is set.
///
/// Lifetime: outlive the CubeServer (and its pool) serving it.
class LiveCube {
 public:
  /// Opens a live cube: replays the WAL at `options.wal_path` into `base`
  /// (recovering every committed append from prior runs, truncating a torn
  /// tail), builds the initial cube version over the recovered table, and
  /// starts the optional refresh timer.
  static Result<std::unique_ptr<LiveCube>> Open(
      const schema::CubeSchema& schema, schema::FactTable base,
      const MaintainOptions& options);

  ~LiveCube();

  LiveCube(const LiveCube&) = delete;
  LiveCube& operator=(const LiveCube&) = delete;

  /// Durably appends a batch: one WAL frame, fsynced before return. Rows
  /// become queryable at the next refresh. Validates leaf codes against the
  /// schema before writing anything.
  Status Append(const RowBatch& batch);
  Status AppendRow(const uint32_t* dims, const int64_t* measures);

  /// Synchronous refresh: drains every row committed before the call into a
  /// new published version (waiting, briefly, for in-flight queries on the
  /// standby's previous version to finish). No-op when nothing is pending.
  Result<RefreshStats> Flush();

  /// The current serving version. Never null after Open.
  std::shared_ptr<const CubeSnapshot> snapshot() const;

  Freshness freshness() const;

  /// Background refreshes run on `pool` (null = inline on the trigger
  /// thread). The pool must outlive this object or stop accepting tasks
  /// before it is destroyed (ThreadPool::Shutdown does).
  void set_refresh_pool(ThreadPool* pool) { pool_ = pool; }

  /// Test seam: invoked at the start of every refresh attempt that has
  /// pending rows; a non-OK return fails the attempt with that status
  /// (counted in refresh_failed, subject to the kIoError retry policy).
  /// Lets fault tests exercise the retry/backoff path even when the cube
  /// itself rebuilds purely in memory. Set before concurrent use.
  void set_refresh_hook(std::function<Status()> hook) {
    refresh_hook_ = std::move(hook);
  }

  const schema::CubeSchema& schema() const { return schema_; }
  const schema::NodeIdCodec& codec() const { return codec_; }
  const MaintainOptions& options() const { return options_; }
  const WalRecoveryStats& wal_recovery() const { return wal_->recovery(); }
  uint64_t wal_rows() const;

  /// Monitoring: refresh counters and latency histograms (microseconds),
  /// rendered into the serving layer's STATS text.
  struct Counters {
    uint64_t refresh_total = 0;
    uint64_t refresh_delta = 0;
    uint64_t refresh_rebuild = 0;
    uint64_t refresh_failed = 0;
    uint64_t refresh_skipped = 0;
    uint64_t append_batches = 0;
    uint64_t append_rows = 0;
  };
  Counters counters() const;
  const LogHistogram& refresh_latency_us() const { return refresh_latency_us_; }
  const LogHistogram& wal_replay_us() const { return wal_replay_us_; }

 private:
  /// A fact table + cube pair. Fixed address (unique_ptr) — snapshots and
  /// cubes point into it.
  struct Replica {
    schema::FactTable table{0, 0};
    std::unique_ptr<engine::CureCube> cube;
  };

  LiveCube(const schema::CubeSchema& schema, const MaintainOptions& options);

  /// One refresh attempt (serialized). `wait_for_standby` blocks until the
  /// standby replica's previous version drains; otherwise a pinned standby
  /// returns skipped_busy and the next trigger retries.
  Result<RefreshStats> RefreshOnce(bool wait_for_standby);

  /// RefreshOnce wrapped in the kIoError retry policy (MaintainOptions'
  /// io_retry_* knobs): transient I/O failures back off exponentially and
  /// retry; anything else — and exhaustion — propagates.
  Result<RefreshStats> RefreshWithRetry(bool wait_for_standby);

  /// Schedules a background refresh if none is queued or running.
  void MaybeScheduleRefresh();
  void TimerLoop();
  uint64_t PendingRowsLocked() const;  // state_mu_ held

  schema::CubeSchema schema_;
  schema::NodeIdCodec codec_;
  MaintainOptions options_;
  std::unique_ptr<DeltaWal> wal_;
  size_t record_size_ = 0;

  // Durable-append state: the WAL and the in-memory row log (packed records
  // appended since Open; replicas re-read their unapplied suffix from it).
  mutable std::mutex state_mu_;
  std::vector<uint8_t> row_log_;
  uint64_t base_rows_ = 0;  ///< table rows at Open (incl. WAL recovery)
  uint64_t log_rows_ = 0;
  bool has_pending_ = false;
  std::chrono::steady_clock::time_point oldest_pending_{};
  double last_refresh_unix_ = 0;
  double last_refresh_seconds_ = 0;

  // Version state. active_ is the published snapshot; retired_ is the
  // previous one, kept so the refresh path can verify its readers drained
  // before mutating that replica again.
  mutable std::mutex snap_mu_;
  std::shared_ptr<const CubeSnapshot> active_;
  std::shared_ptr<const CubeSnapshot> retired_;

  // Refresh state (refresh_mu_ serializes refreshes; active_replica_ is
  // only touched under it).
  std::mutex refresh_mu_;
  std::unique_ptr<Replica> replicas_[2];
  int active_replica_ = 0;
  uint64_t next_version_ = 1;
  std::atomic<bool> refresh_scheduled_{false};
  ThreadPool* pool_ = nullptr;
  std::function<Status()> refresh_hook_;

  // Timer thread (refresh_seconds > 0 only).
  std::thread timer_;
  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::atomic<bool> stopping_{false};

  // Monitoring.
  std::atomic<uint64_t> refresh_total_{0}, refresh_delta_{0},
      refresh_rebuild_{0}, refresh_failed_{0}, refresh_skipped_{0},
      append_batches_{0}, append_rows_{0};
  LogHistogram refresh_latency_us_;
  LogHistogram wal_replay_us_;
};

}  // namespace maintain
}  // namespace cure

#endif  // CURE_MAINTAIN_LIVE_CUBE_H_
