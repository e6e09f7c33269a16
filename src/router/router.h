#ifndef CURE_ROUTER_ROUTER_H_
#define CURE_ROUTER_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/slowlog.h"
#include "common/status.h"
#include "router/backend_client.h"
#include "router/merge.h"
#include "router/profile.h"
#include "router/shard_map.h"
#include "schema/cube_schema.h"
#include "schema/node_id.h"
#include "serve/protocol.h"

namespace cure {
namespace router {

struct RouterOptions {
  /// Per-backend-call timeout (connect / send / recv each); 0 = none.
  double backend_timeout_seconds = 5.0;
  /// Background health-probe period; 0 disables the probe thread (health
  /// state then changes only through query outcomes and explicit
  /// ProbeHealth() calls — the mode tests use).
  double health_period_seconds = 0;
  /// Fixed hedge delay: an attempt still unanswered after this long gets a
  /// second request to another healthy replica, first answer wins. < 0
  /// disables hedging (the default — tests and latency-insensitive callers
  /// keep strictly sequential failover).
  double hedge_seconds = -1;
  /// Max relaunches (retries + hedges) beyond the first attempt per shard
  /// per request. Candidate replicas are still each tried at most once.
  int retry_budget = 3;
  /// Capped exponential backoff between sequential retries; jittered to
  /// avoid synchronized retry storms across concurrent requests.
  double backoff_initial_seconds = 0.005;
  double backoff_cap_seconds = 0.25;
  /// Circuit breaker: this many consecutive failover-class failures open a
  /// replica's breaker for `breaker_cooldown_seconds`; after the cooldown
  /// it is half-open (eligible as a probe candidate) and one success closes
  /// it. 0 disables the breaker.
  int breaker_failure_threshold = 3;
  double breaker_cooldown_seconds = 2.0;
  /// Opt-in graceful degradation: when some (but not all) shards fail with
  /// failover-class errors, answer from the surviving shards with a
  /// trailing "PARTIAL shards=<k>/<n>" header token instead of ERR. Strict
  /// (all-or-error) by default.
  bool allow_partial = false;
  /// Slow-query flight recorder: queries slower than this land in the
  /// SLOWLOG ring (one line each, newest first). 0 disables recording.
  double slow_query_seconds = 0;
};

/// Sharded, replicated scatter–gather front end over cure_serve backends.
///
/// The cube's fact table is partitioned across the shard map's shards
/// (cure_tool shard builds one complete cube per disjoint fact partition);
/// each query verb is scattered to ONE replica of EVERY shard — every
/// attempt driven by the request's own thread from one poll() loop — the
/// per-shard partial relations (requested as raw codes, `codes=1`) are
/// gathered and re-aggregated with the cube's own distributive merge
/// semantics (SUM/COUNT/MIN/MAX Combine), and the merged relation —
/// bit-identical to a single-node cube over the whole fact table, including
/// the order-independent checksum — is returned to the client in the same
/// line protocol cure_serve speaks.
///
/// Replica pick is staleness-aware: health probes read each backend's STATS
/// gauges and the router prefers, per shard, the healthy replica with the
/// highest cube_version, breaking ties by lowest staleness_seconds, then
/// round-robin. Failure handling follows the storage-fault taxonomy:
/// transport failures and backend IOError retry on the next replica;
/// DataLoss permanently ejects the replica (health probes do not restore
/// it); deterministic request errors (InvalidArgument, NotFound, ...) are
/// returned to the client without failover.
class CureRouter {
 public:
  /// Decodes a code for client row output, exactly as the backends do.
  using ValueDecoder = serve::ValueDecoder;

  /// `schema` must match the backends' cube schema (cure_tool shard writes
  /// it next to the shard map) and must outlive the router.
  static Result<std::unique_ptr<CureRouter>> Create(
      const schema::CubeSchema* schema, ShardMap map,
      const RouterOptions& options, ValueDecoder decoder = nullptr);

  ~CureRouter();

  CureRouter(const CureRouter&) = delete;
  CureRouter& operator=(const CureRouter&) = delete;

  /// Executes one protocol line and returns the full response (including
  /// the terminating ".\n"). Thread-safe — the LineTransport front end
  /// calls this from one thread per client connection, and that thread
  /// drives the whole scatter itself: the router starts no threads per
  /// request or per backend attempt.
  ///
  /// The query verbs and their control tokens follow the one request
  /// grammar of serve::ParseRequest (protocol.h); a line it rejects fails
  /// here with the same ERR a backend would send, and reaches no backend.
  /// Slice values are forwarded as text (the backends own the
  /// dictionaries). What is specific to this tier: answers read
  /// "OK <count> <checksum-hex> SCATTER trace=<id>" plus the merged rows
  /// (BATCH: "OK <n> <xor-checksum-hex> BATCH trace=<id>", sections
  /// "= <spec> <count> <checksum-hex> SCATTER"), with a trailing
  /// "PARTIAL shards=<k>/<n>" token when degraded; `profile=1` is ignored.
  /// Further verbs: PROFILE (wraps QUERY/ICEBERG/SLICE/ROLLUP/DRILL/TOPK;
  /// re-runs it with `profile=1` on every backend line and answers with
  /// the cluster profile — per-shard attempt log plus backend stage
  /// breakdowns — instead of rows; see profile.h), STATS, METRICS
  /// (Prometheus, cure_router_ prefix; `METRICS cluster` additionally
  /// scrapes every serving replica and appends the federated
  /// shard/replica-labelled exposition — see federation.h), SLOWLOG (the
  /// slow-query ring, newest first), HEALTH (one line per replica:
  /// "shard <s> replica <r> <addr> <UP|DOWN|EJECTED> version=<v>
  /// staleness=<s>").
  std::string HandleLine(const std::string& line);

  /// Probes every non-ejected replica's STATS once, updating health and
  /// freshness. Called by the background thread when enabled.
  void ProbeHealth();

  const ShardMap& shard_map() const { return map_; }
  MetricsRegistry* metrics() { return &metrics_; }

  /// STATS body: registry text plus the per-backend latency histograms
  /// merged into one cluster-wide histogram (backend_all_latency_*).
  std::string StatsText() const;
  /// Prometheus exposition with the cure_router_ prefix. Breaker state is
  /// published as ONE series with shard/replica labels
  /// (cure_router_breaker_state{shard="s",replica="r"}: 0 = closed,
  /// 1 = half-open, 2 = open) instead of a metric name per replica.
  std::string PrometheusText() const;
  /// `METRICS cluster` body: the router's own exposition plus a federated
  /// scrape of every serving replica (see MetricsFederator).
  std::string ClusterMetricsText();

  SlowQueryLog* slowlog() { return &slowlog_; }

  /// ---- Test seams ----
  /// Overrides a replica's freshness (and marks it healthy) so replica-pick
  /// tests don't need live backends.
  void OverrideReplicaFreshnessForTest(int shard, int replica,
                                       uint64_t version, double staleness);
  /// The replica order the picker would try for `shard` right now.
  std::vector<int> ReplicaOrderForTest(int shard);

 private:
  /// Per-replica serving state, guarded by mu_.
  struct ReplicaState {
    bool healthy = true;   ///< optimistic until a probe or query says otherwise
    bool ejected = false;  ///< DataLoss tombstone; never cleared
    uint64_t cube_version = 0;
    double staleness_seconds = 0;
    /// Circuit breaker (closed → open → half-open → closed): consecutive
    /// failover-class failures since the last success, and the steady-clock
    /// instant the open state expires (0 = closed; past = half-open).
    int consecutive_failures = 0;
    int64_t open_until_us = 0;
  };

  /// One shard's answer to a scattered line: OK with the backend's raw
  /// reply text (rows start at `body`), or the shard's error — a transport
  /// failure, a backend ERR, or the deadline.
  struct ShardReply {
    Status status = Status::Internal("shard reply missing");
    std::string text;
    size_t body = 0;
  };

  CureRouter(const schema::CubeSchema* schema, ShardMap map,
             const RouterOptions& options, ValueDecoder decoder);

  /// Candidate replica order for a shard (see class comment). Breaker-aware:
  /// healthy closed-breaker replicas (freshness-sorted) first, then
  /// half-open probe candidates, then suspects, then open-breaker replicas
  /// as last resort.
  std::vector<int> PickOrder(int shard);

  /// Cheap thread-safe uniform [0, 1) for backoff jitter.
  double NextJitter();

  /// Breaker + health bookkeeping for a query outcome on (shard, replica).
  void RecordBackendSuccess(int shard, int replica);
  void RecordBackendFailure(int shard, int replica);

  /// Scatters `backend_line` to one replica of every shard, with replica
  /// pick, hedging, retries and failover, all driven from the calling
  /// thread by one poll() loop over non-blocking backend connections. A
  /// shard's reply is its first OK answer; otherwise the last
  /// transport/IOError (all candidates exhausted or budget spent),
  /// kDeadlineExceeded (client budget gone), or the first deterministic
  /// backend error. `deadline_us` is the absolute steady-clock deadline in
  /// microseconds (0 = none); each attempt is sent with the REMAINING
  /// budget so retries spend one client budget. A non-null `profile`
  /// collects every replica attempt per shard (launch/end offsets relative
  /// to `profile_base_us`, kind, outcome) plus the winners' "% " profile
  /// lines; its `shards` vector is filled here.
  std::vector<ShardReply> Scatter(const std::string& backend_line,
                                  int64_t deadline_us,
                                  ClusterProfile* profile = nullptr,
                                  int64_t profile_base_us = 0);

  /// True when a shard error is eligible for partial-result degradation
  /// (the shard is unavailable, not the request malformed).
  static bool PartialEligible(StatusCode code);

  /// The one routed path of every scattered verb: parse (ParseRequest),
  /// build the backend line (the plain node query, or the BATCH member
  /// list), Scatter, merge every section, apply the post-merge step the
  /// request carries (iceberg threshold, top-k cut, `node=` echo, BATCH
  /// sectioning), then the shared bookkeeping (header, PARTIAL token,
  /// slowlog, latency, error counters). A non-null `profile` switches the
  /// backend line to `profile=1` and is filled with the router's stage
  /// timings and the answer's count and checksum; the returned response is
  /// unchanged — HandleProfile renders the profile instead of the rows.
  std::string Route(std::vector<std::string> tokens,
                    ClusterProfile* profile = nullptr);

  /// Merges every OK shard reply into `mergers` (see MergeShardReply;
  /// `sections` is the BATCH member specs, else null). With allow_partial,
  /// failover-class shard errors are skipped; `*shards_ok` counts the
  /// shards merged, and a query where EVERY shard failed still errors.
  Status Gather(const std::vector<ShardReply>& replies,
                const std::vector<std::string>* sections,
                std::vector<PartialMerger>* mergers, int* shards_ok) const;

  /// Folds `merger` and emits `node`'s answer after the request's
  /// post-merge step (iceberg threshold, then top-k cut) into `sink` —
  /// count and checksum — and as row text through `decoder` into `rows`.
  Status EmitMerged(const serve::Request& request, schema::NodeId node,
                    PartialMerger* merger, const ValueDecoder& decoder,
                    query::ResultSink* sink, std::string* rows) const;

  /// PROFILE <cmd>...: cluster-wide EXPLAIN ANALYZE (see HandleLine doc).
  std::string HandleProfile(const std::vector<std::string>& tokens);
  std::string HealthText();
  /// Records one finished query into the slow-query ring when it exceeded
  /// the configured threshold.
  void MaybeRecordSlow(const char* verb, uint64_t trace_id, int64_t total_us,
                       int shards_ok, const Status& status);
  void UpdateDerivedMetrics() const;
  /// Merges every per-backend latency histogram into `out` (stack-local
  /// cluster view; avoids double-accumulation in the registry).
  void MergeBackendLatency(LogHistogram* out) const;

  const schema::CubeSchema* schema_;
  schema::NodeIdCodec codec_;
  ShardMap map_;
  RouterOptions options_;
  ValueDecoder decoder_;
  BackendClient client_;
  int count_aggregate_ = -1;

  mutable std::mutex mu_;
  std::vector<std::vector<ReplicaState>> replicas_;  ///< [shard][replica]
  std::vector<uint64_t> rr_;                         ///< round-robin cursors

  // mutable: StatsText()/PrometheusText() sample gauges before rendering.
  mutable MetricsRegistry metrics_;
  SlowQueryLog slowlog_;
  Counter* queries_total_;
  Counter* queries_errors_;
  Counter* backend_rpcs_total_;
  Counter* backend_retries_total_;
  Counter* replicas_ejected_total_;
  Counter* health_probes_total_;
  Counter* health_probe_failures_total_;
  Counter* hedges_total_;
  Counter* retries_total_;
  Counter* partial_total_;
  Counter* breaker_trips_total_;
  LogHistogram* query_latency_us_;
  /// Per-backend call latency, indexed like the shard map; registry-owned,
  /// named backend_s<shard>_r<replica>_latency.
  std::vector<std::vector<LogHistogram*>> backend_latency_;

  std::atomic<uint64_t> jitter_state_{0x9e3779b97f4a7c15ull};

  std::thread health_thread_;
  std::mutex health_mu_;
  std::condition_variable health_cv_;
  bool stopping_ = false;
};

}  // namespace router
}  // namespace cure

#endif  // CURE_ROUTER_ROUTER_H_
