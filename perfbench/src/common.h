// Shared pieces of the benchmark binary: command line, exact statistics,
// the result record, the benchmark's own span recorder, process probes and
// the data generators every workload draws from.
//
// Everything here times calls into the repository's public module surfaces
// from the outside; nothing under src/ is instrumented for the benchmark.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "gen/datasets.h"
#include "gen/random.h"
#include "query/node_query.h"
#include "query/workload.h"
#include "schema/cube_schema.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  ///< scratch directory inside the checkout
};

/// Monotonic clock in microseconds (one epoch for spans and samples).
int64_t NowUs();
/// The same clock with sub-microsecond resolution, for latency samples
/// (whole microseconds would make medians of short requests repeat).
double NowUsExact();

/// Exact order statistics over raw samples (no bucketing).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Nearest-rank percentile, q in [0, 1].
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }
  /// Samples strictly above Percentile(q): a percentile is reported only
  /// when at least ten samples lie beyond it.
  size_t CountAbove(double q) const;

 private:
  std::vector<double> values_;
  mutable std::vector<double> sorted_;  // values_ sorted, when sizes match
  void Sort() const;
};

class Report;

/// Per-round figures of a timed phase split into rounds. Throughput and the
/// median latency are medians over rounds, so a burst of noise from outside
/// the process moves one round, not the result; the 99th percentile is taken
/// over every sample of the phase, so it does not depend on round length.
class Rounds {
 public:
  /// One round: `answers` completed in `seconds`, their raw latencies.
  void Add(uint64_t answers, double seconds, const Samples& latency);
  size_t size() const { return qps_.size(); }
  /// Reports qps, query_p50_us and query_p99_us, noting the number of
  /// samples beyond the 99th percentile when fewer than ten lie there.
  void Publish(Report* report) const;

 private:
  Samples qps_, p50_, all_;
};

/// The record one workload process prints: correctness counts plus named
/// metrics. `e2e` marks the metrics a user of the system sees; the rest are
/// per-layer metrics, emitted only by the traced run.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              bool e2e, size_t samples = 0);
  /// Adds the median as `p50_name` and the 99th percentile as `p99_name`
  /// ("" skips it), noting the number of samples beyond the 99th percentile
  /// when fewer than ten lie there.
  void Percentiles(const std::string& p50_name, const std::string& p99_name,
                   const Samples& s, const std::string& unit, bool e2e);
  void Fail(const std::string& why);
  void Check(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }
  void Note(const std::string& line);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  /// One JSON object: correct/attempted/failed/metrics (value, unit,
  /// samples, e2e) plus free-form notes.
  std::string ToJson() const;

 private:
  struct Entry {
    double value;
    std::string unit;
    bool e2e;
    size_t samples;
  };
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> notes_;
};

/// The benchmark's span recorder (traced runs only). One span per call into
/// a module, named "<layer>.<op>"; spans of one request share `req`. Spans
/// whose time the module reports itself (profile lines, stage fields) are
/// added as children with explicit times. Kept in memory, written as Chrome
/// trace JSON at the end, and reduced to per-layer self time.
///
/// Request spans are kept for one request in kSampleEvery (whole requests,
/// so a request's spans stay together) to bound memory and export size;
/// self times weight each kept request span by kSampleEvery. Spans outside
/// any request (req == 0: generate, build, pack, open) are all kept.
class Spans {
 public:
  static constexpr uint64_t kSampleEvery = 10;
  static bool Sampled(uint64_t req) { return req == 0 || (req - 1) % kSampleEvery == 0; }

  static Spans& Get();
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void Enable() { on_.store(true, std::memory_order_relaxed); }

  uint64_t NewRequestId() { return next_req_.fetch_add(1) + 1; }

  uint64_t NewSpanId() { return next_id_.fetch_add(1) + 1; }

  /// Records a finished span under `id` (0 assigns a fresh one); returns the
  /// id, or 0 when tracing is off.
  uint64_t Add(const char* name, const char* layer, int64_t start_us,
               int64_t dur_us, uint64_t req, uint64_t parent, uint64_t id = 0);

  /// Writes Chrome trace_event JSON.
  cure::Status WriteChromeTrace(const std::string& path) const;
  /// Seconds of self time per layer: each span's duration minus the part
  /// of it covered by its child spans.
  std::map<std::string, double> SelfSecondsByLayer() const;
  uint64_t dropped() const { return dropped_; }

 private:
  struct Rec {
    const char* name;
    const char* layer;
    int64_t start_us;
    int64_t dur_us;
    uint64_t req;
    uint64_t id;
    uint64_t parent;
    uint32_t tid;
  };
  std::atomic<bool> on_{false};
  std::atomic<uint64_t> next_req_{0};
  mutable std::mutex mu_;
  std::atomic<uint64_t> next_id_{0};
  std::vector<Rec> recs_;
  uint64_t dropped_ = 0;
};

/// RAII span around one call into a module; nests on the calling thread.
class Span {
 public:
  Span(const char* name, const char* layer, uint64_t req = 0);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Ends the span early.
  void End();
  uint64_t id() const { return id_; }

 private:
  const char* name_;
  const char* layer_;
  uint64_t req_;
  uint64_t parent_ = 0;
  int64_t start_us_ = 0;
  uint64_t id_ = 0;
  bool open_ = false;
};

/// Traced runs: the serve stage times a request reports about itself
/// (profile=1 line or QueryResponse fields), laid out in order from
/// `start_us` as children of the client's request span `parent`; the
/// request span's self time is then the wire and client time.
void AddServeStageSpans(int64_t start_us, uint64_t req, uint64_t parent, int64_t queue_wait_us,
                        int64_t key_us, int64_t cache_us, int64_t execute_us);

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb();
/// Restarts the VmHWM high-water mark at the current resident set, so one
/// phase's peak can be read on its own.
void ResetPeakRss();
/// Current thread count of this process.
int ThreadCount();
/// Restricts this thread, and every thread it starts afterwards, to one CPU
/// (the highest it may run on); returns that CPU, or -1. The serving
/// workloads call it first: their requests hop between client, transport
/// and worker threads, and on a shared host a hop that wakes an idle
/// virtual CPU waits for the host to run it, which moved their figures 2-4x
/// from one minute to the next. On one CPU a hop is a local context switch.
int PinToOneCpu();

/// The hierarchical Zipf-skewed drill-down dataset: A(48>12>3), B(20>5),
/// C(12>4), flat D(6); one measure with SUM and COUNT.
cure::gen::Dataset MakeDrillDataset(uint64_t tuples, uint64_t seed);
/// Appends `rows` more rows of the same distribution to `table`.
void AppendDrillRows(cure::schema::FactTable* table, uint64_t rows,
                     cure::gen::Rng* rng);

/// Default CureOptions with any build scratch files kept in `workdir`
/// (the benchmark writes only inside its checkout).
inline cure::engine::CureOptions BuildOptions(const std::string& workdir) {
  cure::engine::CureOptions options;
  options.temp_dir = workdir;
  return options;
}

/// build_s of the workloads whose cube build is set-up, not the timed work:
/// adds `builds` samples to `seconds`, each the wall time of BuildCure over
/// every input of `inputs` (the shards of one cluster, or one fact table).
/// `cube_bytes` receives the cubes' summed size. The serving workloads take
/// half their samples before the timed phase and half after it, so that
/// build_s does not rest on the machine's speed in one short moment.
void TimeBuilds(const cure::schema::CubeSchema& schema,
                const std::vector<cure::engine::FactInput>& inputs,
                const std::string& workdir, int builds, Samples* seconds,
                double* cube_bytes);

/// Expected answer of one query: row count plus order-independent checksum.
struct Answer {
  uint64_t count = 0;
  uint64_t checksum = 0;
  bool operator==(const Answer& o) const {
    return count == o.count && checksum == o.checksum;
  }
};

/// Protocol text of a node / slice list (numeric codes, level names).
std::string NodeSpec(const cure::schema::CubeSchema& schema,
                     cure::schema::NodeId node);
std::string SliceSpecs(const cure::schema::CubeSchema& schema,
                       const std::vector<cure::query::CureQueryEngine::Slice>& s);

/// Parses "OK <count> <checksum-hex> <kind> ..." from a response header.
bool ParseOkHeader(const std::string& response, Answer* answer,
                   std::string* kind);

/// Traced runs: writes the recorded spans to <workdir>/trace.json, checks
/// the file with ValidateChromeTraceFile and for the expected span names,
/// and reports the span count and each layer's self time.
void FinishTrace(const Args& args, const std::vector<std::string>& expected,
                 Report* report);

/// Process-global storage counters (GlobalMetrics()).
struct StorageCounters {
  uint64_t read_bytes = 0;
  uint64_t written_bytes = 0;
  uint64_t fsyncs = 0;
  uint64_t spill_bytes = 0;
  static StorageCounters Now();
};

/// Blocking line-protocol client over one loopback TCP connection: sends a
/// command line and reads the response up to its lone "." terminator line.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  bool Connect(int port);
  /// `response` receives the full reply including the terminator.
  bool RoundTrip(const std::string& line, std::string* response);
  void Close();

 private:
  int fd_ = -1;
};

/// Removes a directory tree (best effort).
void RemoveTree(const std::string& path);

int RunApbCube(const Args& args, Report* report);
int RunLiveIngest(const Args& args, Report* report);
int RunScatter3Shard(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
