#ifndef CURE_COMMON_METRICS_H_
#define CURE_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"

namespace cure {

/// Unified metrics layer (promoted from serve/metrics.* so every layer —
/// storage, engine, serve, maintain, benches — reports through one
/// registry). Hot-path operations are single relaxed atomics; registration
/// and text snapshots take a mutex.

/// A monotonically increasing counter. Wait-free increments.
class Counter {
 public:
  void Inc() { value_.fetch_add(1, std::memory_order_relaxed); }
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A point-in-time value (e.g. staleness seconds, pending WAL rows), set by
/// whoever observes it — typically right before a text snapshot.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Appends the standard histogram text lines
/// (`<name>_{count,avg_us,p50_us,p95_us,p99_us,max_us}`) for `histogram` to
/// `*out` — the same format MetricsRegistry::TextSnapshot uses, shared so
/// externally owned histograms (the maintenance layer's) render uniformly.
void AppendHistogramText(const std::string& name, const LogHistogram& histogram,
                         std::string* out);

/// ---- Prometheus text exposition helpers ----

/// True when `name` matches the Prometheus metric-name grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
bool IsValidMetricName(const std::string& name);

/// Maps an arbitrary string onto the metric-name grammar (invalid characters
/// become '_'; a leading digit gets a '_' prefix; empty becomes "_").
std::string SanitizeMetricName(const std::string& name);

/// Escapes a label value per the exposition format: backslash, double-quote
/// and newline are escaped; everything else passes through.
std::string EscapeLabelValue(const std::string& value);

/// Renders one sample line: `name{k1="v1",...} value\n`. The metric name is
/// sanitized, label names are sanitized, label values escaped. Non-finite
/// values render as nothing (returns an empty string) — the exposition
/// format forbids NaN samples from this producer.
std::string PrometheusSampleLine(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& labels,
    double value);

/// Formats a metric value: integral doubles print without a decimal point
/// (`12`), everything else as `%.6g`. Shared by TextSnapshot and the
/// Prometheus renderer so both read identically.
std::string FormatMetricValue(double value);

/// Appends a Prometheus summary block for `histogram` (values are
/// microseconds): `# TYPE <name> summary`, quantile samples for
/// p50/p95/p99, `<name>_sum` and `<name>_count`.
void AppendPrometheusHistogram(const std::string& name,
                               const LogHistogram& histogram,
                               std::string* out);

/// Appends one exposition comment line carrying the histogram's raw bucket
/// counts (sparse; only non-zero buckets):
///   `# BUCKETS <name> sum=<sum> max=<max> <index>:<count> ...`
/// Prometheus scrapers ignore it (it is a comment); the router's METRICS
/// federation parses it back with ParseHistogramBuckets so cluster-level
/// quantiles come from a true bucket-exact LogHistogram::Merge instead of
/// averaging per-backend percentiles. Nothing is appended for an empty
/// histogram.
void AppendHistogramBuckets(const std::string& name,
                            const LogHistogram& histogram, std::string* out);

/// Parses one AppendHistogramBuckets line (with or without the trailing
/// newline) back into the metric name and a Snapshot whose count/avg/pXX
/// are derived from the parsed buckets. Returns false when `line` is not a
/// well-formed `# BUCKETS` line (wrong prefix, bad numbers, bucket index
/// out of range).
bool ParseHistogramBuckets(const std::string& line, std::string* name,
                           LogHistogram::Snapshot* snapshot);

/// Lock-cheap metrics registry: named atomic counters, gauges and
/// log-bucketed latency histograms (microseconds). Registration takes a
/// mutex; after that the hot path touches only relaxed atomics through the
/// returned pointers, which stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  /// Returns the counter named `name`, creating it on first use.
  Counter* counter(const std::string& name);

  /// Returns the histogram named `name`, creating it on first use. Values
  /// are interpreted as microseconds in the text snapshot.
  LogHistogram* histogram(const std::string& name);

  /// Returns the gauge named `name`, creating it on first use.
  Gauge* gauge(const std::string& name);

  /// Plain-text dump, one `name value` pair per line, names sorted.
  /// Histograms expand into `<name>_{count,avg,p50,p95,p99,max}` lines.
  /// External gauges (e.g. cache occupancy sampled at dump time) can be
  /// appended by the caller.
  std::string TextSnapshot() const;

  /// Prometheus text exposition. `prefix` is prepended to every metric name
  /// (e.g. "cure_serve_"); names are sanitized to the metric-name grammar.
  /// Counters render as `counter`, gauges as `gauge` (non-finite gauge
  /// values are skipped entirely), histograms as `summary` blocks with
  /// quantile labels and `_sum`/`_count` children. `include_buckets` adds a
  /// `# BUCKETS` comment line per histogram (raw bucket counts, the METRICS
  /// federation wire format — see AppendHistogramBuckets).
  std::string PrometheusText(const std::string& prefix = std::string(),
                             bool include_buckets = false) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<LogHistogram>> histograms_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

/// Process-global registry for always-on cross-layer counters (storage I/O
/// bytes, fsyncs, ...). Leaked on purpose so writers
/// running during static destruction stay safe.
MetricsRegistry& GlobalMetrics();

}  // namespace cure

#endif  // CURE_COMMON_METRICS_H_
