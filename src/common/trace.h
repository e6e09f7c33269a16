#ifndef CURE_COMMON_TRACE_H_
#define CURE_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace cure {

/// Low-overhead in-process span tracer.
///
/// The design mirrors common/fault_injection.*: a process-global singleton
/// whose hot path is ONE relaxed atomic load while disabled, so
/// instrumentation can stay compiled into release binaries. When enabled,
/// every thread records fixed-size events into its own ring buffer (no
/// cross-thread contention on the record path; the per-buffer mutex is only
/// ever contended by an exporter). Buffers are registered globally through
/// shared_ptr so events survive thread exit until the next Reset().
///
/// Span names use the `cure.<layer>.<op>` convention (DESIGN.md §12) and
/// must be string literals (static storage duration) — the tracer stores the
/// pointer, not a copy.
///
/// Export writes Chrome trace_event JSON ("X" complete, "C" counter and "i"
/// instant events) loadable in Perfetto / chrome://tracing.

/// Phase codes, mirroring the Chrome trace_event `ph` field.
enum class TraceEventType : char {
  kComplete = 'X',
  kCounter = 'C',
  kInstant = 'i',
};

/// One fixed-size trace record. `name` / `arg*_name` must point at string
/// literals. Timestamps are microseconds on the tracer's steady clock.
struct TraceEvent {
  const char* name = nullptr;
  TraceEventType type = TraceEventType::kComplete;
  int64_t ts_us = 0;
  int64_t dur_us = 0;  // kComplete only
  const char* arg0_name = nullptr;
  const char* arg1_name = nullptr;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
};

class Tracer {
 public:
  static constexpr size_t kDefaultEventsPerThread = 1 << 16;

  static Tracer& Instance();

  /// The one hot-path check: a single relaxed atomic load.
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Starts recording. Each thread that records gets its own ring buffer of
  /// `events_per_thread` slots (oldest events are overwritten on wrap and
  /// counted as dropped). Idempotent; capacity applies to buffers created
  /// after the call.
  void Enable(size_t events_per_thread = kDefaultEventsPerThread);

  /// Stops recording. Already-recorded events remain exportable.
  void Disable();

  /// Discards every recorded event and detaches all per-thread buffers
  /// (threads re-register on their next record). Does not change the
  /// enabled flag.
  void Reset();

  /// Appends one event to the calling thread's ring buffer. Callers should
  /// check enabled() first; Record() re-checks and drops when disabled.
  void Record(const TraceEvent& event);

  /// Microseconds since the process-wide trace epoch (steady clock).
  static int64_t NowMicros();

  /// Process-unique id for correlating a request across spans, logs and
  /// protocol responses. Never returns 0.
  uint64_t NextTraceId();

  /// Copies every recorded event carrying an integer arg named "trace_id"
  /// whose value equals `trace_id`, oldest first. Exporter-path cost (locks
  /// each thread buffer); empty when nothing matched. Lets a server attach
  /// the spans of one request to its profile reply without exporting the
  /// whole ring.
  std::vector<TraceEvent> EventsForTraceId(uint64_t trace_id) const;

  /// Total events currently held across all ring buffers.
  uint64_t recorded_events() const;
  /// Events overwritten by ring-buffer wrap since the last Reset().
  uint64_t dropped_events() const;

  /// Serializes all recorded events as Chrome trace_event JSON:
  /// `{"traceEvents":[...],"displayTimeUnit":"ms"}`.
  std::string ExportChromeTraceJson() const;

  /// Writes ExportChromeTraceJson() to `path` (truncates).
  Status WriteChromeTrace(const std::string& path) const;

  /// Tool entry point: enables tracing when the CURE_TRACE environment
  /// variable is set to a positive value (ring capacity from
  /// CURE_TRACE_BUFFER when set). Returns true when tracing was enabled.
  static bool ArmFromEnv();

 private:
  struct ThreadBuffer;

  Tracer() = default;

  std::shared_ptr<ThreadBuffer> BufferForThisThread();

  static std::atomic<bool> enabled_;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  size_t events_per_thread_ = kDefaultEventsPerThread;
  // Bumped by Reset() so threads drop their cached buffer pointer.
  std::atomic<uint64_t> epoch_{1};
  std::atomic<uint64_t> next_trace_id_{1};
  int next_tid_ = 1;
};

/// Current nesting depth of live TraceSpans on this thread (0 outside any
/// span). Maintained only while the tracer is enabled.
int TraceDepth();

/// RAII scoped span: captures the start time at construction (when the
/// tracer is enabled) and records one complete event at destruction. Up to
/// two integer args; names must be string literals.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) : armed_(Tracer::enabled()) {
    if (armed_) Start(name);
  }
  TraceSpan(const char* name, const char* arg0_name, uint64_t arg0)
      : armed_(Tracer::enabled()) {
    if (armed_) {
      Start(name);
      arg_names_[0] = arg0_name;
      args_[0] = arg0;
    }
  }
  TraceSpan(const char* name, const char* arg0_name, uint64_t arg0,
            const char* arg1_name, uint64_t arg1)
      : armed_(Tracer::enabled()) {
    if (armed_) {
      Start(name);
      arg_names_[0] = arg0_name;
      args_[0] = arg0;
      arg_names_[1] = arg1_name;
      args_[1] = arg1;
    }
  }
  ~TraceSpan() {
    if (armed_) Finish();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches (or overwrites) an arg after construction — e.g. a row count
  /// known only at scope exit. No-op when the tracer was disabled at
  /// construction.
  void AddArg(const char* arg_name, uint64_t value) {
    if (!armed_) return;
    const int slot = arg_names_[0] == nullptr || arg_names_[0] == arg_name ? 0 : 1;
    arg_names_[slot] = arg_name;
    args_[slot] = value;
  }

 private:
  void Start(const char* name);
  void Finish();

  bool armed_;
  const char* name_ = nullptr;
  int64_t start_us_ = 0;
  const char* arg_names_[2] = {nullptr, nullptr};
  uint64_t args_[2] = {0, 0};
};

/// Records a counter sample (rendered as a counter track in Perfetto).
void TraceCounter(const char* name, uint64_t value);

/// Records an instant event.
void TraceInstant(const char* name);
void TraceInstant(const char* name, const char* arg0_name, uint64_t arg0);

#define CURE_TRACE_CONCAT_INNER(a, b) a##b
#define CURE_TRACE_CONCAT(a, b) CURE_TRACE_CONCAT_INNER(a, b)

/// Scoped span covering the rest of the enclosing scope.
/// Usage: CURE_TRACE_SPAN("cure.build.load");
///        CURE_TRACE_SPAN("cure.build.partition_construct", "partition", i);
#define CURE_TRACE_SPAN(...)                                        \
  ::cure::TraceSpan CURE_TRACE_CONCAT(cure_trace_span_, __LINE__)( \
      __VA_ARGS__)

/// ---- Chrome-trace validation (used by tests, `cure_tool tracecheck` and
/// CI) ----

/// What the validator learned about a trace.
struct ChromeTraceSummary {
  size_t total_events = 0;
  size_t complete_events = 0;
  size_t counter_events = 0;
  size_t instant_events = 0;
  /// Unique event names, sorted.
  std::vector<std::string> names;

  bool Contains(const std::string& name) const;
  /// Count of complete events with the given name.
  size_t CompleteCount(const std::string& name) const;
  /// Distinct values of integer arg `arg_name` across events named `name`.
  std::vector<uint64_t> ArgValues(const std::string& name,
                                  const std::string& arg_name) const;

  // (name, arg_name, value) triples for complete events carrying int args.
  std::vector<std::string> complete_names_;
  struct ArgSample {
    std::string event_name;
    std::string arg_name;
    uint64_t value;
  };
  std::vector<ArgSample> args_;
};

/// Strictly validates Chrome trace_event JSON: a top-level object with a
/// `traceEvents` array whose elements carry a string `name`, a known
/// one-char `ph`, finite numeric `ts`, integer `pid`/`tid`, a non-negative
/// `dur` for "X" events, and (when present) an object `args`. Rejects
/// malformed JSON, NaN/Infinity, and unknown phases.
Status ValidateChromeTrace(const std::string& json,
                           ChromeTraceSummary* summary);

/// Reads `path` and validates its contents.
Status ValidateChromeTraceFile(const std::string& path,
                               ChromeTraceSummary* summary);

}  // namespace cure

#endif  // CURE_COMMON_TRACE_H_
