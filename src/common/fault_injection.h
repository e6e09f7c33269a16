#ifndef CURE_COMMON_FAULT_INJECTION_H_
#define CURE_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"

namespace cure {

/// A deterministic fault to inject into a syscall shim (DESIGN.md §11).
///
/// Matching: an operation matches when `op` is empty or equals the shim's
/// operation name AND `target_substr` is empty or a substring of the
/// operation's target (a file path for the disk shims, "host:port" for the
/// socket shims). Matching operations are counted; the `fail_index`-th
/// match (0-based) trips the fault. A tripped fault shortens a write by
/// `short_fraction`, sleeps `delay_seconds`, then returns `error`.
struct FaultPlan {
  /// Operation name to match; empty matches every operation.
  std::string op;
  /// Target substring to match; empty matches every target.
  std::string target_substr;
  /// 0-based index (among matching operations) of the op that fails.
  /// UINT64_MAX never fires — used to count call sites for a sweep.
  uint64_t fail_index = 0;
  /// Fail only the fail_index-th op (transient) vs every op from
  /// fail_index on (sticky — a dead disk or peer).
  bool once = false;
  /// errno to inject (EIO, ENOSPC, ECONNRESET, ...); 0 lets the op proceed.
  int error = 0;
  /// For writes: fraction (0,1) of the requested length actually written.
  /// With error == 0 the shortened write SUCCEEDS (kernel-style short
  /// write the caller must loop over).
  double short_fraction = 0;
  /// Sleep before returning, taken outside the injector's mutex so a
  /// stalled op never wedges unrelated threads.
  double delay_seconds = 0;
};

/// Process-global, test-scoped deterministic fault injector. Two instances:
/// Disk() for the storage file_io shims ("open", "read", "write", "fsync",
/// "rename", "truncate", "unlink", "syncdir") and Net() for the socket
/// shims ("connect", "read", "write", "accept"). They are separate because
/// both domains have "read" and "write", and a disk sweep must never count
/// socket ops. Disarmed (the default) a consult costs one relaxed atomic
/// load. Thread-safe; a sweep's op ordering is deterministic only when the
/// workload itself is.
class FaultInjector {
 public:
  static FaultInjector& Disk();
  static FaultInjector& Net();

  /// Arms `plan`, resetting counters. Replaces any armed plan.
  void Arm(const FaultPlan& plan);

  /// Disarms and resets the plan.
  void Disarm();

  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Number of operations that matched the plan since Arm().
  uint64_t ops_matched() const;
  /// Number of faults actually injected since Arm().
  uint64_t faults_injected() const;

  /// Shim hook: returns 0 (proceed) or the errno to inject. Writes pass
  /// `len`, which a short-write fault reduces — the shim must then write
  /// only *len bytes and report success.
  int Consult(const char* op, const std::string& target,
              size_t* len = nullptr) {
    if (!armed_.load(std::memory_order_relaxed)) return 0;
    return ConsultArmed(op, target, len);
  }

 private:
  FaultInjector() = default;

  int ConsultArmed(const char* op, const std::string& target, size_t* len);

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  FaultPlan plan_;
  uint64_t ops_matched_ = 0;
  uint64_t faults_injected_ = 0;
  bool fired_once_ = false;
};

/// RAII arm/disarm for tests.
class ScopedFaultInjection {
 public:
  ScopedFaultInjection(FaultInjector& injector, const FaultPlan& plan)
      : injector_(injector) {
    injector_.Arm(plan);
  }
  ~ScopedFaultInjection() { injector_.Disarm(); }

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

  uint64_t ops_matched() const { return injector_.ops_matched(); }
  uint64_t faults_injected() const { return injector_.faults_injected(); }

 private:
  FaultInjector& injector_;
};

/// Parses a CURE_NET_FAULT spec ("op=read;kind=delay;delay_ms=120;
/// endpoint=:7101;index=0;once=0;frac=0.5"; grammar and kind table in
/// DESIGN.md §11) into a plan for FaultInjector::Net(). An unknown key,
/// kind or op, a pair without '=', or a malformed number is
/// InvalidArgument naming the pair.
Result<FaultPlan> ParseNetFaultSpec(const std::string& text);

}  // namespace cure

#endif  // CURE_COMMON_FAULT_INJECTION_H_
