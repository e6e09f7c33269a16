#ifndef CURE_COMMON_NET_FAULT_H_
#define CURE_COMMON_NET_FAULT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

namespace cure {
namespace net {

/// What an injected network fault does to the matched socket operation —
/// the failure modes a real cluster produces, not just cleanly closed
/// sockets (DESIGN.md §16).
enum class NetFaultKind {
  /// connect: fail with ECONNREFUSED without dialing (dead backend).
  /// read/write/accept: same errno, modeling a refused peer.
  kRefused,
  /// Fail with ECONNRESET — the peer dropped the connection mid-exchange.
  kReset,
  /// write only: shorten the requested length (the shim must write the
  /// shortened prefix and report its size, kernel-style). The op SUCCEEDS;
  /// correct callers loop and the exchange stays byte-identical.
  kShortWrite,
  /// Sleep delay_seconds, then proceed normally — a slow peer. Exercises
  /// hedging without breaking the exchange.
  kDelay,
  /// A peer that never answers: sleep delay_seconds (standing in for the
  /// caller's full timeout, so sweeps stay fast), then fail with ETIMEDOUT
  /// exactly as the socket timeout would.
  kStall,
};

/// A deterministic fault to inject into the socket shims of
/// serve::LineTransport (accept/read/write) and router::BackendClient
/// (connect/read/write).
///
/// Matching mirrors storage::FaultPlan: an operation matches when `op` is
/// empty or equals the shim's operation name AND `endpoint_substr` is empty
/// or a substring of the operation's endpoint ("host:port" — the backend
/// address on the client side, the listen address on the server side).
/// Matching operations are counted; the `fail_index`-th match (0-based)
/// trips the fault.
struct NetFaultPlan {
  /// "connect", "read", "write" or "accept"; empty matches every op.
  std::string op;
  /// Endpoint substring to match (e.g. ":7101"); empty matches everything.
  std::string endpoint_substr;
  /// 0-based index (among matching operations) of the op that fails.
  /// UINT64_MAX never fires — counting mode for enumerating a session's
  /// network ops before sweeping them.
  uint64_t fail_index = 0;
  NetFaultKind kind = NetFaultKind::kReset;
  /// Fail only the fail_index-th op (transient glitch) vs every op from
  /// fail_index on (sticky — a dead or wedged peer).
  bool once = false;
  /// Sleep applied by kDelay and kStall before returning.
  double delay_seconds = 0.02;
  /// For kShortWrite: fraction (0,1) of the requested length written.
  double short_fraction = 0.5;
};

/// Process-global, test-scoped deterministic network fault injector — the
/// network-edge sibling of storage::FaultInjector. Disarmed (the default)
/// it costs one relaxed atomic load per socket operation.
///
/// Thread-safe: router request threads and server connection threads
/// consult the same plan; any sleep a fault calls for happens OUTSIDE the
/// injector's mutex so a stalled op never wedges unrelated connections.
class NetFaultInjector {
 public:
  static NetFaultInjector& Instance();

  /// Arms `plan`, resetting counters. Replaces any armed plan.
  void Arm(const NetFaultPlan& plan);

  /// Arms from the CURE_NET_FAULT environment variable when set — the CI
  /// chaos smoke's entry point. Format: semicolon-separated key=value
  /// pairs, e.g. "op=read;kind=delay;delay_ms=120;endpoint=:7101;index=0;
  /// once=0;frac=0.5". kind is one of refused|reset|shortwrite|delay|stall.
  /// Returns true when a plan was armed.
  static bool ArmFromEnv();

  /// Disarms and resets counters.
  void Disarm();

  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Number of operations that matched the plan since Arm().
  uint64_t ops_matched() const;
  /// Number of faults actually injected since Arm().
  uint64_t faults_injected() const;

  /// Shim hook for connect/read/accept: returns 0 (proceed) or the errno to
  /// inject. May sleep (kDelay/kStall) before returning.
  int Consult(const char* op, const std::string& endpoint);

  /// Shim hook for writes: like Consult, but kShortWrite instead reduces
  /// *len — the shim must then write only *len bytes and report that count
  /// as a successful partial write.
  int ConsultWrite(const std::string& endpoint, size_t* len);

 private:
  NetFaultInjector() = default;

  /// Decides under mu_; returns the errno (0 = proceed) and the sleep to
  /// apply after release.
  int Decide(const char* op, const std::string& endpoint, size_t* len,
             double* sleep_seconds);

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  NetFaultPlan plan_;
  uint64_t ops_matched_ = 0;
  uint64_t faults_injected_ = 0;
  bool fired_once_ = false;
};

/// RAII arm/disarm for tests.
class ScopedNetFaultInjection {
 public:
  explicit ScopedNetFaultInjection(const NetFaultPlan& plan) {
    NetFaultInjector::Instance().Arm(plan);
  }
  ~ScopedNetFaultInjection() { NetFaultInjector::Instance().Disarm(); }

  ScopedNetFaultInjection(const ScopedNetFaultInjection&) = delete;
  ScopedNetFaultInjection& operator=(const ScopedNetFaultInjection&) = delete;

  uint64_t ops_matched() const {
    return NetFaultInjector::Instance().ops_matched();
  }
  uint64_t faults_injected() const {
    return NetFaultInjector::Instance().faults_injected();
  }
};

}  // namespace net
}  // namespace cure

#endif  // CURE_COMMON_NET_FAULT_H_
