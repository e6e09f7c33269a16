#ifndef CURE_ROUTER_BACKEND_CLIENT_H_
#define CURE_ROUTER_BACKEND_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "router/shard_map.h"

namespace cure {
namespace router {

/// One backend's answer to a query verb line, parsed from the protocol
/// framing:
///   OK <count> <checksum-hex> <token> trace=<id>\n <rows...> .\n
///   ERR <CodeName> <message>\n .\n
/// where <token> is HIT | SEMANTIC | MISS (cure_serve) or SCATTER / BATCH
/// (a downstream router).
struct BackendReply {
  /// OK, or the backend's error mapped back onto its StatusCode (an
  /// unrecognized code name maps to kInternal). Transport failures
  /// (connect/read/write/timeout) surface as kIoError from the caller's
  /// point of view, exactly like a backend-reported IOError — both mean
  /// "try another replica".
  Status status;
  uint64_t count = 0;
  uint64_t checksum = 0;
  uint64_t trace_id = 0;
  bool cache_hit = false;
  /// Tab-separated body rows, one per result row, dictionary-decoded by the
  /// backend (dims as strings, aggregates as decimal int64). For a BATCH
  /// reply this includes the "= ..." section header lines.
  std::vector<std::string> rows;
  /// Profile annotations the backend attached when the request carried
  /// `profile=1` — body lines prefixed "% " ("% profile ..." stage
  /// breakdown, "% span ..." tracer events), diverted out of `rows` so row
  /// merging and checksum verification never see them.
  std::vector<std::string> profile_lines;
};

/// Freshness probe result parsed from a backend's STATS body.
struct BackendFreshness {
  /// maintain section's cube_version gauge; 0 for a static cube (which is
  /// never stale).
  uint64_t cube_version = 0;
  double staleness_seconds = 0;
};

/// Line-protocol client for cure_serve backends with per-address connection
/// pooling. Every exchange runs on a non-blocking socket driven by poll():
/// RoundTrip drives one exchange to completion, and the router's scatter
/// drives many at once from a single poll loop through Begin/Advance. An
/// exchange checks the pool for an idle connection to the address first; on
/// miss it connects fresh. The command is sent WITHOUT a trailing QUIT (the
/// server keeps the connection open between lines), the response is read up
/// to the ".\n" terminator, and the healthy connection is returned to the
/// pool. Failover stays correct: any transport error closes the connection
/// instead of pooling it, and a reused connection that dies before yielding
/// a single response byte (the server restarted or reaped it) is retried
/// ONCE on a fresh connection — a request that already produced bytes is
/// never resent.
///
/// Timeout taxonomy (DESIGN.md §16): a connect, send or receive that runs
/// out of time — including a timeout striking mid-response — is classified
/// kDeadlineExceeded (with the endpoint and bytes-read in the message);
/// refused/reset/closed connections are kIoError. Both are failover-class
/// for the router, but only deadline errors should charge a caller's
/// deadline budget.
class BackendClient {
 public:
  /// `timeout_seconds` bounds connect and every send/receive wait
  /// individually (the clock restarts whenever bytes move); 0 = no
  /// timeout. `idle_timeout_seconds` discards pooled connections idle
  /// longer than this on acquire (they are likely server-side reaped);
  /// 0 = keep forever.
  explicit BackendClient(double timeout_seconds = 5.0,
                         double idle_timeout_seconds = 30.0)
      : timeout_seconds_(timeout_seconds),
        idle_timeout_seconds_(idle_timeout_seconds) {}

  /// Closes every pooled connection.
  ~BackendClient();

  BackendClient(const BackendClient&) = delete;
  BackendClient& operator=(const BackendClient&) = delete;

  /// One request/response exchange, advanced by the caller's poll loop:
  /// poll fd() for events() until expires_us(), then hand the revents (0 on
  /// a poll timeout) to BackendClient::Advance until done(). Destroying an
  /// unfinished exchange closes its connection — abandoning a request costs
  /// one closed fd, never a thread.
  class Exchange {
   public:
    Exchange() = default;
    ~Exchange() { Close(); }
    Exchange(const Exchange&) = delete;
    Exchange& operator=(const Exchange&) = delete;

    bool done() const { return phase_ == Phase::kDone; }
    int fd() const { return fd_; }
    /// POLLOUT while connecting or sending, POLLIN while receiving.
    short events() const;
    /// Steady-clock microsecond at which the current wait times out; 0 =
    /// never.
    int64_t expires_us() const { return expires_us_; }
    /// The outcome once done(): OK, or the transport error.
    const Status& status() const { return status_; }
    /// The response text up to and excluding the ".\n" terminator (OK
    /// exchanges only).
    std::string& response() { return response_; }

   private:
    friend class BackendClient;
    enum class Phase { kConnecting, kSending, kReceiving, kDone };

    void Close();

    BackendAddress addr_;
    std::string endpoint_;  ///< addr_.ToString(): pool key, error messages
    std::string request_;
    size_t sent_ = 0;
    std::string response_;
    int fd_ = -1;
    bool reused_ = false;
    Phase phase_ = Phase::kDone;
    double timeout_seconds_ = 0;
    int64_t deadline_us_ = 0;
    int64_t expires_us_ = 0;
    Status status_;
  };

  /// Starts sending `line` to `addr` on a pooled or fresh connection (a
  /// pooled one is written at once); `exchange` must be fresh.
  /// `deadline_seconds` > 0 tightens every wait to min(timeout, deadline)
  /// and caps the whole exchange at the deadline — how the router spends
  /// one client budget across retries instead of multiplying timeouts.
  void Begin(const BackendAddress& addr, const std::string& line,
             double deadline_seconds, Exchange* exchange) const;

  /// Moves `exchange` forward after poll() reported `revents` on its fd, or
  /// times it out when `revents` is 0 and expires_us() has passed. Each
  /// socket operation consults FaultInjector::Net() once.
  void Advance(Exchange* exchange, short revents) const;

  /// Sends `line` and returns the raw response text up to and excluding the
  /// ".\n" terminator. kIoError on any transport failure, kDeadlineExceeded
  /// on a timeout; `deadline_seconds` as in Begin.
  Result<std::string> RoundTrip(const BackendAddress& addr,
                                const std::string& line,
                                double deadline_seconds = 0) const;

  /// Sends a query verb line and parses the framed reply. The outer Result
  /// is the transport layer; reply.status is the backend's verdict.
  Result<BackendReply> Query(const BackendAddress& addr,
                             const std::string& line,
                             double deadline_seconds = 0) const;

  /// STATS round trip, parsed into the freshness gauges the replica-pick
  /// policy needs. Doubles as the health probe: an error means the backend
  /// is unreachable.
  Result<BackendFreshness> ProbeStats(const BackendAddress& addr) const;

  struct PoolStats {
    uint64_t connects = 0;       ///< fresh TCP connects
    uint64_t reuses = 0;         ///< round trips served by a pooled connection
    uint64_t discards_idle = 0;  ///< pooled connections dropped as too idle
    uint64_t retries_stale = 0;  ///< reused connections found dead, retried
    uint64_t open = 0;           ///< connections sitting in the pool now
  };
  PoolStats pool_stats() const;

 private:
  struct PooledConn {
    int fd = -1;
    int64_t last_used_us = 0;
  };

  /// Pops a pooled connection for `key`, discarding idle-expired ones;
  /// -1 when the pool has none.
  int AcquirePooled(const std::string& key) const;
  /// Returns a healthy connection to the pool (bounded per backend; the
  /// oldest connection is closed when full).
  void ReleasePooled(const std::string& key, int fd) const;

  /// Exchange steps: dial, write what the socket takes, read what arrived.
  void StartConnect(Exchange* exchange) const;
  void TrySend(Exchange* exchange) const;
  void TryRecv(Exchange* exchange) const;
  /// Restarts the wait clock after progress.
  void Arm(Exchange* exchange) const;
  /// Ends the exchange with `status` (closing its connection) — unless the
  /// failure is a reused connection that never produced a byte, which is
  /// retried once on a fresh connection instead.
  void Fail(Exchange* exchange, Status status, bool stale_retry) const;

  double timeout_seconds_;
  double idle_timeout_seconds_;

  // The pool is logically an optimization invisible to callers, so the
  // round-trip methods stay const.
  mutable std::mutex pool_mu_;
  mutable std::map<std::string, std::vector<PooledConn>> pool_;
  mutable std::atomic<uint64_t> connects_{0};
  mutable std::atomic<uint64_t> reuses_{0};
  mutable std::atomic<uint64_t> discards_idle_{0};
  mutable std::atomic<uint64_t> retries_stale_{0};
};

/// Milliseconds poll() should wait to wake at steady-clock microsecond
/// `wake_us` (0 = no wake-up: -1, wait forever); rounded up so the wake
/// never comes early.
int PollTimeoutMs(int64_t wake_us);

/// Steady-clock microseconds, the clock of Exchange::expires_us().
int64_t SteadyNowMicros();

/// Parses the header line of a backend response ("OK <count>
/// <checksum-hex> <token> trace=<id>" or "ERR <CodeName> <message>") into
/// `reply` and returns the offset where the body rows begin.
size_t ParseBackendHeader(std::string_view response, BackendReply* reply);

/// Parses "OK <count> <checksum-hex> <token> trace=<id>" + body rows or
/// "ERR <CodeName> <message>" into a BackendReply. Exposed for tests.
BackendReply ParseBackendReply(const std::string& response);

}  // namespace router
}  // namespace cure

#endif  // CURE_ROUTER_BACKEND_CLIENT_H_
