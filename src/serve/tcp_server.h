#ifndef CURE_SERVE_TCP_SERVER_H_
#define CURE_SERVE_TCP_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/cube_server.h"
#include "serve/line_transport.h"
#include "serve/protocol.h"

namespace cure {
namespace serve {

/// Minimal TCP line-protocol front end over a CubeServer, running on the
/// shared LineTransport. Every query line is dispatched through
/// CubeServer::Submit, so the protocol path exercises the same pool, cache,
/// admission control and metrics as embedded use.
///
/// One command per line; responses end with a lone "." line. The query
/// verbs (QUERY, ICEBERG, SLICE, ROLLUP, DRILL, TOPK, BATCH) and their
/// control tokens follow the one request grammar of ParseRequest
/// (protocol.h); this tier resolves slice values through its dictionary
/// and adds:
///   APPEND <int>...                   live mode: append k rows, each row
///                                     D leaf codes then M measures; durable
///                                     (WAL-fsynced) on OK. Response:
///                                     "OK <rows> <pending-rows>"
///   FLUSH                             live mode: synchronous refresh.
///                                     Response: "OK <version> <applied>
///                                     <DELTA|REBUILD|NOOP>"
///   STATS                             metrics text dump
///   METRICS                           Prometheus text exposition
///   SLOWLOG                           flight recorder: the last N
///                                     over-threshold query profiles
///                                     (newest first; see --slow-ms)
///   QUIT                              closes the connection
/// Query responses: "OK <count> <checksum-hex> <HIT|SEMANTIC|MISS>
/// trace=<id>" then one tab-separated row per line; SEMANTIC marks a result
/// derived from a cached ancestor by the containment algebra (bit-identical
/// to the engine path). BATCH answers "OK <n> <xor-of-section-checksums-hex>
/// BATCH trace=<id>" and executes its members most-detailed-first, so
/// coarser members can be answered semantically from earlier ones; each
/// section header ends in that member's HIT|SEMANTIC|MISS. With
/// `profile=1` a profile section follows the rows: one "% profile ..." line
/// with the per-stage breakdown in microseconds
/// (queue_wait/key/cache/execute/encode/total), then — when the tracer is
/// armed — one "% span name=<n> ts_us=<t> dur_us=<d>" line per recorded
/// span tagged with the request's trace id (DESIGN.md §17). Errors:
/// "ERR <CodeName> <message>".
class TcpLineServer {
 public:
  using ValueDecoder = serve::ValueDecoder;

  /// Binds 127.0.0.1:<port> and starts the accept loop. `server` must
  /// outlive the returned instance. Queries inside a connection are further
  /// bounded by the CubeServer's admission control.
  static Result<std::unique_ptr<TcpLineServer>> Start(
      CubeServer* server, const LineTransportOptions& options,
      ValueDecoder decoder = nullptr, SliceValueResolver resolver = nullptr);

  /// Implies Stop().
  ~TcpLineServer();

  TcpLineServer(const TcpLineServer&) = delete;
  TcpLineServer& operator=(const TcpLineServer&) = delete;

  /// The bound port (resolves ephemeral port 0).
  int port() const { return transport_->port(); }

  /// Open client connections, one serving thread each.
  int active_connections() const { return transport_->active_connections(); }

  /// Closes the listener and every connection, then joins all threads.
  /// Idempotent.
  void Stop();

  /// Executes one protocol line and returns the full response (including
  /// the terminating ".\n"). Public for protocol-level tests; thread-safe.
  std::string HandleLine(const std::string& line);

 private:
  TcpLineServer(CubeServer* server, ValueDecoder decoder,
                SliceValueResolver resolver)
      : server_(server),
        decoder_(std::move(decoder)),
        resolver_(std::move(resolver)) {}

  std::string FormatQueryResponse(schema::NodeId node,
                                  const QueryResponse& response,
                                  const std::string& extra_token,
                                  bool profile, bool codes) const;
  /// Tab-separated result rows (no header/terminator), dictionary-decoded
  /// unless the request asked for raw `codes`.
  void AppendRows(schema::NodeId node, const algebra::QueryResult& result,
                  bool codes, std::string* out) const;
  /// One "% profile ..." line (plus "% span ..." lines when the tracer is
  /// armed) for a finished query; `encode_us` is the row-formatting time,
  /// `node_label` tags BATCH members ("" elsewhere).
  std::string FormatProfileSection(const QueryResponse& response,
                                   int64_t encode_us,
                                   const std::string& node_label) const;
  std::string ExecuteBatch(const Request& batch);

  CubeServer* server_;
  ValueDecoder decoder_;
  SliceValueResolver resolver_;
  std::unique_ptr<LineTransport> transport_;
};

}  // namespace serve
}  // namespace cure

#endif  // CURE_SERVE_TCP_SERVER_H_
