// cure_serve — TCP line-protocol server over a persisted CURE cube
// directory (as written by `cure_tool build`).
//
//   cure_serve <cubedir> [--port P] [--threads N] [--cache-mb M]
//              [--no-semantic] [--semantic-min-rows N] [--max-inflight N]
//              [--deadline-ms D] [--slow-ms D] [--live] [--wal PATH]
//              [--refresh-rows N] [--refresh-ms D] [--no-delta]
//
// With --cache-mb > 0 the result cache also answers queries semantically —
// deriving them from cached results of more detailed nodes via the
// containment algebra (DESIGN.md §15); --no-semantic degrades it to the
// plain exact-key cache. --semantic-min-rows tunes the derivation cost
// gate (the engine scan estimate below which a probe is skipped); 0
// disables the gate — useful on small cubes where derivation always wins.
//
// Binds 127.0.0.1 (port 0 = ephemeral, printed on startup) and serves until
// stdin closes. Protocol: see serve/tcp_server.h.
//
// Observability: the METRICS verb returns Prometheus text exposition
// (including `# BUCKETS` histogram lines for the router's cluster
// federation); --slow-ms logs queries slower than the threshold with a
// per-stage breakdown AND records them into a bounded ring dumped by the
// SLOWLOG verb; a `profile=1` request token attaches a
// "% profile ..." stage breakdown (queue wait, key, cache, execute,
// encode) to that reply; CURE_TRACE=1 + CURE_TRACE_OUT=<file>.json records
// spans for every request and writes a Chrome trace at exit.
//
// --live turns on live maintenance: the fact table is loaded into memory,
// the delta WAL (default <cubedir>/wal.bin) is replayed, a fresh cube is
// built, and the APPEND/FLUSH verbs become available. Appends are durable
// (fsynced) on OK and folded into the served cube by background refreshes
// with zero downtime. --refresh-rows/--refresh-ms tune the refresh
// triggers; --no-delta forces every refresh down the staged-rebuild path.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/trace.h"
#include "tool_common.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: cure_serve <cubedir> [--port P] [--threads N] "
               "[--cache-mb M] [--no-semantic] [--semantic-min-rows N]\n"
               "                 [--max-inflight N] [--deadline-ms D] "
               "[--slow-ms D] [--live] [--wal PATH] [--refresh-rows N] "
               "[--refresh-ms D] [--no-delta]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  cure::Tracer::ArmFromEnv();
  const std::string dir = argv[1];
  cure::serve::CubeServerOptions server_options;
  cure::serve::TcpServerOptions tcp_options;
  cure::maintain::MaintainOptions maintain_options;
  bool live = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      tcp_options.port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      server_options.num_threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--cache-mb") == 0 && i + 1 < argc) {
      server_options.cache_bytes = std::strtoull(argv[++i], nullptr, 10) << 20;
    } else if (std::strcmp(argv[i], "--no-semantic") == 0) {
      server_options.semantic_cache = false;
    } else if (std::strcmp(argv[i], "--semantic-min-rows") == 0 &&
               i + 1 < argc) {
      server_options.semantic_min_scan_rows =
          std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--max-inflight") == 0 && i + 1 < argc) {
      server_options.max_inflight = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      server_options.default_deadline_seconds = std::atof(argv[++i]) / 1000.0;
    } else if (std::strcmp(argv[i], "--slow-ms") == 0 && i + 1 < argc) {
      server_options.slow_query_seconds = std::atof(argv[++i]) / 1000.0;
    } else if (std::strcmp(argv[i], "--live") == 0) {
      live = true;
    } else if (std::strcmp(argv[i], "--wal") == 0 && i + 1 < argc) {
      maintain_options.wal_path = argv[++i];
    } else if (std::strcmp(argv[i], "--refresh-rows") == 0 && i + 1 < argc) {
      maintain_options.refresh_rows = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--refresh-ms") == 0 && i + 1 < argc) {
      maintain_options.refresh_seconds = std::atof(argv[++i]) / 1000.0;
    } else if (std::strcmp(argv[i], "--no-delta") == 0) {
      maintain_options.allow_delta = false;
    } else {
      return Usage();
    }
  }

  if (live) {
    cure::Result<std::unique_ptr<cure::tools::OpenedLiveCube>> opened =
        cure::tools::OpenLiveCubeDir(dir, maintain_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "error: %s\n", opened.status().ToString().c_str());
      return 1;
    }
    return cure::tools::RunLiveServeLoop(opened->get(), server_options,
                                         tcp_options);
  }
  cure::Result<std::unique_ptr<cure::tools::OpenedCube>> opened =
      cure::tools::OpenCubeDir(dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  return cure::tools::RunServeLoop(opened->get(), server_options, tcp_options);
}
