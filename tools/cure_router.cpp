// cure_router — sharded, replicated scatter–gather front end over
// cure_serve backends.
//
//   cure_router <routerdir> [--map FILE] [--shard host:port[,host:port]]...
//               [--port P] [--timeout-ms D] [--health-ms D]
//               [--hedge-ms D] [--retry-budget N] [--allow-partial]
//               [--breaker-threshold N] [--breaker-cooldown-ms D]
//               [--slow-ms D]
//
// <routerdir> is a cluster directory written by `cure_tool shard`: it holds
// schema.txt, the shared dictionaries and cluster.txt (the shard map; see
// router/shard_map.h for the format). --map overrides the map file path;
// --shard (one flag per shard, replicas comma-separated) overrides the map
// entirely — its port numbers must match the cure_serve processes serving
// <routerdir>/shard_<k>.
//
// Binds 127.0.0.1 (port 0 = ephemeral, printed on startup), speaks the same
// line protocol as cure_serve (QUERY/ICEBERG/SLICE/STATS/METRICS plus
// HEALTH), and serves until stdin closes. Each query is scattered to one
// replica per shard and the partial relations are re-aggregated; results —
// rows and the order-independent checksum — are identical to a single
// cure_serve over the unpartitioned cube. Replica pick is staleness-aware
// (STATS gauges); IOError fails over, DataLoss ejects. CURE_TRACE=1 records
// router spans sharing the trace id echoed by the backends.
//
// Fault tolerance: --hedge-ms sends a second request to another replica
// when the first is still unanswered after D ms (first answer wins);
// --retry-budget caps relaunches per shard per request; --allow-partial
// answers from the surviving shards with a "PARTIAL shards=<k>/<n>" header
// token when some shards are down (strict ERR otherwise). A client
// `deadline=<ms>` token bounds the whole request; retries spend the one
// budget. CURE_NET_FAULT=op=...;kind=... arms the deterministic network
// fault injector for chaos drills (see src/common/fault_injection.h);
// a malformed spec exits 2 without arming.
//
// Observability: PROFILE <cmd>... re-runs the wrapped query with profiling
// armed on every backend and answers with the cluster profile (per-shard
// attempt log + backend stage breakdowns; see DESIGN.md §17); METRICS
// cluster federates every replica's Prometheus exposition with
// shard/replica labels; --slow-ms D records queries slower than D ms into
// a bounded ring dumped by SLOWLOG.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/fault_injection.h"
#include "common/trace.h"
#include "router/router.h"
#include "serve/line_transport.h"
#include "tool_common.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: cure_router <routerdir> [--map FILE] "
               "[--shard host:port[,host:port]]...\n"
               "                   [--port P] [--timeout-ms D] "
               "[--health-ms D]\n"
               "                   [--hedge-ms D] [--retry-budget N] "
               "[--allow-partial]\n"
               "                   [--breaker-threshold N] "
               "[--breaker-cooldown-ms D] [--slow-ms D]\n");
  return 2;
}

cure::Result<std::vector<cure::router::BackendAddress>> ParseReplicaList(
    const std::string& spec) {
  std::vector<cure::router::BackendAddress> replicas;
  size_t start = 0;
  while (start <= spec.size()) {
    const size_t comma = spec.find(',', start);
    const std::string one = spec.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    CURE_ASSIGN_OR_RETURN(cure::router::BackendAddress addr,
                          cure::router::ParseBackendAddress(one));
    replicas.push_back(std::move(addr));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return replicas;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  cure::Tracer::ArmFromEnv();
  const std::string dir = argv[1];
  std::string map_path = dir + "/cluster.txt";
  cure::router::ShardMap map;
  bool map_from_flags = false;
  cure::router::RouterOptions options;
  options.health_period_seconds = 2.0;  // --health-ms 0 disables
  int port = 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--map") == 0 && i + 1 < argc) {
      map_path = argv[++i];
    } else if (std::strcmp(argv[i], "--shard") == 0 && i + 1 < argc) {
      auto replicas = ParseReplicaList(argv[++i]);
      if (!replicas.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     replicas.status().ToString().c_str());
        return 1;
      }
      map.shards.push_back(std::move(replicas).value());
      map_from_flags = true;
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0 && i + 1 < argc) {
      options.backend_timeout_seconds = std::atof(argv[++i]) / 1000.0;
    } else if (std::strcmp(argv[i], "--health-ms") == 0 && i + 1 < argc) {
      options.health_period_seconds = std::atof(argv[++i]) / 1000.0;
    } else if (std::strcmp(argv[i], "--hedge-ms") == 0 && i + 1 < argc) {
      options.hedge_seconds = std::atof(argv[++i]) / 1000.0;
    } else if (std::strcmp(argv[i], "--retry-budget") == 0 && i + 1 < argc) {
      options.retry_budget = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--allow-partial") == 0) {
      options.allow_partial = true;
    } else if (std::strcmp(argv[i], "--breaker-threshold") == 0 &&
               i + 1 < argc) {
      options.breaker_failure_threshold = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--breaker-cooldown-ms") == 0 &&
               i + 1 < argc) {
      options.breaker_cooldown_seconds = std::atof(argv[++i]) / 1000.0;
    } else if (std::strcmp(argv[i], "--slow-ms") == 0 && i + 1 < argc) {
      options.slow_query_seconds = std::atof(argv[++i]) / 1000.0;
    } else {
      return Usage();
    }
  }
  const char* fault_spec = std::getenv("CURE_NET_FAULT");
  if (fault_spec != nullptr && fault_spec[0] != '\0') {
    cure::Result<cure::FaultPlan> plan = cure::ParseNetFaultSpec(fault_spec);
    if (!plan.ok()) {
      std::fprintf(stderr, "error: %s\n", plan.status().ToString().c_str());
      return 2;
    }
    cure::FaultInjector::Net().Arm(plan.value());
    std::fprintf(stderr, "network fault injector armed from CURE_NET_FAULT\n");
  }

  cure::Result<std::string> schema_text =
      cure::etl::ReadFileToString(dir + "/schema.txt");
  if (!schema_text.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 schema_text.status().ToString().c_str());
    return 1;
  }
  cure::Result<cure::schema::CubeSchema> schema =
      cure::etl::DeserializeSchema(schema_text.value());
  if (!schema.ok()) {
    std::fprintf(stderr, "error: %s\n", schema.status().ToString().c_str());
    return 1;
  }

  if (!map_from_flags) {
    cure::Result<std::string> map_text =
        cure::etl::ReadFileToString(map_path);
    if (!map_text.ok()) {
      std::fprintf(stderr, "error: %s\n", map_text.status().ToString().c_str());
      return 1;
    }
    cure::Result<cure::router::ShardMap> parsed =
        cure::router::ShardMap::Parse(map_text.value());
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
      return 1;
    }
    map = std::move(parsed).value();
  }

  // Dictionaries are optional: a cube built without string dimensions has
  // none, and codes then reach the client numerically. Backends always
  // answer the router in codes (`codes=1`); only the client reply decodes.
  cure::router::CureRouter::ValueDecoder decoder = nullptr;
  cure::Result<std::vector<std::vector<cure::etl::Dictionary>>> dicts =
      cure::tools::LoadDictionaries(dir, schema.value());
  std::vector<std::vector<cure::etl::Dictionary>> dictionaries;
  if (dicts.ok()) {
    dictionaries = std::move(dicts).value();
    decoder = [&dictionaries](int d, int l, uint32_t code) -> std::string {
      const cure::etl::Dictionary& dict = dictionaries[d][l];
      if (code < dict.size()) return dict.Decode(code);
      return std::to_string(code);
    };
  }

  cure::Result<std::unique_ptr<cure::router::CureRouter>> router =
      cure::router::CureRouter::Create(&schema.value(), std::move(map), options,
                                       std::move(decoder));
  if (!router.ok()) {
    std::fprintf(stderr, "error: %s\n", router.status().ToString().c_str());
    return 1;
  }

  cure::serve::LineTransportOptions transport_options;
  transport_options.port = port;
  cure::Result<std::unique_ptr<cure::serve::LineTransport>> transport =
      cure::serve::LineTransport::Start(
          [raw = router->get()](const std::string& line) {
            return raw->HandleLine(line);
          },
          transport_options);
  if (!transport.ok()) {
    std::fprintf(stderr, "error: %s\n", transport.status().ToString().c_str());
    return 1;
  }

  const cure::router::ShardMap& served = (*router)->shard_map();
  std::printf("routing on 127.0.0.1:%d (%d shards", (*transport)->port(),
              served.num_shards());
  for (int s = 0; s < served.num_shards(); ++s) {
    std::printf("%s%d replicas", s == 0 ? ": " : ", ", served.num_replicas(s));
  }
  std::printf(")\n");
  std::printf(
      "commands: QUERY <node> | ICEBERG <node> <minsup> | "
      "SLICE <node> <level=value>... [MINSUP n] | PROFILE <cmd>... | "
      "STATS | METRICS [cluster] | SLOWLOG | HEALTH | QUIT\n");
  std::fflush(stdout);
  char line[256];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    if (std::string(line) == "quit\n" || std::string(line) == "quit") break;
  }
  (*transport)->Stop();
  std::printf("--- final stats ---\n%s", (*router)->StatsText().c_str());
  return 0;
}
