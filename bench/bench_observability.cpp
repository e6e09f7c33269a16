// bench_observability — measures what the observability layer costs:
//
//   1. the disabled fast path: ns per unarmed TraceSpan (one relaxed
//      atomic load — the price every instrumented call site pays forever)
//   2. a Zipf cube build with tracing off vs on
//   3. a CubeServer::Execute workload with tracing off vs on
//   4. the `profile=1` request token on the line protocol: queries with no
//      token (the disarmed per-request profiler — a token scan plus one
//      relaxed Tracer::enabled() load) vs queries that ask for the
//      "% profile" stage breakdown
//
// The enabled-mode run's trace is exported and validated with the in-tree
// Chrome-trace checker (the same one behind `cure_tool tracecheck`).
// DESIGN.md §12's budget: disabled tracing must cost <2% of build/serve
// throughput; this bench is how that number is kept honest.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/trace.h"
#include "query/workload.h"
#include "serve/cube_server.h"
#include "serve/tcp_server.h"

using namespace cure;         // NOLINT
using namespace cure::bench;  // NOLINT

namespace {

double MeasureBuild(const gen::Dataset& ds, bool trace) {
  Tracer::Instance().Disable();
  if (trace) Tracer::Instance().Enable();
  engine::FactInput input{.table = &ds.table};
  engine::CureOptions options;
  options.trace = trace;
  auto cube = engine::BuildCure(ds.schema, input, options);
  CURE_CHECK(cube.ok()) << cube.status().ToString();
  return (*cube)->stats().build_seconds;
}

/// Renders a node id as the line protocol's spec ("A_L1,B_L0" / "ALL").
std::string NodeSpec(const schema::CubeSchema& schema,
                     const schema::NodeIdCodec& codec, schema::NodeId id) {
  const std::vector<int> levels = codec.Decode(id);
  std::string spec;
  for (size_t d = 0; d < levels.size(); ++d) {
    if (levels[d] == schema.dim(static_cast<int>(d)).all_level()) continue;
    if (!spec.empty()) spec += ',';
    spec += schema.dim(static_cast<int>(d)).level(levels[d]).name;
  }
  return spec.empty() ? "ALL" : spec;
}

}  // namespace

int main() {
  PrintHeader("Observability overhead (tracing disabled vs enabled)");

  // 1. The disabled fast path: what every instrumented call site costs when
  // no one is tracing.
  {
    Tracer::Instance().Disable();
    constexpr int kIters = 5000000;
    Stopwatch watch;
    for (int i = 0; i < kIters; ++i) {
      CURE_TRACE_SPAN("cure.bench.noop", "i", static_cast<uint64_t>(i));
    }
    std::printf("disabled span fast path: %.2f ns/span (%d spans)\n",
                watch.ElapsedSeconds() * 1e9 / kIters, kIters);
  }

  gen::SyntheticSpec spec;
  spec.num_dims = 5;
  spec.num_tuples = static_cast<uint64_t>(400000 / ScaleEnv(4));
  spec.zipf = 0.8;
  const gen::Dataset ds = gen::MakeSynthetic(spec);

  // 2. Build overhead. The enabled run records per-stage, per-partition and
  // per-edge spans into the ring buffers (kept for the export below).
  PrintSubHeader("build: " + std::to_string(spec.num_tuples) + " Zipf tuples, " +
                 std::to_string(spec.num_dims) + " dims");
  Tracer::Instance().Reset();
  const double build_off = MeasureBuild(ds, /*trace=*/false);
  const double build_on = MeasureBuild(ds, /*trace=*/true);
  std::printf("%-22s %10.3f s\n", "tracing disabled", build_off);
  std::printf("%-22s %10.3f s  (%+.1f%%, %llu events, %llu dropped)\n",
              "tracing enabled", build_on,
              build_off > 0 ? (build_on / build_off - 1.0) * 100.0 : 0.0,
              static_cast<unsigned long long>(
                  Tracer::Instance().recorded_events()),
              static_cast<unsigned long long>(
                  Tracer::Instance().dropped_events()));

  // 3. Serve overhead: the full Execute path (admission counters, cache
  // lookup, per-stage checkpoints, spans) against an in-memory cube.
  Tracer::Instance().Disable();
  engine::FactInput input{.table = &ds.table};
  auto cube = engine::BuildCure(ds.schema, input, engine::CureOptions());
  CURE_CHECK(cube.ok());
  serve::CubeServerOptions server_options;
  server_options.cache_bytes = 0;
  auto server = serve::CubeServer::Create(cube->get(), server_options);
  CURE_CHECK(server.ok()) << server.status().ToString();
  const schema::NodeIdCodec codec((*cube)->schema());
  const std::vector<schema::NodeId> workload = query::RandomNodeWorkload(
      codec, static_cast<size_t>(QueriesEnv(256)), /*seed=*/23,
      /*unique=*/true);

  PrintSubHeader("serve: " + std::to_string(workload.size()) +
                 " unique node queries per pass");
  const int kPasses = 4;
  double qps_off = 0, qps_on = 0;
  for (const bool trace : {false, true}) {
    if (trace) Tracer::Instance().Enable();
    // Warm-up pass, then timed passes.
    for (schema::NodeId node : workload) {
      serve::QueryRequest request;
      request.node = node;
      CURE_CHECK((*server)->Execute(request).status.ok());
    }
    Stopwatch watch;
    uint64_t queries = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (schema::NodeId node : workload) {
        serve::QueryRequest request;
        request.node = node;
        const serve::QueryResponse response = (*server)->Execute(request);
        CURE_CHECK(response.status.ok()) << response.status.ToString();
        ++queries;
      }
    }
    const double qps = queries / watch.ElapsedSeconds();
    (trace ? qps_on : qps_off) = qps;
    std::printf("%-22s %10.0f qps\n",
                trace ? "tracing enabled" : "tracing disabled", qps);
  }
  if (qps_off > 0) {
    std::printf("enabled-tracing overhead: %+.1f%% qps\n",
                (1.0 - qps_on / qps_off) * 100.0);
  }

  // 4. The per-request profiler's switch: the same workload through the
  // line protocol with and without the `profile=1` token, tracer off as in
  // production. The no-token side is the disarmed path every routed query
  // pays (token scan + one relaxed Tracer::enabled() load); the armed side
  // adds the "% profile" stage-breakdown rendering.
  {
    auto tcp =
        serve::TcpLineServer::Start(server->get(), serve::LineTransportOptions{});
    CURE_CHECK(tcp.ok()) << tcp.status().ToString();
    std::vector<std::string> plain;
    std::vector<std::string> profiled;
    for (schema::NodeId node : workload) {
      const std::string spec = NodeSpec(ds.schema, codec, node);
      plain.push_back("QUERY " + spec);
      profiled.push_back("QUERY " + spec + " profile=1");
    }
    PrintSubHeader("profile token: " + std::to_string(workload.size()) +
                   " unique node queries per pass (tracer off)");
    double qps_plain = 0, qps_profiled = 0;
    for (const bool profile : {false, true}) {
      const std::vector<std::string>& request_lines = profile ? profiled : plain;
      for (const std::string& line : request_lines) {  // warm-up
        CURE_CHECK((*tcp)->HandleLine(line).rfind("OK", 0) == 0);
      }
      Stopwatch watch;
      uint64_t queries = 0;
      for (int pass = 0; pass < kPasses; ++pass) {
        for (const std::string& line : request_lines) {
          const std::string response = (*tcp)->HandleLine(line);
          CURE_CHECK(response.rfind("OK", 0) == 0) << response;
          ++queries;
        }
      }
      const double qps = queries / watch.ElapsedSeconds();
      (profile ? qps_profiled : qps_plain) = qps;
      std::printf("%-22s %10.0f qps\n",
                  profile ? "profile=1" : "no profile token", qps);
    }
    if (qps_plain > 0) {
      std::printf("profile-armed overhead: %+.1f%% qps\n",
                  (1.0 - qps_profiled / qps_plain) * 100.0);
    }
    (*tcp)->Stop();
  }

  // 5. Export the build+serve trace and hold it to the same bar CI does.
  Tracer::Instance().Disable();
  const ScopedBenchDir dir("observability");
  const std::string path = dir.File("trace.json");
  CURE_CHECK_OK(Tracer::Instance().WriteChromeTrace(path));
  ChromeTraceSummary summary;
  CURE_CHECK_OK(ValidateChromeTraceFile(path, &summary));
  std::printf("\ntrace export: %llu events (%llu spans) across %llu names — "
              "valid Chrome trace JSON\n",
              static_cast<unsigned long long>(summary.total_events),
              static_cast<unsigned long long>(summary.complete_events),
              static_cast<unsigned long long>(summary.names.size()));
  CURE_CHECK(summary.Contains("cure.build.run"));
  CURE_CHECK(summary.Contains("cure.serve.query"));
  Tracer::Instance().Reset();

  std::printf(
      "\nShape check: the disabled fast path is a few ns per call site and "
      "disabled-mode build/serve throughput is within noise (<2%%) of an "
      "uninstrumented binary; enabled tracing costs single-digit percent on "
      "the serve path and more on the build path (per-edge spans). The "
      "disarmed profile token costs nothing measurable per request; armed, "
      "it pays only the \"%% profile\" rendering.\n");
  return 0;
}
