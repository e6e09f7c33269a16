// Semantic result cache on analyst drill-down sessions (DESIGN.md §15).
//
// Replays the same deterministic drill-down/narrow/roll-up session traces
// (query::DrillDownSessions) against three configurations of the serving
// layer over one cube:
//
//   cache-off  — every query executes in the engine (the correctness
//                reference: all other configs must reproduce its counts
//                and checksums bit for bit);
//   exact-only — the sharded LRU keyed on the canonical query form, no
//                derivation (--no-semantic);
//   semantic   — exact layer plus containment-driven roll-up derivation
//                from cached descendants.
//
// Reported per config: hit rates (exact / semantic / combined), latency
// p50/p99, and derivation volume. The run aborts if any configuration
// diverges from the reference results, or if the semantic cache fails to
// beat the exact-only cache on combined hit rate and p50 — the two claims
// EXPERIMENTS.md makes for this subsystem.

#include <algorithm>
#include <cinttypes>
#include <vector>

#include "bench/bench_util.h"
#include "gen/random.h"
#include "gen/zipf.h"
#include "query/workload.h"
#include "serve/cube_server.h"
#include "storage/file_io.h"
#include "storage/relation.h"

using namespace cure;         // NOLINT
using namespace cure::bench;  // NOLINT

namespace {

/// Hierarchical Zipf-skewed dataset: three hierarchies plus a flat
/// dimension, SUM + COUNT aggregates — the navigation shape drill-down
/// sessions need.
gen::Dataset MakeSessionDataset(uint64_t tuples, uint64_t seed) {
  gen::Dataset ds;
  ds.name = "drill-zipf";
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Linear("A", {48, 12, 3}));
  dims.push_back(schema::Dimension::Linear("B", {20, 5}));
  dims.push_back(schema::Dimension::Linear("C", {12, 4}));
  dims.push_back(schema::Dimension::Flat("D", 6));
  auto schema = schema::CubeSchema::Create(
      std::move(dims), 1,
      {{schema::AggFn::kSum, 0, "s"}, {schema::AggFn::kCount, 0, "c"}});
  CURE_CHECK(schema.ok()) << schema.status().ToString();
  ds.schema = std::move(schema).value();
  ds.table = schema::FactTable(4, 1);
  gen::Rng rng(seed);
  gen::ZipfSampler za(48, 1.1), zb(20, 0.9), zc(12, 0.8), zd(6, 0.5);
  for (uint64_t t = 0; t < tuples; ++t) {
    const uint32_t row[4] = {za.Sample(&rng), zb.Sample(&rng), zc.Sample(&rng),
                             zd.Sample(&rng)};
    const int64_t m = static_cast<int64_t>(rng.NextRange(1000));
    ds.table.AppendRow(row, &m);
  }
  return ds;
}

struct ReplayResult {
  std::string label;
  std::vector<std::pair<uint64_t, uint64_t>> outcomes;  // (count, checksum)
  uint64_t queries = 0;
  uint64_t exact_hits = 0;
  uint64_t semantic_hits = 0;
  uint64_t rollup_rows = 0;
  uint64_t derived_rows = 0;
  double p50_us = 0;
  double p99_us = 0;
  double total_seconds = 0;

  double combined_hit_rate() const {
    return queries > 0
               ? static_cast<double>(exact_hits + semantic_hits) / queries
               : 0;
  }
};

ReplayResult Replay(const std::string& label, const engine::CureCube* cube,
                    const std::vector<query::DrillSession>& sessions,
                    uint64_t cache_bytes, bool semantic) {
  serve::CubeServerOptions options;
  options.num_threads = 2;
  options.cache_bytes = cache_bytes;
  options.semantic_cache = semantic;
  // The paper's disk-resident setting (identical in every config): engine
  // queries dereference row-ids through a partially cached fact table,
  // derivations scan cached result rows without touching storage.
  options.fact_cache_fraction = 0.25;
  auto server = serve::CubeServer::Create(cube, options);
  CURE_CHECK(server.ok()) << server.status().ToString();

  ReplayResult out;
  out.label = label;
  // Exact samples, not LogHistogram: the p50 claim gate compares configs a
  // few microseconds apart, inside one log bucket.
  std::vector<uint64_t> latency_us;
  const bool debug = EnvInt64("CURE_BENCH_DEBUG", 0) != 0;
  Stopwatch total;
  for (const query::DrillSession& session : sessions) {
    for (const query::DrillStep& step : session) {
      serve::QueryRequest request;
      request.node = step.node;
      request.slices = step.slices;
      Stopwatch watch;
      const serve::QueryResponse response = (*server)->Execute(request);
      latency_us.push_back(watch.ElapsedMicros());
      CURE_CHECK(response.status.ok()) << response.status.ToString();
      if (debug) {
        std::printf("dbg %-10s node=%llu slices=%zu rows=%llu us=%llu hit=%d sem=%d\n",
                    label.c_str(), (unsigned long long)step.node,
                    step.slices.size(), (unsigned long long)response.count,
                    (unsigned long long)watch.ElapsedMicros(),
                    response.cache_hit, response.semantic_hit);
      }
      out.outcomes.emplace_back(response.count, response.checksum);
      ++out.queries;
    }
  }
  out.total_seconds = total.ElapsedSeconds();
  out.exact_hits = (*server)->cache()->stats().hits;
  const algebra::SemanticCache::Stats semantic_stats =
      (*server)->semantic_cache()->stats();
  out.semantic_hits = semantic_stats.semantic_hits;
  out.rollup_rows = semantic_stats.rollup_rows;
  out.derived_rows = semantic_stats.derived_rows;
  std::sort(latency_us.begin(), latency_us.end());
  if (!latency_us.empty()) {
    out.p50_us = static_cast<double>(latency_us[latency_us.size() / 2]);
    out.p99_us =
        static_cast<double>(latency_us[latency_us.size() * 99 / 100]);
  }
  return out;
}

void PrintRow(const ReplayResult& r) {
  std::printf("%-12s %8" PRIu64 " %10.1f%% %10" PRIu64 " %10" PRIu64
              " %9.0f %9.0f %9.3f s\n",
              r.label.c_str(), r.queries, 100.0 * r.combined_hit_rate(),
              r.exact_hits, r.semantic_hits, r.p50_us, r.p99_us,
              r.total_seconds);
}

}  // namespace

int main() {
  PrintHeader("Semantic result cache — drill-down session replay");
  const uint64_t divisor = static_cast<uint64_t>(ScaleEnv(4));
  const uint64_t tuples = 800000 / (divisor > 0 ? divisor : 1);
  const size_t steps_per_session = 24;
  const size_t num_queries = static_cast<size_t>(QueriesEnv(768));
  const size_t num_sessions =
      (num_queries + steps_per_session - 1) / steps_per_session;

  gen::Dataset ds = MakeSessionDataset(tuples, /*seed=*/101);
  // Disk-resident fact table and cube store, as in the paper's setting.
  const std::string path = "/tmp/cure_bench_semantic.bin";
  auto rel = storage::Relation::CreateFile(path, ds.table.RecordSize());
  CURE_CHECK(rel.ok()) << rel.status().ToString();
  CURE_CHECK_OK(ds.table.WriteTo(&rel.value()));
  CURE_CHECK_OK(rel->Seal());
  engine::FactInput input{.relation = &rel.value()};
  auto cube = engine::BuildCure(ds.schema, input, engine::CureOptions{});
  CURE_CHECK(cube.ok()) << cube.status().ToString();
  SpillCure(cube->get(), path + ".cure");

  const std::vector<query::DrillSession> sessions =
      query::DrillDownSessions(ds.schema, num_sessions, steps_per_session,
                               /*seed=*/202);

  PrintSubHeader(std::to_string(tuples) + " tuples, " +
                 std::to_string(num_sessions) + " sessions x " +
                 std::to_string(steps_per_session) + " steps");
  constexpr uint64_t kCacheBytes = 64ull << 20;
  const ReplayResult off =
      Replay("cache-off", cube->get(), sessions, 0, false);
  const ReplayResult exact =
      Replay("exact-only", cube->get(), sessions, kCacheBytes, false);
  const ReplayResult semantic =
      Replay("semantic", cube->get(), sessions, kCacheBytes, true);

  std::printf("%-12s %8s %11s %10s %10s %9s %9s %11s\n", "config", "queries",
              "hit-rate", "exact", "semantic", "p50_us", "p99_us", "total");
  PrintRow(off);
  PrintRow(exact);
  PrintRow(semantic);
  std::printf("derivation volume: %" PRIu64 " cached rows scanned -> %" PRIu64
              " derived rows\n",
              semantic.rollup_rows, semantic.derived_rows);

  // Correctness gate: every cached configuration reproduces the engine-only
  // reference bit for bit (count + order-independent checksum, per step).
  CURE_CHECK(exact.outcomes == off.outcomes)
      << "exact-only cache diverged from the engine reference";
  CURE_CHECK(semantic.outcomes == off.outcomes)
      << "semantic cache diverged from the engine reference";

  // Claim gate: the semantic layer must beat the exact-key cache on
  // combined hit rate (strictly) and must not lose on p50.
  CURE_CHECK(semantic.semantic_hits > 0) << "no derivations happened";
  CURE_CHECK(semantic.combined_hit_rate() > exact.combined_hit_rate())
      << "semantic hit rate did not beat exact-only";
  CURE_CHECK(semantic.p50_us <= exact.p50_us)
      << "semantic p50 regressed vs exact-only";

  std::printf(
      "\nShape check: identical results in all three configs; the semantic "
      "config converts engine executions into roll-up derivations, lifting "
      "the hit rate above exact-only and holding or improving p50.\n");
  CURE_CHECK_OK(storage::RemoveFile(path));
  CURE_CHECK_OK(storage::RemoveFile(path + ".cure"));
  return 0;
}
