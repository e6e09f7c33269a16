// Live maintenance: refresh latency (ApplyDelta vs staged rebuild) across
// delta sizes, and query latency during refreshes vs steady state.
//
// Part 1 opens a LiveCube over the same 3-dim hierarchical base that
// bench_incremental uses (so the refresh path's overhead is directly
// comparable to raw ApplyDelta), appends deltas of increasing size, and
// times Flush() down both arbitration paths (the --no-delta equivalent
// forces the staged rebuild). Expected shape: ApplyDelta has a fixed
// probing cost — it scans node relations — so small deltas refresh ~2x
// faster than a rebuild and the advantage decays as the delta grows.
//
// Part 2 runs reader threads against a live CubeServer and compares their
// client-side latency percentiles between a quiet phase and a phase with
// continuous append+flush cycles — the zero-downtime claim in numbers: the
// refresh happens on the standby replica, so p95 should move little.

#include <atomic>
#include <thread>

#include "bench/bench_util.h"
#include "gen/random.h"
#include "maintain/live_cube.h"
#include "serve/cube_server.h"

using namespace cure;         // NOLINT
using namespace cure::bench;  // NOLINT

namespace {

/// The WAL every LiveCube of the run writes, in the run's own directory.
const std::string& WalPath() {
  static const ScopedBenchDir dir("refresh");
  static const std::string path = dir.File("refresh.wal");
  return path;
}

/// The bench_incremental dataset: 3 hierarchical dims, skew-free uniform
/// rows — the shape where ApplyDelta's crossover behaviour is established.
gen::Dataset MakeHierDataset(uint64_t rows) {
  gen::Dataset ds;
  ds.name = "hier3d";
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Linear("A", {3000, 150, 10}));
  dims.push_back(schema::Dimension::Linear("B", {400, 25}));
  dims.push_back(schema::Dimension::Flat("C", 15));
  auto schema = schema::CubeSchema::Create(
      std::move(dims), 1,
      {{schema::AggFn::kSum, 0, "s"}, {schema::AggFn::kCount, 0, "c"}});
  CURE_CHECK(schema.ok());
  ds.schema = std::move(schema).value();
  ds.table = schema::FactTable(3, 1);
  gen::Rng rng(42);
  for (uint64_t i = 0; i < rows; ++i) {
    const uint32_t row[3] = {static_cast<uint32_t>(rng.NextRange(3000)),
                             static_cast<uint32_t>(rng.NextRange(400)),
                             static_cast<uint32_t>(rng.NextRange(15))};
    const int64_t m = static_cast<int64_t>(rng.NextRange(100));
    ds.table.AppendRow(row, &m);
  }
  return ds;
}

maintain::RowBatch MakeBatch(const schema::CubeSchema& schema, uint64_t rows,
                             uint64_t seed) {
  maintain::RowBatch batch(schema.num_dims(), schema.num_raw_measures());
  gen::Rng rng(seed);
  std::vector<uint32_t> dims(schema.num_dims());
  std::vector<int64_t> measures(schema.num_raw_measures());
  for (uint64_t r = 0; r < rows; ++r) {
    for (int d = 0; d < schema.num_dims(); ++d) {
      dims[d] = static_cast<uint32_t>(
          rng.NextRange(schema.dim(d).leaf_cardinality()));
    }
    for (int m = 0; m < schema.num_raw_measures(); ++m) {
      measures[m] = static_cast<int64_t>(rng.NextRange(100));
    }
    batch.Add(dims.data(), measures.data());
  }
  return batch;
}

Result<std::unique_ptr<maintain::LiveCube>> OpenLive(const gen::Dataset& ds,
                                                     bool allow_delta) {
  std::remove(WalPath().c_str());
  maintain::MaintainOptions options;
  options.wal_path = WalPath();
  options.refresh_rows = ~0ull;  // Manual Flush() only.
  options.refresh_bytes = ~0ull;
  options.allow_delta = allow_delta;
  schema::FactTable base = ds.table;  // The LiveCube owns its copy.
  return maintain::LiveCube::Open(ds.schema, std::move(base), options);
}

void RunRefreshLatency(const gen::Dataset& ds) {
  const uint64_t base_rows = ds.table.num_rows();
  PrintSubHeader(ds.name + " — refresh latency, delta vs staged rebuild (base " +
                 std::to_string(base_rows) + " rows)");
  std::printf("%-18s %12s %12s %10s\n", "delta", "ApplyDelta", "rebuild",
              "speedup");

  for (const double fraction : {0.001, 0.01, 0.05}) {
    const uint64_t delta_rows =
        std::max<uint64_t>(1, static_cast<uint64_t>(base_rows * fraction));

    // Delta path: one warm-up flush materializes the standby replica (that
    // first refresh always rebuilds), then the measured flush runs
    // ApplyDelta in steady state.
    double delta_seconds = 0;
    {
      auto live = OpenLive(ds, /*allow_delta=*/true);
      CURE_CHECK(live.ok()) << live.status().ToString();
      CURE_CHECK_OK((*live)->Append(MakeBatch(ds.schema, 1, 7000)));
      auto warmup = (*live)->Flush();
      CURE_CHECK(warmup.ok() && !warmup->used_delta);
      CURE_CHECK_OK((*live)->Append(MakeBatch(ds.schema, delta_rows, 7001)));
      auto stats = (*live)->Flush();
      CURE_CHECK(stats.ok()) << stats.status().ToString();
      CURE_CHECK(stats->used_delta) << stats->fallback_reason;
      delta_seconds = stats->seconds;
    }

    // Rebuild path: the same delta with arbitration forced to the staged
    // rebuild pipeline (what `cure_serve --live --no-delta` does).
    double rebuild_seconds = 0;
    {
      auto live = OpenLive(ds, /*allow_delta=*/false);
      CURE_CHECK(live.ok()) << live.status().ToString();
      CURE_CHECK_OK((*live)->Append(MakeBatch(ds.schema, delta_rows, 7001)));
      auto stats = (*live)->Flush();
      CURE_CHECK(stats.ok() && !stats->used_delta);
      rebuild_seconds = stats->seconds;
    }

    char label[64];
    std::snprintf(label, sizeof(label), "%llu (%.1f%%)",
                  static_cast<unsigned long long>(delta_rows),
                  fraction * 100.0);
    std::printf("%-18s %12s %12s %9.1fx\n", label,
                FormatSeconds(delta_seconds).c_str(),
                FormatSeconds(rebuild_seconds).c_str(),
                rebuild_seconds / delta_seconds);
  }
}

struct PhaseResult {
  LogHistogram::Snapshot latency;
  uint64_t queries = 0;
  uint64_t refreshes = 0;
};

/// Runs `readers` threads of random-node queries for `seconds`; when
/// `churn` is set, the main thread cycles append+flush the whole time.
PhaseResult RunPhase(serve::CubeServer* server, const gen::Dataset& ds,
                     const std::vector<schema::NodeId>& workload, int readers,
                     double seconds, bool churn, uint64_t churn_rows) {
  PhaseResult result;
  LogHistogram latency;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      gen::Rng rng(900 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        serve::QueryRequest request;
        request.node = workload[rng.NextRange(workload.size())];
        Stopwatch watch;
        serve::QueryResponse response = server->Execute(request);
        CURE_CHECK(response.status.ok()) << response.status.ToString();
        latency.Record(watch.ElapsedMicros());
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Stopwatch phase;
  uint64_t seed = 8000;
  while (phase.ElapsedSeconds() < seconds) {
    if (churn) {
      CURE_CHECK_OK(server->Append(MakeBatch(ds.schema, churn_rows, seed++)));
      auto stats = server->Flush();
      CURE_CHECK(stats.ok()) << stats.status().ToString();
      if (stats->refreshed) ++result.refreshes;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  result.latency = latency.TakeSnapshot();
  result.queries = queries.load();
  return result;
}

void RunQueryLatencyUnderRefresh(const gen::Dataset& ds, int readers,
                                 size_t num_queries) {
  auto live = OpenLive(ds, /*allow_delta=*/true);
  CURE_CHECK(live.ok()) << live.status().ToString();
  serve::CubeServerOptions options;
  options.num_threads = 4;
  options.cache_bytes = 0;  // Uncached: measure engine latency, not hits.
  auto server = serve::CubeServer::Create(live->get(), options);
  CURE_CHECK(server.ok()) << server.status().ToString();

  const schema::NodeIdCodec& codec = (*live)->codec();
  const std::vector<schema::NodeId> workload =
      query::RandomNodeWorkload(codec, num_queries, /*seed=*/23,
                                /*unique=*/true);
  const uint64_t churn_rows =
      std::max<uint64_t>(1, ds.table.num_rows() / 100);  // 1% per cycle

  PrintSubHeader(ds.name + " — query latency during refresh vs steady state (" +
                 std::to_string(readers) + " readers, uncached)");
  std::printf("%-22s %10s %10s %10s %10s %10s %10s\n", "phase", "queries",
              "p50", "p95", "p99", "max", "refreshes");
  const double phase_seconds = 1.5;
  for (const bool churn : {false, true}) {
    const PhaseResult r = RunPhase(server->get(), ds, workload, readers,
                                   phase_seconds, churn, churn_rows);
    std::printf("%-22s %10llu %10s %10s %10s %10s %10llu\n",
                churn ? "append+flush churn" : "steady state",
                static_cast<unsigned long long>(r.queries),
                FormatSeconds(r.latency.p50 * 1e-6).c_str(),
                FormatSeconds(r.latency.p95 * 1e-6).c_str(),
                FormatSeconds(r.latency.p99 * 1e-6).c_str(),
                FormatSeconds(r.latency.max * 1e-6).c_str(),
                static_cast<unsigned long long>(r.refreshes));
  }
}

}  // namespace

int main() {
  PrintHeader("Live maintenance — refresh latency and query impact");
  const gen::Dataset ds =
      MakeHierDataset(200000 / static_cast<uint64_t>(ScaleEnv(1)));
  RunRefreshLatency(ds);
  RunQueryLatencyUnderRefresh(ds, /*readers=*/4,
                              static_cast<size_t>(QueriesEnv(100)));
  std::printf(
      "\nShape check: ApplyDelta's fixed probing cost means small deltas "
      "refresh ~2x faster than the staged rebuild, with the advantage "
      "decaying toward (and past) the crossover as the delta grows; and "
      "because refreshes build on the standby replica and swap atomically, "
      "reader p95 in the churn phase stays close to steady state.\n");
  return 0;
}
