// Scatter–gather serving tier: QPS and latency of cure_router over a
// loopback cluster as the shard count scales (1/2/3 shards, one replica
// each), against the same cube served by a single node.
//
// Every shard runs a real CubeServer + TcpLineServer, so each routed query
// pays S loopback round trips plus the router's re-aggregation merge. All
// responses are checked against the serial single-node engine (count +
// order-independent checksum) — a mismatch aborts the bench. Expected
// shape: per-query latency grows with the merge fan-in (the router
// re-aggregates S partial relations, and partials overlap heavily under
// skew), while QPS holds roughly flat as client concurrency spreads over
// the shards' independent worker pools.

#include <atomic>
#include <cinttypes>
#include <thread>

#include "bench/bench_util.h"
#include "common/histogram.h"
#include "gen/random.h"
#include "gen/zipf.h"
#include "router/router.h"
#include "schema/fact_table.h"
#include "serve/cube_server.h"
#include "serve/tcp_server.h"

using namespace cure;         // NOLINT
using namespace cure::bench;  // NOLINT

namespace {

struct Expected {
  uint64_t count = 0;
  uint64_t checksum = 0;
};

/// Contiguous disjoint row ranges — the partitioning `cure_tool shard`
/// applies.
std::vector<schema::FactTable> SplitTable(const schema::FactTable& table,
                                          int parts) {
  std::vector<schema::FactTable> out;
  const uint64_t rows = table.num_rows();
  std::vector<uint32_t> dims(table.num_dims());
  std::vector<int64_t> measures(table.num_measures());
  for (int k = 0; k < parts; ++k) {
    schema::FactTable part(table.num_dims(), table.num_measures());
    const uint64_t begin = rows * k / parts;
    const uint64_t end = rows * (k + 1) / parts;
    for (uint64_t row = begin; row < end; ++row) {
      for (int d = 0; d < table.num_dims(); ++d) dims[d] = table.dim(d, row);
      for (int m = 0; m < table.num_measures(); ++m) {
        measures[m] = table.measure(m, row);
      }
      part.AppendRow(dims.data(), measures.data());
    }
    out.push_back(std::move(part));
  }
  return out;
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

/// Parses "OK <count> <checksum-hex> ..." — rows are not retained; the
/// checksum covers them.
bool ParseHeader(const std::string& response, Expected* out) {
  uint64_t count = 0;
  unsigned long long checksum = 0;
  if (std::sscanf(response.c_str(), "OK %" SCNu64 " %llx", &count,
                  &checksum) != 2) {
    return false;
  }
  out->count = count;
  out->checksum = checksum;
  return true;
}

void RunCluster(JsonReport* json) {
  const int64_t scale = ScaleEnv(4);
  const uint64_t tuples = 1000000 / static_cast<uint64_t>(scale);
  const size_t num_queries = static_cast<size_t>(QueriesEnv(48));
  const int kClients = 4;
  const int kRounds = 3;

  gen::Dataset ds;
  ds.name = "cluster";
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Linear("A", {100, 20, 4}));
  dims.push_back(schema::Dimension::Linear("B", {50, 10}));
  dims.push_back(schema::Dimension::Flat("C", 12));
  auto schema = schema::CubeSchema::Create(
      std::move(dims), 1,
      {{schema::AggFn::kSum, 0, "s"},
       {schema::AggFn::kCount, 0, "c"},
       {schema::AggFn::kMin, 0, "lo"},
       {schema::AggFn::kMax, 0, "hi"}});
  CURE_CHECK(schema.ok());
  ds.schema = std::move(schema).value();
  ds.table = schema::FactTable(3, 1);
  gen::Rng rng(7);
  gen::ZipfSampler za(100, 1.0), zb(50, 0.8), zc(12, 0.5);
  for (uint64_t t = 0; t < tuples; ++t) {
    const uint32_t row[3] = {za.Sample(&rng), zb.Sample(&rng), zc.Sample(&rng)};
    const int64_t m = static_cast<int64_t>(rng.NextRange(10000));
    ds.table.AppendRow(row, &m);
  }

  // Single-node reference cube + serial baseline for correctness checks.
  engine::FactInput input{.table = &ds.table};
  auto whole = engine::BuildCure(ds.schema, input, engine::CureOptions{});
  CURE_CHECK(whole.ok()) << whole.status().ToString();
  const schema::NodeIdCodec& codec = (*whole)->store().codec();
  auto serial = query::CureQueryEngine::Create(whole->get(), 1.0);
  CURE_CHECK(serial.ok());

  const std::vector<schema::NodeId> workload =
      query::RandomNodeWorkload(codec, num_queries, /*seed=*/19,
                                /*unique=*/true);
  std::vector<std::string> lines(workload.size());
  std::vector<Expected> expected(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    lines[i] = "QUERY " + NodeSpec(ds.schema, codec, workload[i]);
    query::ResultSink sink;
    CURE_CHECK_OK((*serial)->QueryNode(workload[i], &sink));
    expected[i] = {sink.count(), sink.checksum()};
  }

  PrintSubHeader(
      "routed QPS / latency vs shard count (" + std::to_string(tuples) +
      " tuples, " + std::to_string(workload.size()) + " unique node queries x " +
      std::to_string(kRounds) + " rounds x " + std::to_string(kClients) +
      " clients, serial-checked)");
  std::printf("%-8s %10s %10s %10s %10s %10s\n", "shards", "QPS", "p50_us",
              "p95_us", "p99_us", "max_us");

  for (const int shards : {1, 2, 3}) {
    const std::vector<schema::FactTable> parts = SplitTable(ds.table, shards);
    std::vector<std::unique_ptr<engine::CureCube>> cubes;
    std::vector<std::unique_ptr<serve::CubeServer>> servers;
    std::vector<std::unique_ptr<serve::TcpLineServer>> tcps;
    router::ShardMap map;
    for (const schema::FactTable& part : parts) {
      engine::FactInput shard_input{.table = &part};
      auto cube =
          engine::BuildCure(ds.schema, shard_input, engine::CureOptions{});
      CURE_CHECK(cube.ok()) << cube.status().ToString();
      cubes.push_back(std::move(cube).value());
      serve::CubeServerOptions server_options;
      server_options.num_threads = 4;
      server_options.max_inflight = 4096;
      auto server = serve::CubeServer::Create(cubes.back().get(), server_options);
      CURE_CHECK(server.ok()) << server.status().ToString();
      servers.push_back(std::move(server).value());
      auto tcp = serve::TcpLineServer::Start(servers.back().get(),
                                             serve::LineTransportOptions{});
      CURE_CHECK(tcp.ok()) << tcp.status().ToString();
      tcps.push_back(std::move(tcp).value());
      map.shards.push_back({{"127.0.0.1", tcps.back()->port()}});
    }
    auto router =
        router::CureRouter::Create(&ds.schema, map, router::RouterOptions{});
    CURE_CHECK(router.ok()) << router.status().ToString();

    LogHistogram latency;
    std::atomic<uint64_t> mismatches{0};
    Stopwatch watch;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const size_t offset =
            (static_cast<size_t>(c) * lines.size()) / kClients;
        for (int r = 0; r < kRounds; ++r) {
          for (size_t i = 0; i < lines.size(); ++i) {
            const size_t q = (offset + i) % lines.size();
            Stopwatch one;
            const std::string response = (*router)->HandleLine(lines[q]);
            latency.Record(static_cast<int64_t>(one.ElapsedSeconds() * 1e6));
            Expected got;
            if (!ParseHeader(response, &got) ||
                got.count != expected[q].count ||
                got.checksum != expected[q].checksum) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const double seconds = watch.ElapsedSeconds();
    CURE_CHECK_EQ(mismatches.load(), 0ull)
        << "routed results diverged from the serial baseline";

    const LogHistogram::Snapshot snap = latency.TakeSnapshot();
    const double qps = static_cast<double>(snap.count) / seconds;
    std::printf("%-8d %10.0f %10" PRId64 " %10" PRId64 " %10" PRId64
                " %10" PRId64 "\n",
                shards, qps, snap.p50, snap.p95, snap.p99, snap.max);
    json->BeginSeries("shards=" + std::to_string(shards));
    json->Add("qps", qps);
    json->Add("p50_us", static_cast<double>(snap.p50));
    json->Add("p95_us", static_cast<double>(snap.p95));
    json->Add("p99_us", static_cast<double>(snap.p99));
    json->Add("max_us", static_cast<double>(snap.max));
    json->Add("queries", static_cast<double>(snap.count));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_out = ParseJsonOutArg(argc, argv);
  PrintHeader("cure_router scatter-gather cluster (QPS vs shard count)");
  JsonReport json("cluster");
  RunCluster(&json);
  if (!json_out.empty()) json.WriteOrDie(json_out);
  return 0;
}
