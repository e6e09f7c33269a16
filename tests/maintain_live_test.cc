// Live cube maintenance tests: versioned snapshots, delta-vs-rebuild
// refresh arbitration, WAL-backed reopen, epoch cache invalidation, the
// APPEND/FLUSH protocol verbs, and the zero-downtime guarantee — queries
// running concurrently with append+refresh always match one version's
// serial answer, never a mix (this suite also runs under TSan in CI).
#include "maintain/live_cube.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/cure.h"
#include "gen/random.h"
#include "query/node_query.h"
#include "query/reference.h"
#include "serve/cube_server.h"
#include "serve/protocol.h"
#include "serve/tcp_server.h"
#include "storage/file_io.h"

namespace cure {
namespace {

using engine::BuildCure;
using engine::CureOptions;
using engine::FactInput;
using maintain::LiveCube;
using maintain::MaintainOptions;
using maintain::RowBatch;
using query::CureQueryEngine;
using query::ResultSink;
using schema::NodeId;
using serve::CubeServer;
using serve::CubeServerOptions;
using serve::QueryRequest;
using serve::QueryResponse;
using serve::TcpLineServer;
using serve::TcpServerOptions;

constexpr int kDims = 3;
constexpr int kMeasures = 1;
constexpr uint32_t kCards[kDims] = {20, 10, 4};

schema::CubeSchema MakeSchema() {
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Linear("A", {20, 5, 2}));
  dims.push_back(schema::Dimension::Linear("B", {10, 2}));
  dims.push_back(schema::Dimension::Flat("C", 4));
  auto schema = schema::CubeSchema::Create(
      std::move(dims), 1,
      {{schema::AggFn::kSum, 0, "s"}, {schema::AggFn::kCount, 0, "c"}});
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

void AppendRandomRows(schema::FactTable* table, uint64_t count, uint64_t seed) {
  gen::Rng rng(seed);
  for (uint64_t i = 0; i < count; ++i) {
    const uint32_t row[kDims] = {static_cast<uint32_t>(rng.NextRange(kCards[0])),
                                 static_cast<uint32_t>(rng.NextRange(kCards[1])),
                                 static_cast<uint32_t>(rng.NextRange(kCards[2]))};
    const int64_t m = static_cast<int64_t>(rng.NextRange(50));
    table->AppendRow(row, &m);
  }
}

RowBatch MakeBatch(uint64_t count, uint64_t seed) {
  RowBatch batch(kDims, kMeasures);
  gen::Rng rng(seed);
  for (uint64_t i = 0; i < count; ++i) {
    const uint32_t row[kDims] = {static_cast<uint32_t>(rng.NextRange(kCards[0])),
                                 static_cast<uint32_t>(rng.NextRange(kCards[1])),
                                 static_cast<uint32_t>(rng.NextRange(kCards[2]))};
    const int64_t m = static_cast<int64_t>(rng.NextRange(50));
    batch.Add(row, &m);
  }
  return batch;
}

/// Appends every record of `batch` to `table` (the serial reference path).
void ApplyBatchToTable(const RowBatch& batch, schema::FactTable* table) {
  const size_t record = batch.record_size();
  for (uint64_t r = 0; r < batch.rows(); ++r) {
    const uint8_t* rec = batch.data() + r * record;
    uint32_t dims[kDims];
    int64_t measures[kMeasures];
    std::memcpy(dims, rec, sizeof(dims));
    std::memcpy(measures, rec + sizeof(dims), sizeof(measures));
    table->AppendRow(dims, measures);
  }
}

std::string WalPath(const std::string& name) {
  return "/tmp/cure_live_" + name + ".wal";
}

MaintainOptions MakeOptions(const std::string& name) {
  MaintainOptions options;
  options.wal_path = WalPath(name);
  std::remove(options.wal_path.c_str());
  // Tests drive refreshes explicitly through Flush().
  options.refresh_rows = ~0ull;
  options.refresh_bytes = ~0ull;
  return options;
}

/// Asserts the live cube's current snapshot answers every node exactly like
/// a cold BuildCure over `table` — the "post-swap equals cold rebuild"
/// acceptance criterion.
void ExpectSnapshotMatchesColdRebuild(const LiveCube& live,
                                      const schema::CubeSchema& schema,
                                      const schema::FactTable& table) {
  CureOptions options;
  FactInput input{.table = &table};
  auto cold = BuildCure(schema, input, options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto cold_engine = CureQueryEngine::Create(cold->get(), 1.0);
  ASSERT_TRUE(cold_engine.ok());

  const std::shared_ptr<const maintain::CubeSnapshot> snapshot = live.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->rows, table.num_rows());
  const schema::NodeIdCodec& codec = live.codec();
  for (NodeId id = 0; id < codec.num_nodes(); ++id) {
    ResultSink live_sink(true);
    ASSERT_TRUE(snapshot->engine->QueryNode(id, &live_sink).ok());
    ResultSink cold_sink(true);
    ASSERT_TRUE((*cold_engine)->QueryNode(id, &cold_sink).ok());
    ASSERT_TRUE(
        query::SameResults(live_sink.TakeRows(), cold_sink.TakeRows()))
        << "node " << codec.Name(id, schema) << " (" << id << ")";
  }
}

TEST(LiveCubeTest, OpenBuildsInitialVersion) {
  schema::CubeSchema schema = MakeSchema();
  schema::FactTable base(kDims, kMeasures);
  AppendRandomRows(&base, 500, 9100);
  auto live = LiveCube::Open(schema, std::move(base), MakeOptions("open"));
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  const auto snapshot = (*live)->snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version, 1u);
  EXPECT_EQ(snapshot->rows, 500u);
  const maintain::Freshness fresh = (*live)->freshness();
  EXPECT_EQ(fresh.version, 1u);
  EXPECT_EQ(fresh.total_rows, 500u);
  EXPECT_EQ(fresh.pending_rows, 0u);
  ASSERT_TRUE(storage::RemoveFile((*live)->options().wal_path).ok());
}

TEST(LiveCubeTest, FlushIsANoopWithNothingPending) {
  schema::CubeSchema schema = MakeSchema();
  schema::FactTable base(kDims, kMeasures);
  AppendRandomRows(&base, 200, 9200);
  auto live = LiveCube::Open(schema, std::move(base), MakeOptions("noop"));
  ASSERT_TRUE(live.ok());
  auto stats = (*live)->Flush();
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->refreshed);
  EXPECT_EQ(stats->rows_applied, 0u);
  EXPECT_EQ(stats->version, 1u);
  EXPECT_EQ((*live)->counters().refresh_total, 0u);
  ASSERT_TRUE(storage::RemoveFile((*live)->options().wal_path).ok());
}

TEST(LiveCubeTest, DeltaRefreshMatchesColdRebuild) {
  schema::CubeSchema schema = MakeSchema();
  schema::FactTable base(kDims, kMeasures);
  AppendRandomRows(&base, 800, 9300);
  schema::FactTable reference(kDims, kMeasures);
  AppendRandomRows(&reference, 800, 9300);

  auto live = LiveCube::Open(schema, std::move(base), MakeOptions("delta"));
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  const RowBatch batch = MakeBatch(120, 9301);
  ApplyBatchToTable(batch, &reference);
  ASSERT_TRUE((*live)->Append(batch).ok());
  EXPECT_EQ((*live)->freshness().pending_rows, 120u);

  // The first refresh materializes the standby replica from scratch — there
  // is no cube on it to delta-update yet — so it takes the rebuild path.
  auto stats = (*live)->Flush();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->refreshed);
  EXPECT_FALSE(stats->used_delta);
  EXPECT_EQ(stats->rows_applied, 120u);
  EXPECT_EQ(stats->version, 2u);
  EXPECT_EQ((*live)->counters().refresh_rebuild, 1u);
  EXPECT_EQ((*live)->freshness().pending_rows, 0u);
  ExpectSnapshotMatchesColdRebuild(**live, schema, reference);

  // Steady state: the second refresh flips back to the replica holding the
  // version-1 cube and folds both pending slices in via ApplyDelta.
  const RowBatch second = MakeBatch(60, 9302);
  ApplyBatchToTable(second, &reference);
  ASSERT_TRUE((*live)->Append(second).ok());
  auto stats2 = (*live)->Flush();
  ASSERT_TRUE(stats2.ok()) << stats2.status().ToString();
  EXPECT_TRUE(stats2->used_delta);
  EXPECT_TRUE(stats2->fallback_reason.empty());
  EXPECT_EQ(stats2->version, 3u);
  EXPECT_EQ((*live)->counters().refresh_delta, 1u);
  ExpectSnapshotMatchesColdRebuild(**live, schema, reference);

  // And again: delta stays the steady-state path.
  const RowBatch third = MakeBatch(40, 9303);
  ApplyBatchToTable(third, &reference);
  ASSERT_TRUE((*live)->Append(third).ok());
  auto stats3 = (*live)->Flush();
  ASSERT_TRUE(stats3.ok());
  EXPECT_TRUE(stats3->used_delta);
  EXPECT_EQ((*live)->counters().refresh_delta, 2u);
  ExpectSnapshotMatchesColdRebuild(**live, schema, reference);
  ASSERT_TRUE(storage::RemoveFile((*live)->options().wal_path).ok());
}

TEST(LiveCubeTest, WidthOverflowFallsBackToWideningRebuild) {
  schema::CubeSchema schema = MakeSchema();
  schema::FactTable base(kDims, kMeasures);
  AppendRandomRows(&base, 800, 9400);
  schema::FactTable reference(kDims, kMeasures);
  AppendRandomRows(&reference, 800, 9400);
  auto live = LiveCube::Open(schema, std::move(base), MakeOptions("widen"));
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ((*live)->snapshot()->cube->store().layout().aggregate_width(0), 4u);

  // Two refreshes give both replicas a cube; the second takes the delta
  // path, so the third reaches ApplyDelta's width precondition.
  for (uint64_t seed : {9401, 9402}) {
    const RowBatch batch = MakeBatch(30, seed);
    ApplyBatchToTable(batch, &reference);
    ASSERT_TRUE((*live)->Append(batch).ok());
    ASSERT_TRUE((*live)->Flush().ok());
  }
  ASSERT_EQ((*live)->counters().refresh_delta, 1u);

  // One row whose measure alone pushes the SUM bound past 2^31 - 1.
  RowBatch big(kDims, kMeasures);
  const uint32_t row[kDims] = {3, 4, 1};
  const int64_t measure = int64_t{1} << 31;
  big.Add(row, &measure);
  ApplyBatchToTable(big, &reference);
  ASSERT_TRUE((*live)->Append(big).ok());
  auto stats = (*live)->Flush();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->refreshed);
  EXPECT_FALSE(stats->used_delta);
  EXPECT_NE(stats->fallback_reason.find("record widths"), std::string::npos)
      << stats->fallback_reason;
  EXPECT_NE(stats->fallback_reason.find("aggregate 's'"), std::string::npos)
      << stats->fallback_reason;
  ExpectSnapshotMatchesColdRebuild(**live, schema, reference);
  // The rebuild picked the wider SUM; COUNT still fits 4 bytes.
  const cube::RecordLayout& layout =
      (*live)->snapshot()->cube->store().layout();
  EXPECT_EQ(layout.aggregate_width(0), 8u);
  EXPECT_EQ(layout.aggregate_width(1), 4u);
  ASSERT_TRUE(storage::RemoveFile((*live)->options().wal_path).ok());
}

TEST(LiveCubeTest, IcebergBuildFallsBackToRebuildWithReason) {
  schema::CubeSchema schema = MakeSchema();
  schema::FactTable base(kDims, kMeasures);
  AppendRandomRows(&base, 600, 9400);
  MaintainOptions options = MakeOptions("iceberg");
  options.build.min_support = 2;  // iceberg cubes fail ApplyDelta's checks
  auto live = LiveCube::Open(schema, std::move(base), options);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  // Warm up past the first-refresh rebuild so the next refresh actually
  // attempts ApplyDelta against an iceberg cube.
  ASSERT_TRUE((*live)->Append(MakeBatch(80, 9401)).ok());
  ASSERT_TRUE((*live)->Flush().ok());
  ASSERT_TRUE((*live)->Append(MakeBatch(50, 9402)).ok());
  auto stats = (*live)->Flush();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->refreshed);
  EXPECT_FALSE(stats->used_delta);
  EXPECT_NE(stats->fallback_reason.find("iceberg"), std::string::npos)
      << stats->fallback_reason;
  EXPECT_EQ((*live)->counters().refresh_rebuild, 2u);
  EXPECT_EQ((*live)->counters().refresh_delta, 0u);
  ASSERT_TRUE(storage::RemoveFile((*live)->options().wal_path).ok());
}

TEST(LiveCubeTest, AllowDeltaFalseForcesRebuild) {
  schema::CubeSchema schema = MakeSchema();
  schema::FactTable base(kDims, kMeasures);
  AppendRandomRows(&base, 600, 9500);
  schema::FactTable reference(kDims, kMeasures);
  AppendRandomRows(&reference, 600, 9500);
  MaintainOptions options = MakeOptions("rebuild");
  options.allow_delta = false;
  auto live = LiveCube::Open(schema, std::move(base), options);
  ASSERT_TRUE(live.ok());

  const RowBatch batch = MakeBatch(90, 9501);
  ApplyBatchToTable(batch, &reference);
  ASSERT_TRUE((*live)->Append(batch).ok());
  auto stats = (*live)->Flush();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->refreshed);
  EXPECT_FALSE(stats->used_delta);
  EXPECT_EQ((*live)->counters().refresh_rebuild, 1u);
  ExpectSnapshotMatchesColdRebuild(**live, schema, reference);
  ASSERT_TRUE(storage::RemoveFile((*live)->options().wal_path).ok());
}

TEST(LiveCubeTest, AppendValidatesLeafCodesBeforeLogging) {
  schema::CubeSchema schema = MakeSchema();
  schema::FactTable base(kDims, kMeasures);
  AppendRandomRows(&base, 100, 9600);
  auto live = LiveCube::Open(schema, std::move(base), MakeOptions("codes"));
  ASSERT_TRUE(live.ok());

  RowBatch bad(kDims, kMeasures);
  const uint32_t dims[kDims] = {20, 0, 0};  // A's leaf cardinality is 20
  const int64_t m = 1;
  bad.Add(dims, &m);
  const Status status = (*live)->Append(bad);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << status.ToString();
  EXPECT_EQ((*live)->wal_rows(), 0u);
  EXPECT_EQ((*live)->freshness().pending_rows, 0u);

  RowBatch wrong_shape(kDims + 1, kMeasures);
  EXPECT_FALSE((*live)->Append(wrong_shape).ok());
  ASSERT_TRUE(storage::RemoveFile((*live)->options().wal_path).ok());
}

TEST(LiveCubeTest, ReopenReplaysWalIntoTheInitialBuild) {
  schema::CubeSchema schema = MakeSchema();
  const std::string wal = WalPath("reopen");
  std::remove(wal.c_str());
  schema::FactTable reference(kDims, kMeasures);
  AppendRandomRows(&reference, 400, 9700);

  {
    schema::FactTable base(kDims, kMeasures);
    AppendRandomRows(&base, 400, 9700);
    MaintainOptions options;
    options.wal_path = wal;
    options.refresh_rows = ~0ull;
    options.refresh_bytes = ~0ull;
    auto live = LiveCube::Open(schema, std::move(base), options);
    ASSERT_TRUE(live.ok());
    // Two durable appends, only the first folded in by a refresh — both
    // must survive the "crash" (destruction without a final flush).
    const RowBatch first = MakeBatch(70, 9701);
    ApplyBatchToTable(first, &reference);
    ASSERT_TRUE((*live)->Append(first).ok());
    ASSERT_TRUE((*live)->Flush().ok());
    const RowBatch second = MakeBatch(30, 9702);
    ApplyBatchToTable(second, &reference);
    ASSERT_TRUE((*live)->Append(second).ok());
  }

  schema::FactTable base(kDims, kMeasures);
  AppendRandomRows(&base, 400, 9700);
  MaintainOptions options;
  options.wal_path = wal;
  options.refresh_rows = ~0ull;
  options.refresh_bytes = ~0ull;
  auto live = LiveCube::Open(schema, std::move(base), options);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ((*live)->wal_recovery().rows, 100u);
  EXPECT_EQ((*live)->wal_recovery().batches, 2u);
  const auto snapshot = (*live)->snapshot();
  EXPECT_EQ(snapshot->rows, 500u);
  EXPECT_EQ((*live)->freshness().pending_rows, 0u);
  ExpectSnapshotMatchesColdRebuild(**live, schema, reference);
  ASSERT_TRUE(storage::RemoveFile(wal).ok());
}

// ------------------------------------------------------------ serving layer

TEST(LiveServeTest, StaticServerRejectsMaintenanceVerbs) {
  schema::CubeSchema schema = MakeSchema();
  schema::FactTable table(kDims, kMeasures);
  AppendRandomRows(&table, 300, 9800);
  CureOptions build;
  FactInput input{.table = &table};
  auto cube = BuildCure(schema, input, build);
  ASSERT_TRUE(cube.ok());
  CubeServerOptions options;
  options.num_threads = 2;
  auto server = CubeServer::Create(cube->get(), options);
  ASSERT_TRUE(server.ok());

  EXPECT_EQ((*server)->Append(MakeBatch(1, 1)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*server)->Flush().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*server)->GetFreshness().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*server)->live(), nullptr);
}

TEST(LiveServeTest, EpochStampedCacheMissesAfterRefresh) {
  schema::CubeSchema schema = MakeSchema();
  schema::FactTable base(kDims, kMeasures);
  AppendRandomRows(&base, 500, 9900);
  auto live = LiveCube::Open(schema, std::move(base), MakeOptions("epoch"));
  ASSERT_TRUE(live.ok());
  CubeServerOptions options;
  options.num_threads = 2;
  options.cache_bytes = 4 << 20;
  auto server = CubeServer::Create(live->get(), options);
  ASSERT_TRUE(server.ok());

  QueryRequest request;
  auto node = serve::ParseNodeSpec(schema, (*live)->codec(), "A_L1,B_L1");
  ASSERT_TRUE(node.ok());
  request.node = *node;

  const QueryResponse first = (*server)->Execute(request);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.version, 1u);
  const QueryResponse second = (*server)->Execute(request);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.checksum, first.checksum);

  ASSERT_TRUE((*server)->Append(MakeBatch(200, 9901)).ok());
  auto flushed = (*server)->Flush();
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(flushed->version, 2u);

  // New epoch → the old cache entry no longer matches; fresh execution
  // reflects the appended rows.
  const QueryResponse third = (*server)->Execute(request);
  ASSERT_TRUE(third.status.ok());
  EXPECT_FALSE(third.cache_hit);
  EXPECT_EQ(third.version, 2u);
  EXPECT_GT(third.count, 0u);
  EXPECT_NE(third.checksum, first.checksum);
  const QueryResponse fourth = (*server)->Execute(request);
  EXPECT_TRUE(fourth.cache_hit);
  EXPECT_EQ(fourth.checksum, third.checksum);
  ASSERT_TRUE(storage::RemoveFile((*live)->options().wal_path).ok());
}

// The zero-downtime acceptance test (also the TSan concurrent
// append-while-querying case): reader threads hammer one node while the
// main thread appends and flushes through several versions. Every response
// must carry a published version and match that version's serial answer
// exactly — pre- or post-refresh, never a mix.
TEST(LiveServeTest, ConcurrentQueriesDuringRefreshNeverSeeAMixedState) {
  schema::CubeSchema schema = MakeSchema();
  schema::FactTable base(kDims, kMeasures);
  AppendRandomRows(&base, 2000, 10000);
  auto live = LiveCube::Open(schema, std::move(base), MakeOptions("zdt"));
  ASSERT_TRUE(live.ok());
  CubeServerOptions options;
  options.num_threads = 2;
  options.cache_bytes = 1 << 20;
  auto server = CubeServer::Create(live->get(), options);
  ASSERT_TRUE(server.ok());

  QueryRequest request;
  auto node = serve::ParseNodeSpec(schema, (*live)->codec(), "A_L1,B_L1");
  ASSERT_TRUE(node.ok());
  request.node = *node;

  // Serial references per version. Snapshots are immutable, so recording a
  // version's answer after its publish is the same as during.
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> reference;
  const QueryResponse initial = (*server)->Execute(request);
  ASSERT_TRUE(initial.status.ok());
  reference[initial.version] = {initial.count, initial.checksum};

  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  struct Observation {
    uint64_t version, count, checksum;
  };
  std::vector<std::vector<Observation>> observed(kReaders);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        const QueryResponse r = (*server)->Execute(request);
        ASSERT_TRUE(r.status.ok()) << r.status.ToString();
        observed[t].push_back({r.version, r.count, r.checksum});
      }
    });
  }

  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE((*server)->Append(MakeBatch(300, 10010 + round)).ok());
    auto flushed = (*server)->Flush();
    ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
    ASSERT_TRUE(flushed->refreshed);
    const QueryResponse ref = (*server)->Execute(request);
    ASSERT_TRUE(ref.status.ok());
    ASSERT_EQ(ref.version, flushed->version);
    reference[ref.version] = {ref.count, ref.checksum};
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  uint64_t total = 0;
  for (const auto& per_thread : observed) {
    total += per_thread.size();
    for (const Observation& o : per_thread) {
      const auto it = reference.find(o.version);
      ASSERT_NE(it, reference.end()) << "unpublished version " << o.version;
      EXPECT_EQ(o.count, it->second.first) << "version " << o.version;
      EXPECT_EQ(o.checksum, it->second.second) << "version " << o.version;
    }
  }
  EXPECT_GT(total, 0u);
  ASSERT_TRUE(storage::RemoveFile((*live)->options().wal_path).ok());
}

// ------------------------------------------------------------ line protocol

TEST(LiveServeTest, TcpProtocolAppendFlushAndStats) {
  schema::CubeSchema schema = MakeSchema();
  schema::FactTable base(kDims, kMeasures);
  AppendRandomRows(&base, 400, 10100);
  auto live = LiveCube::Open(schema, std::move(base), MakeOptions("tcp"));
  ASSERT_TRUE(live.ok());
  CubeServerOptions options;
  options.num_threads = 2;
  auto server = CubeServer::Create(live->get(), options);
  ASSERT_TRUE(server.ok());
  auto tcp = TcpLineServer::Start(server->get(), TcpServerOptions{});
  ASSERT_TRUE(tcp.ok());

  // APPEND: two rows, D leaf codes + M measures each. The first FLUSH
  // rebuilds (fresh standby replica); the second takes the delta path.
  const std::string append = (*tcp)->HandleLine("APPEND 1 2 3 10 4 5 1 20");
  EXPECT_EQ(append, "OK 2 2\n.\n");
  EXPECT_EQ((*tcp)->HandleLine("FLUSH"), "OK 2 2 REBUILD\n.\n");
  EXPECT_EQ((*tcp)->HandleLine("APPEND 7 8 2 30"), "OK 1 1\n.\n");
  EXPECT_EQ((*tcp)->HandleLine("FLUSH"), "OK 3 1 DELTA\n.\n");
  EXPECT_EQ((*tcp)->HandleLine("FLUSH"), "OK 3 0 NOOP\n.\n");

  // Malformed appends: empty, token count not a multiple of D+M, junk.
  EXPECT_EQ((*tcp)->HandleLine("APPEND").substr(0, 3), "ERR");
  EXPECT_EQ((*tcp)->HandleLine("APPEND 1 2 3").substr(0, 3), "ERR");
  EXPECT_EQ((*tcp)->HandleLine("APPEND 1 2 x 10").substr(0, 3), "ERR");
  EXPECT_EQ((*tcp)->HandleLine("APPEND 99 0 0 1").substr(0, 3), "ERR");
  EXPECT_EQ((*tcp)->HandleLine("FLUSH now").substr(0, 3), "ERR");

  // STATS carries the maintenance section (satellite: cube version, last
  // refresh wall time, pending WAL rows).
  const std::string stats = (*tcp)->HandleLine("STATS");
  EXPECT_NE(stats.find("cube_version 3"), std::string::npos) << stats;
  EXPECT_NE(stats.find("pending_wal_rows 0"), std::string::npos);
  EXPECT_NE(stats.find("last_refresh_unix"), std::string::npos);
  EXPECT_NE(stats.find("refresh_rebuild 1"), std::string::npos);
  EXPECT_NE(stats.find("refresh_delta 1"), std::string::npos);
  EXPECT_NE(stats.find("refresh_latency_count 2"), std::string::npos);
  EXPECT_NE(stats.find("staleness_seconds"), std::string::npos);

  // The appended rows are queryable post-flush.
  const std::string query = (*tcp)->HandleLine("QUERY ALL");
  EXPECT_EQ(query.substr(0, 3), "OK ");
  (*tcp)->Stop();
  ASSERT_TRUE(storage::RemoveFile((*live)->options().wal_path).ok());
}

TEST(LiveServeTest, StaticProtocolRejectsMaintenanceVerbs) {
  schema::CubeSchema schema = MakeSchema();
  schema::FactTable table(kDims, kMeasures);
  AppendRandomRows(&table, 200, 10200);
  CureOptions build;
  FactInput input{.table = &table};
  auto cube = BuildCure(schema, input, build);
  ASSERT_TRUE(cube.ok());
  CubeServerOptions options;
  options.num_threads = 1;
  auto server = CubeServer::Create(cube->get(), options);
  ASSERT_TRUE(server.ok());
  auto tcp = TcpLineServer::Start(server->get(), TcpServerOptions{});
  ASSERT_TRUE(tcp.ok());
  const std::string append = (*tcp)->HandleLine("APPEND 1 2 3 10");
  EXPECT_EQ(append.substr(0, 3), "ERR");
  EXPECT_NE(append.find("FailedPrecondition"), std::string::npos) << append;
  EXPECT_EQ((*tcp)->HandleLine("FLUSH").substr(0, 3), "ERR");
  (*tcp)->Stop();
}

}  // namespace
}  // namespace cure
