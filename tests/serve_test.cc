#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <future>
#include <mutex>
#include <sstream>
#include <thread>

#include "algebra/result_cache.h"
#include "common/fault_injection.h"
#include "common/histogram.h"
#include "common/metrics.h"
#include "engine/cure.h"
#include "gen/datasets.h"
#include "gen/random.h"
#include "query/node_query.h"
#include "query/reference.h"
#include "serve/cube_server.h"
#include "serve/protocol.h"
#include "serve/tcp_server.h"
#include "storage/file_io.h"

namespace cure {
namespace {

using algebra::QueryCache;
using algebra::QueryKey;
using algebra::QueryResult;
using engine::BuildCure;
using engine::CureOptions;
using engine::FactInput;
using query::CureQueryEngine;
using query::ResultSink;
using schema::NodeId;
using serve::CubeServer;
using serve::CubeServerOptions;
using serve::QueryRequest;
using serve::QueryResponse;
using serve::TcpLineServer;
using serve::LineTransportOptions;

gen::Dataset MakeHier(uint64_t tuples, uint64_t seed) {
  gen::Dataset ds;
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Linear("A", {24, 6, 2}));
  dims.push_back(schema::Dimension::Linear("B", {9, 3}));
  dims.push_back(schema::Dimension::Flat("C", 5));
  auto schema = schema::CubeSchema::Create(
      std::move(dims), 1,
      {{schema::AggFn::kSum, 0, "s"}, {schema::AggFn::kCount, 0, "c"}});
  EXPECT_TRUE(schema.ok());
  ds.schema = std::move(schema).value();
  ds.table = schema::FactTable(3, 1);
  gen::Rng rng(seed);
  for (uint64_t t = 0; t < tuples; ++t) {
    const uint32_t row[3] = {static_cast<uint32_t>(rng.NextRange(24)),
                             static_cast<uint32_t>(rng.NextRange(9)),
                             static_cast<uint32_t>(rng.NextRange(5))};
    const int64_t m = static_cast<int64_t>(rng.NextRange(100));
    ds.table.AppendRow(row, &m);
  }
  return ds;
}

// ---------------------------------------------------------------- histogram

TEST(LogHistogramTest, SmallValuesAreExact) {
  LogHistogram h;
  for (int64_t v = 0; v < 16; ++v) h.Record(v);
  const LogHistogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 16u);
  EXPECT_EQ(snap.sum, 120);
  EXPECT_EQ(snap.max, 15);
  for (int64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(snap.buckets[LogHistogram::BucketIndex(v)], 1u);
    EXPECT_EQ(LogHistogram::BucketLowerBound(LogHistogram::BucketIndex(v)), v);
  }
}

TEST(LogHistogramTest, BucketBoundsAreMonotone) {
  int64_t prev = -1;
  for (int i = 0; i < LogHistogram::kNumBuckets; ++i) {
    const int64_t lower = LogHistogram::BucketLowerBound(i);
    EXPECT_GT(lower, prev);
    EXPECT_EQ(LogHistogram::BucketIndex(lower), i);
    prev = lower;
  }
}

TEST(LogHistogramTest, PercentilesWithinRelativeError) {
  LogHistogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.Record(v);
  const LogHistogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.max, 1000);
  EXPECT_NEAR(static_cast<double>(snap.p50), 500.0, 500.0 / 16);
  EXPECT_NEAR(static_cast<double>(snap.p95), 950.0, 950.0 / 16);
  EXPECT_NEAR(static_cast<double>(snap.p99), 990.0, 990.0 / 16);
  EXPECT_DOUBLE_EQ(snap.avg, 500.5);
}

TEST(LogHistogramTest, NegativeValuesClampToZero) {
  LogHistogram h;
  h.Record(-5);
  const LogHistogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.buckets[0], 1u);
}

TEST(LogHistogramTest, MergeCombinesBucketsCountSumAndMax) {
  // A merged histogram must equal one that recorded every observation
  // directly — the property the router relies on when it folds per-backend
  // latency histograms into a cluster-level distribution.
  LogHistogram a, b, reference;
  for (int64_t v = 1; v <= 700; ++v) {
    a.Record(v);
    reference.Record(v);
  }
  for (int64_t v = 701; v <= 1000; ++v) {
    b.Record(v);
    reference.Record(v);
  }
  a.Merge(b);
  const LogHistogram::Snapshot merged = a.TakeSnapshot();
  const LogHistogram::Snapshot expected = reference.TakeSnapshot();
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_EQ(merged.sum, expected.sum);
  EXPECT_EQ(merged.max, expected.max);
  EXPECT_EQ(merged.buckets, expected.buckets);
  EXPECT_EQ(merged.p50, expected.p50);
  EXPECT_EQ(merged.p95, expected.p95);
  EXPECT_EQ(merged.p99, expected.p99);

  // Merging an empty histogram is a no-op; merging into an empty one copies.
  LogHistogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.TakeSnapshot().count, expected.count);
  LogHistogram fresh;
  fresh.Merge(a);
  EXPECT_EQ(fresh.TakeSnapshot().buckets, expected.buckets);
  EXPECT_EQ(fresh.TakeSnapshot().max, expected.max);
}

TEST(LogHistogramTest, PercentileOfEmptySnapshotIsZero) {
  const LogHistogram::Snapshot snap = LogHistogram().TakeSnapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.Percentile(0.0), 0);
  EXPECT_EQ(snap.Percentile(0.5), 0);
  EXPECT_EQ(snap.Percentile(1.0), 0);
  EXPECT_EQ(snap.p50, 0);
  EXPECT_EQ(snap.max, 0);
  EXPECT_DOUBLE_EQ(snap.avg, 0.0);
}

TEST(LogHistogramTest, SingleBucketPercentilesAllLandOnIt) {
  LogHistogram h;
  for (int i = 0; i < 1000; ++i) h.Record(7);
  const LogHistogram::Snapshot snap = h.TakeSnapshot();
  for (const double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(snap.Percentile(q), 7) << "q=" << q;
  }
  EXPECT_EQ(snap.max, 7);
  EXPECT_DOUBLE_EQ(snap.avg, 7.0);
}

TEST(LogHistogramTest, PercentileClampsOutOfRangeQuantiles) {
  LogHistogram h;
  for (int64_t v = 1; v <= 100; ++v) h.Record(v);
  const LogHistogram::Snapshot snap = h.TakeSnapshot();
  // Quantiles outside [0, 1] clamp to p0/p100 instead of misbehaving.
  EXPECT_EQ(snap.Percentile(-3.0), snap.Percentile(0.0));
  EXPECT_EQ(snap.Percentile(17.0), snap.Percentile(1.0));
  // p0 is the smallest observation's bucket; p100 lands in the bucket of
  // the maximum (its lower bound, so ≤ max within one sub-bucket).
  EXPECT_EQ(snap.Percentile(0.0), 1);
  const int64_t p100 = snap.Percentile(1.0);
  EXPECT_LE(p100, snap.max);
  EXPECT_EQ(LogHistogram::BucketIndex(p100),
            LogHistogram::BucketIndex(snap.max));
}

TEST(LogHistogramTest, SnapshotMergeMatchesLiveMerge) {
  // The federation path reconstructs a backend histogram from its wire
  // buckets and folds the snapshot in; that must be bucket-identical to
  // merging the live histogram.
  LogHistogram via_live, via_snapshot, b;
  for (int64_t v = 1; v <= 500; ++v) {
    via_live.Record(v * 3);
    via_snapshot.Record(v * 3);
  }
  for (int64_t v = 1; v <= 400; ++v) b.Record(v * 7);
  via_live.Merge(b);
  via_snapshot.Merge(b.TakeSnapshot());
  const LogHistogram::Snapshot live = via_live.TakeSnapshot();
  const LogHistogram::Snapshot snap = via_snapshot.TakeSnapshot();
  EXPECT_EQ(live.buckets, snap.buckets);
  EXPECT_EQ(live.count, snap.count);
  EXPECT_EQ(live.sum, snap.sum);
  EXPECT_EQ(live.max, snap.max);
  EXPECT_EQ(live.p50, snap.p50);
  EXPECT_EQ(live.p99, snap.p99);
  // Percentiles after the merge reflect the combined distribution: the
  // maximum came from b (400 * 7), beyond either input's own median.
  EXPECT_EQ(snap.max, 2800);
  EXPECT_EQ(LogHistogram::BucketIndex(snap.Percentile(1.0)),
            LogHistogram::BucketIndex(2800));

  // Merging an empty snapshot is a no-op.
  via_snapshot.Merge(LogHistogram().TakeSnapshot());
  const LogHistogram::Snapshot after = via_snapshot.TakeSnapshot();
  EXPECT_EQ(after.buckets, snap.buckets);
  EXPECT_EQ(after.count, snap.count);
  EXPECT_EQ(after.sum, snap.sum);
}

TEST(LogHistogramTest, ConcurrentRecordsAllLand) {
  LogHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Record(i % 512);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

// ------------------------------------------------------------------ metrics

TEST(MetricsRegistryTest, CountersAndHistogramsAreStable) {
  MetricsRegistry registry;
  Counter* a = registry.counter("a");
  a->Inc();
  a->Add(4);
  EXPECT_EQ(registry.counter("a"), a);  // Same instance on re-lookup.
  EXPECT_EQ(a->value(), 5u);
  LogHistogram* h = registry.histogram("lat");
  h->Record(100);
  EXPECT_EQ(registry.histogram("lat"), h);

  const std::string text = registry.TextSnapshot();
  EXPECT_NE(text.find("a 5\n"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_count 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_p50_us"), std::string::npos) << text;
}

// -------------------------------------------------------------- query cache

QueryKey Key(NodeId node, int64_t min_count = 0) {
  QueryKey key;
  key.node = node;
  key.min_count = min_count;
  if (min_count > 1) key.count_aggregate = 1;
  key.Canonicalize();
  return key;
}

std::shared_ptr<const QueryResult> MakeResult(uint64_t count, size_t rows) {
  auto result = std::make_shared<QueryResult>();
  result->count = count;
  result->checksum = count * 0x9E3779B97F4A7C15ull;
  result->rows.resize(rows);
  for (auto& row : result->rows) {
    row.dims.assign(4, 7);
    row.aggrs.assign(2, 42);
  }
  return result;
}

TEST(QueryCacheTest, KeyCanonicalization) {
  QueryKey a, b;
  a.node = b.node = 9;
  a.slices = {{0, 1, 2}, {2, 0, 3}};
  b.slices = {{2, 0, 3}, {0, 1, 2}};  // Same predicates, different order.
  a.Canonicalize();
  b.Canonicalize();
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.Hash(), b.Hash());
  // Non-iceberg thresholds collapse: min_count 0 and 1 are the same query.
  QueryKey c = Key(9, 0), d = Key(9, 1);
  EXPECT_TRUE(c == d);
  QueryKey e = Key(9, 5);
  EXPECT_FALSE(c == e);
}

TEST(QueryCacheTest, HitMissAndLru) {
  QueryCache cache(/*capacity_bytes=*/1 << 20, /*num_shards=*/1);
  EXPECT_TRUE(cache.enabled());
  EXPECT_EQ(cache.Lookup(Key(1)), nullptr);
  cache.Insert(Key(1), MakeResult(10, 4));
  std::shared_ptr<const QueryResult> hit = cache.Lookup(Key(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->count, 10u);
  const QueryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(QueryCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  const uint64_t entry_bytes = MakeResult(1, 8)->ByteSize();
  // Budget for ~3 entries in one shard.
  QueryCache cache(3 * entry_bytes + entry_bytes / 2, 1);
  cache.Insert(Key(1), MakeResult(1, 8));
  cache.Insert(Key(2), MakeResult(2, 8));
  cache.Insert(Key(3), MakeResult(3, 8));
  EXPECT_NE(cache.Lookup(Key(1)), nullptr);  // Promote 1; LRU is now 2.
  cache.Insert(Key(4), MakeResult(4, 8));    // Evicts 2.
  EXPECT_EQ(cache.Lookup(Key(2)), nullptr);
  EXPECT_NE(cache.Lookup(Key(1)), nullptr);
  EXPECT_NE(cache.Lookup(Key(3)), nullptr);
  EXPECT_NE(cache.Lookup(Key(4)), nullptr);
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes, cache.capacity_bytes());
}

TEST(QueryCacheTest, OversizedEntriesAreNotCached) {
  QueryCache cache(/*capacity_bytes=*/256, 1);
  cache.Insert(Key(1), MakeResult(1, 1000));  // Far larger than the budget.
  EXPECT_EQ(cache.Lookup(Key(1)), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(QueryCacheTest, ZeroCapacityDisablesCache) {
  QueryCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.Insert(Key(1), MakeResult(1, 1));
  EXPECT_EQ(cache.Lookup(Key(1)), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(QueryCacheTest, ReplacingAnEntryUpdatesBytes) {
  QueryCache cache(1 << 20, 1);
  cache.Insert(Key(1), MakeResult(1, 4));
  const uint64_t bytes_small = cache.stats().bytes;
  cache.Insert(Key(1), MakeResult(2, 64));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GT(cache.stats().bytes, bytes_small);
  std::shared_ptr<const QueryResult> hit = cache.Lookup(Key(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->count, 2u);
}

// -------------------------------------------------------------- cube server

struct ServerFixture {
  gen::Dataset ds;
  std::unique_ptr<engine::CureCube> cube;

  explicit ServerFixture(uint64_t tuples = 800, uint64_t seed = 21) {
    ds = MakeHier(tuples, seed);
    CureOptions options;
    FactInput input{.table = &ds.table};
    auto built = BuildCure(ds.schema, input, options);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    cube = std::move(built).value();
  }

  std::unique_ptr<CubeServer> MakeServer(CubeServerOptions options = {}) {
    auto server = CubeServer::Create(cube.get(), options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return std::move(server).value();
  }
};

TEST(CubeServerTest, MatchesDirectEngineAcrossNodes) {
  ServerFixture fx;
  CubeServerOptions options;
  options.num_threads = 4;
  options.cache_bytes = 1 << 20;
  std::unique_ptr<CubeServer> server = fx.MakeServer(options);

  auto direct = CureQueryEngine::Create(fx.cube.get(), 1.0);
  ASSERT_TRUE(direct.ok());
  const schema::NodeIdCodec& codec = server->codec();
  for (NodeId node = 0; node < codec.num_nodes(); ++node) {
    ResultSink expected;
    ASSERT_TRUE((*direct)->QueryNode(node, &expected).ok());
    QueryRequest request;
    request.node = node;
    QueryResponse response = server->Submit(request).get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.count, expected.count()) << "node " << node;
    EXPECT_EQ(response.checksum, expected.checksum()) << "node " << node;
  }
}

TEST(CubeServerTest, CacheHitsServeIdenticalResults) {
  ServerFixture fx;
  CubeServerOptions options;
  options.cache_bytes = 4 << 20;
  std::unique_ptr<CubeServer> server = fx.MakeServer(options);

  QueryRequest request;
  request.node = server->codec().Encode({0, 0, 1});
  request.retain_rows = true;
  QueryResponse miss = server->Submit(request).get();
  ASSERT_TRUE(miss.status.ok());
  EXPECT_FALSE(miss.cache_hit);
  QueryResponse hit = server->Submit(request).get();
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.count, miss.count);
  EXPECT_EQ(hit.checksum, miss.checksum);
  ASSERT_NE(hit.result, nullptr);
  ASSERT_NE(miss.result, nullptr);
  EXPECT_TRUE(query::SameResults(
      std::vector<ResultSink::Row>(miss.result->rows),
      std::vector<ResultSink::Row>(hit.result->rows)));
  EXPECT_EQ(server->cache()->stats().hits, 1u);
}

TEST(CubeServerTest, IcebergLocatesCountAggregateAutomatically) {
  ServerFixture fx;
  std::unique_ptr<CubeServer> server = fx.MakeServer();
  QueryRequest request;
  request.node = server->codec().Encode({1, 0, 0});
  request.min_count = 3;  // count_aggregate left at -1.
  QueryResponse response = server->Submit(request).get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();

  auto direct = CureQueryEngine::Create(fx.cube.get(), 1.0);
  ASSERT_TRUE(direct.ok());
  ResultSink expected;
  ASSERT_TRUE(
      (*direct)->QueryNodeCountIceberg(request.node, 1, 3, &expected).ok());
  EXPECT_EQ(response.count, expected.count());
  EXPECT_EQ(response.checksum, expected.checksum());
}

TEST(CubeServerTest, AdmissionControlRejectsOverflowAndRecovers) {
  ServerFixture fx(300, 22);
  CubeServerOptions options;
  options.num_threads = 1;
  options.max_inflight = 2;
  std::unique_ptr<CubeServer> server = fx.MakeServer(options);

  // Hold the single worker so submitted queries stay in flight.
  std::mutex mu;
  std::condition_variable cv;
  bool gate_open = false;
  server->set_worker_hook([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return gate_open; });
  });

  QueryRequest request;
  request.node = server->codec().Encode({0, 0, 0});
  std::future<QueryResponse> a = server->Submit(request);  // Running (held).
  std::future<QueryResponse> b = server->Submit(request);  // Queued.
  EXPECT_EQ(server->in_flight(), 2);
  std::future<QueryResponse> c = server->Submit(request);  // Over capacity.
  QueryResponse rejected = c.get();  // Fails fast, no worker involved.
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server->metrics()->counter("rejected_total")->value(), 1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    gate_open = true;
  }
  cv.notify_all();
  EXPECT_TRUE(a.get().status.ok());
  EXPECT_TRUE(b.get().status.ok());

  // The server is healthy after rejecting: capacity freed, queries succeed.
  QueryResponse after = server->Submit(request).get();
  EXPECT_TRUE(after.status.ok());
  EXPECT_EQ(server->in_flight(), 0);
}

TEST(CubeServerTest, QueuedQueryPastDeadlineFails) {
  ServerFixture fx(300, 23);
  CubeServerOptions options;
  options.num_threads = 1;
  std::unique_ptr<CubeServer> server = fx.MakeServer(options);

  std::mutex mu;
  std::condition_variable cv;
  bool gate_open = false;
  server->set_worker_hook([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return gate_open; });
  });

  QueryRequest blocker;
  blocker.node = server->codec().Encode({0, 0, 0});
  std::future<QueryResponse> held = server->Submit(blocker);

  QueryRequest victim = blocker;
  victim.deadline_seconds = 0.02;
  std::future<QueryResponse> late = server->Submit(victim);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::lock_guard<std::mutex> lock(mu);
    gate_open = true;
  }
  cv.notify_all();
  EXPECT_TRUE(held.get().status.ok());
  QueryResponse response = late.get();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server->metrics()->counter("deadline_exceeded_total")->value(), 1u);
}

TEST(CubeServerTest, StatsTextReportsAllSections) {
  ServerFixture fx(300, 24);
  CubeServerOptions options;
  options.cache_bytes = 1 << 20;
  std::unique_ptr<CubeServer> server = fx.MakeServer(options);
  QueryRequest request;
  request.node = server->codec().Encode({1, 1, 1});
  ASSERT_TRUE(server->Submit(request).get().status.ok());
  ASSERT_TRUE(server->Submit(request).get().status.ok());  // Cache hit.

  const std::string stats = server->StatsText();
  EXPECT_NE(stats.find("queries_total 2\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("rejected_total 0\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("cache_hits 1\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("cache_misses 1\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("query_latency_count 2\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("query_latency_p50_us"), std::string::npos) << stats;
  EXPECT_NE(stats.find("query_latency_p95_us"), std::string::npos) << stats;
  EXPECT_NE(stats.find("query_latency_p99_us"), std::string::npos) << stats;
  EXPECT_NE(stats.find("in_flight 0\n"), std::string::npos) << stats;
}

TEST(CubeServerTest, InvalidRequestsAreErrorsNotCrashes) {
  ServerFixture fx(200, 25);
  std::unique_ptr<CubeServer> server = fx.MakeServer();
  // Slicing an ungrouped dimension is rejected by the engine.
  QueryRequest bad;
  bad.node = server->codec().Encode({server->codec().all_level(0), 0, 0});
  bad.slices = {{0, 0, 1}};
  QueryResponse response = server->Submit(bad).get();
  EXPECT_FALSE(response.status.ok());
  EXPECT_EQ(server->metrics()->counter("queries_errors")->value(), 1u);
}

TEST(CubeServerTest, StorageFaultsAreClassifiedAndRecoverable) {
  ServerFixture fx(300, 26);
  // Spill the store so queries actually read the packed file via pread —
  // the path an injected disk fault can hit.
  const std::string path = "/tmp/cure_serve_fault_" +
                           std::to_string(::getpid()) + ".bin";
  ASSERT_TRUE(fx.cube->SpillStoreToDisk(path).ok());
  std::unique_ptr<CubeServer> server = fx.MakeServer();
  QueryRequest request;
  request.node = server->codec().Encode({0, 0, 1});

  {
    FaultPlan plan;
    plan.op = "read";
    plan.target_substr = path;
    plan.error = EIO;
    ScopedFaultInjection fault(FaultInjector::Disk(), plan);
    QueryResponse faulted = server->Execute(request);
    ASSERT_FALSE(faulted.status.ok());
    EXPECT_EQ(faulted.status.code(), StatusCode::kIoError)
        << faulted.status.ToString();
    EXPECT_GE(fault.faults_injected(), 1u);
  }
  // The failure class is surfaced as its own counter in STATS.
  EXPECT_EQ(server->metrics()->counter("io_errors_total")->value(), 1u);
  EXPECT_EQ(server->metrics()->counter("queries_errors")->value(), 1u);
  const std::string stats = server->StatsText();
  EXPECT_NE(stats.find("io_errors_total 1\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("data_loss_total 0\n"), std::string::npos) << stats;

  // Degradation, not an outage: the fault cleared, the same query works.
  QueryResponse recovered = server->Execute(request);
  ASSERT_TRUE(recovered.status.ok()) << recovered.status.ToString();
  EXPECT_GT(recovered.count, 0u);
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

// ----------------------------------------------------------------- protocol

TEST(ProtocolTest, ParseNodeSpec) {
  ServerFixture fx(100, 26);
  const schema::NodeIdCodec codec(fx.ds.schema);
  auto all = serve::ParseNodeSpec(fx.ds.schema, codec, "ALL");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, codec.Encode({3, 2, 1}));
  auto node = serve::ParseNodeSpec(fx.ds.schema, codec, "A_L1,C_L0");
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(*node, codec.Encode({1, 2, 0}));
  EXPECT_FALSE(serve::ParseNodeSpec(fx.ds.schema, codec, "bogus").ok());
}

TEST(ProtocolTest, ParseSliceSpec) {
  ServerFixture fx(100, 27);
  auto slice = serve::ParseSliceSpec(fx.ds.schema, "A_L2=1");
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(slice->dim, 0);
  EXPECT_EQ(slice->level, 2);
  EXPECT_EQ(slice->code, 1u);
  auto scoped = serve::ParseSliceSpec(fx.ds.schema, "B:B_L1=2");
  ASSERT_TRUE(scoped.ok());
  EXPECT_EQ(scoped->dim, 1);
  EXPECT_EQ(scoped->level, 1);
  EXPECT_FALSE(serve::ParseSliceSpec(fx.ds.schema, "A_L2=99").ok());  // Range.
  EXPECT_FALSE(serve::ParseSliceSpec(fx.ds.schema, "nope=1").ok());
  EXPECT_FALSE(serve::ParseSliceSpec(fx.ds.schema, "A_L2").ok());
  // A resolver takes over value translation.
  auto resolved = serve::ParseSliceSpec(
      fx.ds.schema, "A_L2=one",
      [](int, int, const std::string& value) -> Result<uint32_t> {
        return value == "one" ? Result<uint32_t>(1u)
                              : Result<uint32_t>(Status::NotFound(value));
      });
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->code, 1u);
}

TEST(ProtocolTest, TakeRequestTokensPeelsControlTokens) {
  std::vector<std::string> tokens = {"QUERY", "A_L0", "profile=1"};
  uint64_t trace_id = 0;
  double deadline = 0;
  std::string error;
  bool profile = false;
  ASSERT_TRUE(serve::TakeRequestTokens(&tokens, &trace_id, &deadline, &error,
                                       &profile));
  EXPECT_TRUE(profile);
  EXPECT_EQ(tokens, (std::vector<std::string>{"QUERY", "A_L0"}));

  // All three control tokens peel in any order.
  tokens = {"QUERY", "A_L0", "profile=1", "deadline=250", "trace=9"};
  profile = false;
  ASSERT_TRUE(serve::TakeRequestTokens(&tokens, &trace_id, &deadline, &error,
                                       &profile));
  EXPECT_TRUE(profile);
  EXPECT_EQ(trace_id, 9u);
  EXPECT_DOUBLE_EQ(deadline, 0.25);
  EXPECT_EQ(tokens, (std::vector<std::string>{"QUERY", "A_L0"}));

  // Only profile=1 is valid — anything else is a hard error, not silence.
  tokens = {"QUERY", "A_L0", "profile=2"};
  EXPECT_FALSE(serve::TakeRequestTokens(&tokens, &trace_id, &deadline, &error,
                                        &profile));
  EXPECT_NE(error.find("profile"), std::string::npos) << error;

  // Absent token leaves the caller's default untouched; a null out-param
  // (callers that don't support profiling) is tolerated.
  tokens = {"QUERY", "A_L0"};
  profile = false;
  ASSERT_TRUE(serve::TakeRequestTokens(&tokens, &trace_id, &deadline, &error,
                                       &profile));
  EXPECT_FALSE(profile);
  tokens = {"QUERY", "A_L0", "profile=1"};
  ASSERT_TRUE(
      serve::TakeRequestTokens(&tokens, &trace_id, &deadline, &error));
  EXPECT_EQ(tokens.size(), 2u);
}

TEST(ProtocolTest, TakeRequestTokensPeelsCodesTokenInAnyOrder) {
  const std::vector<std::vector<std::string>> orders = {
      {"QUERY", "A_L0", "codes=1"},
      {"QUERY", "A_L0", "codes=1", "trace=5", "profile=1"},
      {"QUERY", "A_L0", "trace=5", "codes=1", "deadline=40"},
      {"QUERY", "A_L0", "profile=1", "deadline=40", "trace=5", "codes=1"},
  };
  for (std::vector<std::string> tokens : orders) {
    uint64_t trace_id = 0;
    double deadline = 0;
    std::string error;
    bool profile = false;
    bool codes = false;
    ASSERT_TRUE(serve::TakeRequestTokens(&tokens, &trace_id, &deadline, &error,
                                         &profile, &codes))
        << error;
    EXPECT_TRUE(codes);
    EXPECT_EQ(tokens, (std::vector<std::string>{"QUERY", "A_L0"}));
  }

  // Only codes=1 is valid; a bad value is an error, not silently decoded.
  std::vector<std::string> tokens = {"QUERY", "A_L0", "codes=0"};
  uint64_t trace_id = 0;
  double deadline = 0;
  std::string error;
  bool codes = false;
  EXPECT_FALSE(serve::TakeRequestTokens(&tokens, &trace_id, &deadline, &error,
                                        nullptr, &codes));
  EXPECT_NE(error.find("codes"), std::string::npos) << error;
  EXPECT_FALSE(codes);
}

TEST(ProtocolTest, AppendRowsTextEncodesCodesOrDecodedValues) {
  std::vector<ResultSink::Row> rows(2);
  rows[0].dims = {3, 4294967295u};
  rows[0].aggrs = {-7, 0};
  rows[1].aggrs = {9223372036854775807ll};  // an apex row: no dims
  std::string out;
  serve::AppendRowsText({{0, 1}, {1, 0}}, rows, nullptr, &out);
  EXPECT_EQ(out, "3\t4294967295\t-7\t0\n9223372036854775807\n");

  out.clear();
  serve::AppendRowsText(
      {{0, 1}, {1, 0}}, {rows[0]},
      [](int dim, int level, uint32_t code) {
        return "d" + std::to_string(dim) + "l" + std::to_string(level) + "=" +
               std::to_string(code);
      },
      &out);
  EXPECT_EQ(out, "d0l1=3\td1l0=4294967295\t-7\t0\n");
}

// --------------------------------------------------------------- tcp server

/// Minimal blocking line-protocol client for loopback tests.
class LineClient {
 public:
  explicit LineClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof(addr)) == 0;
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  /// Sends one command; returns the response lines up to (excluding) ".".
  std::vector<std::string> Roundtrip(const std::string& command) {
    const std::string out = command + "\n";
    EXPECT_EQ(::send(fd_, out.data(), out.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(out.size()));
    return ReadResponse();
  }

  /// Reads one response: the lines up to (excluding) ".".
  std::vector<std::string> ReadResponse() {
    std::vector<std::string> lines;
    std::string line;
    char c;
    while (true) {
      const ssize_t n = ::recv(fd_, &c, 1, 0);
      if (n <= 0) break;
      if (c != '\n') {
        line += c;
        continue;
      }
      if (line == ".") return lines;
      lines.push_back(line);
      line.clear();
    }
    ADD_FAILURE() << "connection closed before '.' terminator";
    return lines;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST(TcpLineServerTest, ServesQueriesOverLoopback) {
  ServerFixture fx(600, 28);
  CubeServerOptions options;
  options.cache_bytes = 1 << 20;
  std::unique_ptr<CubeServer> server = fx.MakeServer(options);
  auto tcp = TcpLineServer::Start(server.get(), LineTransportOptions{});
  ASSERT_TRUE(tcp.ok()) << tcp.status().ToString();
  ASSERT_GT((*tcp)->port(), 0);

  LineClient client((*tcp)->port());
  ASSERT_TRUE(client.connected());

  // Plain query: header row count must match the reported count.
  std::vector<std::string> lines = client.Roundtrip("QUERY A_L1,B_L1");
  ASSERT_FALSE(lines.empty());
  ASSERT_EQ(lines[0].rfind("OK ", 0), 0u) << lines[0];
  unsigned long long count = 0;
  char hitmiss[8] = {0};
  ASSERT_EQ(std::sscanf(lines[0].c_str(), "OK %llu %*s %7s", &count, hitmiss),
            2);
  EXPECT_EQ(std::string(hitmiss), "MISS");
  EXPECT_EQ(lines.size() - 1, count);
  {
    ResultSink expected;
    auto direct = CureQueryEngine::Create(fx.cube.get(), 1.0);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(
        (*direct)->QueryNode(server->codec().Encode({1, 1, 1}), &expected).ok());
    EXPECT_EQ(count, expected.count());
  }

  // Same query again: served from cache.
  lines = client.Roundtrip("QUERY A_L1,B_L1");
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines[0].find("HIT"), std::string::npos) << lines[0];

  // Iceberg and slice commands.
  lines = client.Roundtrip("ICEBERG A_L0 4");
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0].rfind("OK ", 0), 0u) << lines[0];
  lines = client.Roundtrip("SLICE A_L0,B_L0 A_L2=1 MINSUP 2");
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0].rfind("OK ", 0), 0u) << lines[0];

  // STATS reports the protocol traffic so far.
  lines = client.Roundtrip("STATS");
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0], "OK");
  std::string stats;
  for (const std::string& l : lines) stats += l + "\n";
  EXPECT_NE(stats.find("queries_total 4"), std::string::npos) << stats;
  EXPECT_NE(stats.find("cache_hits 1"), std::string::npos) << stats;

  // Errors keep the connection alive.
  lines = client.Roundtrip("FROBNICATE");
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0].rfind("ERR InvalidArgument", 0), 0u) << lines[0];
  lines = client.Roundtrip("QUERY bogus_level");
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0].rfind("ERR NotFound", 0), 0u) << lines[0];
  lines = client.Roundtrip("ICEBERG A_L0 nope");
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0].rfind("ERR InvalidArgument", 0), 0u) << lines[0];
  lines = client.Roundtrip("QUERY A_L0,B_L0");  // Still serving.
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0].rfind("OK ", 0), 0u) << lines[0];

  (*tcp)->Stop();
}

TEST(TcpLineServerTest, CodesTokenSkipsTheValueDecoder) {
  ServerFixture fx(300, 29);
  std::unique_ptr<CubeServer> server = fx.MakeServer();
  auto tcp = TcpLineServer::Start(
      server.get(), LineTransportOptions{}, [](int, int, uint32_t code) {
        std::string value = "v";
        value += std::to_string(code);
        return value;
      });
  ASSERT_TRUE(tcp.ok());

  // Decoded by default; codes=1 (in any position among the control tokens)
  // emits the same rows with raw codes, and the header is unchanged.
  const auto body = [](const std::string& response) {
    return response.substr(response.find('\n') + 1);
  };
  const auto header_fields = [](const std::string& response) {
    std::istringstream in(response);
    std::string ok, count, checksum;
    in >> ok >> count >> checksum;
    return ok + " " + count + " " + checksum;
  };
  for (const std::string verb : {"QUERY A_L1,B_L0", "BATCH A_L1,B_L0 ALL"}) {
    const std::string decoded = (*tcp)->HandleLine(verb + " trace=3");
    const std::string coded = (*tcp)->HandleLine(verb + " codes=1 trace=3");
    const std::string coded_last =
        (*tcp)->HandleLine(verb + " trace=3 codes=1");
    ASSERT_EQ(decoded.rfind("OK ", 0), 0u) << decoded;
    ASSERT_EQ(coded.rfind("OK ", 0), 0u) << coded;
    EXPECT_EQ(header_fields(coded), header_fields(decoded));
    EXPECT_EQ(coded, coded_last);
    EXPECT_NE(body(decoded).find('v'), std::string::npos) << decoded;
    EXPECT_EQ(body(coded).find('v'), std::string::npos) << coded;
    // Decoding the raw rows by hand reproduces the decoded reply exactly.
    std::string redecoded;
    std::istringstream lines(body(coded));
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("= ", 0) == 0 || line.find('\t') == std::string::npos) {
        redecoded += line + "\n";
        continue;
      }
      std::vector<std::string> fields;
      std::istringstream cells(line);
      for (std::string cell; std::getline(cells, cell, '\t');) {
        fields.push_back(cell);
      }
      const size_t dims = fields.size() - 2;  // MakeHier: SUM and COUNT
      for (size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) redecoded += '\t';
        redecoded += (i < dims ? "v" : "") + fields[i];
      }
      redecoded += "\n";
    }
    EXPECT_EQ(redecoded, body(decoded)) << verb;
  }
  EXPECT_EQ((*tcp)->HandleLine("QUERY A_L1 codes=yes").rfind(
                "ERR InvalidArgument", 0),
            0u);
  (*tcp)->Stop();
}

TEST(LineTransportTest, TurnsAwayConnectionsBeyondTheCap) {
  auto transport = serve::LineTransport::Start(
      [](const std::string& line) { return "OK " + line + "\n.\n"; },
      LineTransportOptions{});
  ASSERT_TRUE(transport.ok()) << transport.status().ToString();
  const int port = (*transport)->port();

  // A round trip on each client proves the transport accepted and counted
  // it before the next one connects.
  std::vector<std::unique_ptr<LineClient>> clients;
  for (int i = 0; i < serve::LineTransport::kMaxConnections; ++i) {
    clients.push_back(std::make_unique<LineClient>(port));
    ASSERT_TRUE(clients.back()->connected()) << i;
    ASSERT_EQ(clients.back()->Roundtrip("PING"),
              std::vector<std::string>{"OK PING"})
        << i;
  }
  LineClient extra(port);
  ASSERT_TRUE(extra.connected());
  EXPECT_EQ(extra.ReadResponse(),
            std::vector<std::string>{
                "ERR ResourceExhausted connection limit reached"});

  // The cap counts live connections: once the clients hang up, a new one is
  // served again (the handler threads finish asynchronously, so retry).
  clients.clear();
  std::vector<std::string> reply;
  for (int attempt = 0; attempt < 200; ++attempt) {
    LineClient again(port);
    ASSERT_TRUE(again.connected());
    reply = again.Roundtrip("PING");
    if (reply == std::vector<std::string>{"OK PING"}) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(reply, std::vector<std::string>{"OK PING"});
  (*transport)->Stop();
}

TEST(TcpLineServerTest, EchoesClientSuppliedTraceId) {
  ServerFixture fx(150, 30);
  std::unique_ptr<CubeServer> server = fx.MakeServer();
  auto tcp = TcpLineServer::Start(server.get(), LineTransportOptions{});
  ASSERT_TRUE(tcp.ok());

  // A client-supplied trace=<id> is adopted and echoed verbatim — the
  // contract a scatter–gather router relies on so one trace id spans the
  // whole fan-out. All three query verbs take the token.
  std::string response = (*tcp)->HandleLine("QUERY A_L2 trace=424242");
  EXPECT_EQ(response.rfind("OK ", 0), 0u) << response;
  EXPECT_NE(response.find(" trace=424242\n"), std::string::npos) << response;
  response = (*tcp)->HandleLine("ICEBERG A_L0 2 trace=777");
  EXPECT_NE(response.find(" trace=777\n"), std::string::npos) << response;
  response = (*tcp)->HandleLine("SLICE A_L0 A_L2=1 trace=778");
  EXPECT_NE(response.find(" trace=778\n"), std::string::npos) << response;
  response = (*tcp)->HandleLine("SLICE A_L0 A_L2=1 MINSUP 2 trace=779");
  EXPECT_NE(response.find(" trace=779\n"), std::string::npos) << response;

  // Without the token the server mints its own (non-zero) id.
  response = (*tcp)->HandleLine("QUERY A_L2");
  const size_t at = response.find(" trace=");
  ASSERT_NE(at, std::string::npos) << response;
  EXPECT_NE(response.substr(at, response.find('\n', at) - at), " trace=0");

  // Malformed ids are rejected, not silently ignored.
  EXPECT_EQ((*tcp)->HandleLine("QUERY A_L2 trace=abc")
                .rfind("ERR InvalidArgument", 0),
            0u);
  EXPECT_EQ((*tcp)->HandleLine("QUERY A_L2 trace=0")
                .rfind("ERR InvalidArgument", 0),
            0u);
}

TEST(TcpLineServerTest, ProfileTokenAppendsStageBreakdown) {
  ServerFixture fx(300, 31);
  CubeServerOptions options;
  options.cache_bytes = 1 << 20;
  std::unique_ptr<CubeServer> server = fx.MakeServer(options);
  auto tcp = TcpLineServer::Start(server.get(), LineTransportOptions{});
  ASSERT_TRUE(tcp.ok());

  const std::string response =
      (*tcp)->HandleLine("QUERY A_L1 trace=31337 profile=1");
  ASSERT_EQ(response.rfind("OK ", 0), 0u) << response;
  unsigned long long count = 0;
  ASSERT_EQ(std::sscanf(response.c_str(), "OK %llu", &count), 1);
  const size_t at = response.find("\n% profile stage=serve trace=31337 ");
  ASSERT_NE(at, std::string::npos) << response;
  for (const char* field :
       {"queue_wait_us=", "key_us=", "cache_us=", "execute_us=", "encode_us=",
        "total_us=", "cache=MISS", "version="}) {
    EXPECT_NE(response.find(field, at), std::string::npos) << field;
  }
  // The profile section rides BEHIND the rows: the header count must match
  // the non-"% " body lines exactly (a row-merging router skips "% " lines).
  std::istringstream in(response);
  std::string line;
  size_t rows = 0, profile_lines = 0;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));  // header
  while (std::getline(in, line) && line != ".") {
    if (line.rfind("% ", 0) == 0) {
      ++profile_lines;
    } else {
      ++rows;
    }
  }
  EXPECT_EQ(rows, count);
  EXPECT_GE(profile_lines, 1u);

  // A repeat is a cache hit, and the profile says so.
  const std::string hit = (*tcp)->HandleLine("QUERY A_L1 profile=1");
  EXPECT_NE(hit.find("% profile"), std::string::npos) << hit;
  EXPECT_NE(hit.find("cache=HIT"), std::string::npos) << hit;

  // Without the token nothing profile-shaped is attached.
  EXPECT_EQ((*tcp)->HandleLine("QUERY A_L1").find("% profile"),
            std::string::npos);
}

TEST(TcpLineServerTest, SlowlogRecordsOverThresholdQueries) {
  ServerFixture fx(300, 32);
  CubeServerOptions options;
  options.slow_query_seconds = 1e-9;  // Everything is over threshold.
  std::unique_ptr<CubeServer> server = fx.MakeServer(options);
  auto tcp = TcpLineServer::Start(server.get(), LineTransportOptions{});
  ASSERT_TRUE(tcp.ok());

  // Empty flight recorder: just the summary line.
  std::string dump = (*tcp)->HandleLine("SLOWLOG");
  ASSERT_EQ(dump.rfind("OK\n", 0), 0u) << dump;
  EXPECT_NE(dump.find("total 0 capacity "), std::string::npos) << dump;

  ASSERT_EQ((*tcp)->HandleLine("QUERY A_L1 trace=606").rfind("OK ", 0), 0u);
  dump = (*tcp)->HandleLine("SLOWLOG");
  EXPECT_NE(dump.find("#1 "), std::string::npos) << dump;
  EXPECT_NE(dump.find("trace=606"), std::string::npos) << dump;
  EXPECT_NE(dump.find("total_us="), std::string::npos) << dump;
  EXPECT_NE(dump.find("execute_us="), std::string::npos) << dump;

  EXPECT_EQ((*tcp)->HandleLine("SLOWLOG now").rfind("ERR InvalidArgument", 0),
            0u);
}

TEST(TcpLineServerTest, HandleLineRejectsMalformedCommands) {
  ServerFixture fx(100, 29);
  std::unique_ptr<CubeServer> server = fx.MakeServer();
  auto tcp = TcpLineServer::Start(server.get(), LineTransportOptions{});
  ASSERT_TRUE(tcp.ok());
  EXPECT_EQ((*tcp)->HandleLine("").rfind("ERR InvalidArgument", 0), 0u);
  EXPECT_EQ((*tcp)->HandleLine("QUERY").rfind("ERR InvalidArgument", 0), 0u);
  EXPECT_EQ((*tcp)->HandleLine("ICEBERG A_L0").rfind("ERR InvalidArgument", 0),
            0u);
  EXPECT_EQ(
      (*tcp)->HandleLine("ICEBERG A_L0 0").rfind("ERR InvalidArgument", 0), 0u);
  EXPECT_EQ((*tcp)->HandleLine("SLICE A_L0").rfind("ERR InvalidArgument", 0),
            0u);
  EXPECT_EQ(
      (*tcp)->HandleLine("SLICE A_L0 MINSUP 2").rfind("ERR InvalidArgument", 0),
      0u);
  EXPECT_EQ((*tcp)
                ->HandleLine("QUERY A_L0 trailing")
                .rfind("ERR InvalidArgument", 0),
            0u);
  // A well-formed line still works through the same entry point.
  EXPECT_EQ((*tcp)->HandleLine("QUERY A_L2").rfind("OK ", 0), 0u);
}

// ------------------------------------------------- semantic cache serving

namespace {

/// Response body (everything after the header line).
std::string Body(const std::string& response) {
  return response.substr(response.find('\n') + 1);
}

/// Parses "OK <count> <checksum-hex> ..." from a response header.
bool ParseOkHeader(const std::string& response, unsigned long long* count,
                   std::string* checksum) {
  char checksum_buf[32] = {0};
  if (std::sscanf(response.c_str(), "OK %llu %31s", count, checksum_buf) != 2) {
    return false;
  }
  *checksum = checksum_buf;
  return true;
}

}  // namespace

TEST(TcpLineServerTest, NavigationVerbsResolveOnTheLattice) {
  ServerFixture fx(400, 33);
  CubeServerOptions options;
  options.cache_bytes = 1 << 20;
  std::unique_ptr<CubeServer> server = fx.MakeServer(options);
  auto tcp = TcpLineServer::Start(server.get(), LineTransportOptions{});
  ASSERT_TRUE(tcp.ok());

  // DRILL from the apex enters dimension A at its coarsest level, and the
  // header announces where the navigation landed.
  std::string response = (*tcp)->HandleLine("DRILL ALL A");
  EXPECT_EQ(response.rfind("OK ", 0), 0u) << response;
  EXPECT_NE(response.find(" node=A_L2\n"), std::string::npos) << response;

  // ROLLUP one step up from A_L0 lands on A_L1 with rows byte-identical to
  // querying the landed node directly.
  const std::string direct = (*tcp)->HandleLine("QUERY A_L1");
  response = (*tcp)->HandleLine("ROLLUP A_L0 A");
  EXPECT_NE(response.find(" node=A_L1"), std::string::npos) << response;
  EXPECT_EQ(Body(response), Body(direct));

  // Slices and MINSUP ride along and are applied at the landed node.
  const std::string expected =
      (*tcp)->HandleLine("SLICE A_L0,B_L1 B_L1=1 MINSUP 2");
  response = (*tcp)->HandleLine("ROLLUP A_L0,B_L0 B B_L1=1 MINSUP 2");
  EXPECT_NE(response.find(" node=A_L0,B_L1"), std::string::npos) << response;
  EXPECT_EQ(Body(response), Body(expected));

  // Navigation off the lattice edge and unknown dimensions are errors.
  EXPECT_EQ((*tcp)->HandleLine("ROLLUP ALL A").rfind("ERR InvalidArgument", 0),
            0u);
  EXPECT_EQ((*tcp)->HandleLine("DRILL A_L0 A").rfind("ERR InvalidArgument", 0),
            0u);
  EXPECT_EQ((*tcp)->HandleLine("ROLLUP A_L0 Z").rfind("ERR NotFound", 0), 0u);
  EXPECT_EQ((*tcp)->HandleLine("ROLLUP A_L0").rfind("ERR InvalidArgument", 0),
            0u);
}

TEST(TcpLineServerTest, TopKSelectsDeterministically) {
  ServerFixture fx(500, 34);
  CubeServerOptions options;
  options.cache_bytes = 1 << 20;
  std::unique_ptr<CubeServer> server = fx.MakeServer(options);
  auto tcp = TcpLineServer::Start(server.get(), LineTransportOptions{});
  ASSERT_TRUE(tcp.ok());

  const std::string response = (*tcp)->HandleLine("TOPK A_L0,B_L0 5");
  ASSERT_EQ(response.rfind("OK 5 ", 0), 0u) << response;
  // 5 rows + "." terminator line.
  EXPECT_EQ(std::count(response.begin(), response.end(), '\n'), 7);

  // The second run is served from the cache (exact or semantic); selection
  // over the full deterministic result makes the response body identical.
  const std::string again = (*tcp)->HandleLine("TOPK A_L0,B_L0 5");
  EXPECT_EQ(Body(again), Body(response));

  // k larger than the result returns everything.
  unsigned long long full_count = 0;
  std::string checksum;
  ASSERT_TRUE(
      ParseOkHeader((*tcp)->HandleLine("QUERY B_L0"), &full_count, &checksum));
  unsigned long long top_count = 0;
  ASSERT_TRUE(ParseOkHeader((*tcp)->HandleLine("TOPK B_L0 1000000"), &top_count,
                            &checksum));
  EXPECT_EQ(top_count, full_count);

  EXPECT_EQ((*tcp)->HandleLine("TOPK A_L0 0").rfind("ERR InvalidArgument", 0),
            0u);
  EXPECT_EQ((*tcp)
                ->HandleLine("TOPK A_L0 3 MINSUP 2")
                .rfind("ERR InvalidArgument", 0),
            0u);
}

TEST(TcpLineServerTest, BatchRunsSectionsInInputOrder) {
  ServerFixture fx(400, 35);
  CubeServerOptions options;
  options.cache_bytes = 4 << 20;
  // The fixture cube is tiny; without this the probe-skip threshold would
  // route every member to the (cheap) engine instead of deriving.
  options.semantic_min_scan_rows = 0;
  std::unique_ptr<CubeServer> server = fx.MakeServer(options);
  auto tcp = TcpLineServer::Start(server.get(), LineTransportOptions{});
  ASSERT_TRUE(tcp.ok());

  const std::string response =
      (*tcp)->HandleLine("BATCH A_L1 A_L0,B_L0 ALL");
  ASSERT_EQ(response.rfind("OK 3 ", 0), 0u) << response;
  EXPECT_NE(response.find(" BATCH trace="), std::string::npos) << response;

  // Sections appear in input order; their checksums XOR to the top header's.
  std::istringstream in(response);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  unsigned long long combined = 0;
  {
    char checksum_buf[32] = {0};
    unsigned long long n = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "OK %llu %31s", &n, checksum_buf), 2);
    combined = std::strtoull(checksum_buf, nullptr, 16);
  }
  std::vector<std::string> specs;
  unsigned long long xor_sections = 0, section_rows = 0, seen_rows = 0;
  while (std::getline(in, line)) {
    if (line == ".") break;
    if (line.rfind("= ", 0) == 0) {
      EXPECT_EQ(seen_rows, section_rows) << line;
      char spec[64] = {0}, checksum_buf[32] = {0}, token[16] = {0};
      ASSERT_EQ(std::sscanf(line.c_str(), "= %63s %llu %31s %15s", spec,
                            &section_rows, checksum_buf, token),
                4);
      specs.push_back(spec);
      xor_sections ^= std::strtoull(checksum_buf, nullptr, 16);
      seen_rows = 0;
    } else {
      ++seen_rows;
    }
  }
  EXPECT_EQ(seen_rows, section_rows);
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0], "A_L1");
  EXPECT_EQ(specs[1], "A_L0,B_L0");
  EXPECT_EQ(specs[2], "ALL");
  EXPECT_EQ(xor_sections, combined);

  // The batch executed most-detailed-first, so the coarse members were
  // answered from the fine one's just-cached result.
  EXPECT_GT(server->semantic_cache()->stats().semantic_hits, 0u);

  EXPECT_EQ((*tcp)->HandleLine("BATCH").rfind("ERR InvalidArgument", 0), 0u);
  EXPECT_EQ((*tcp)->HandleLine("BATCH bogus").rfind("ERR NotFound", 0), 0u);
}

/// The ISSUE's core soundness bar: every semantically-answered response must
/// be byte-identical (rows AND order-independent checksum) to the cache-off
/// engine path.
TEST(TcpLineServerTest, DrillDownSessionIsByteIdenticalToCacheOff) {
  ServerFixture fx(700, 36);
  CubeServerOptions semantic_options;
  semantic_options.cache_bytes = 8 << 20;
  // Small fixture cube: disable the probe-skip threshold so derivations
  // fire (production sizes clear it naturally).
  semantic_options.semantic_min_scan_rows = 0;
  std::unique_ptr<CubeServer> semantic_server = fx.MakeServer(semantic_options);
  auto semantic_tcp =
      TcpLineServer::Start(semantic_server.get(), LineTransportOptions{});
  ASSERT_TRUE(semantic_tcp.ok());
  CubeServerOptions off_options;
  off_options.cache_bytes = 0;  // every query runs the engine
  std::unique_ptr<CubeServer> off_server = fx.MakeServer(off_options);
  auto off_tcp = TcpLineServer::Start(off_server.get(), LineTransportOptions{});
  ASSERT_TRUE(off_tcp.ok());

  // An analyst drill-down session: start coarse, drill in, narrow, roll
  // back up, revisit. Later steps are derivable from earlier, finer ones.
  const char* kSession[] = {
      "QUERY A_L0,B_L0,C_L0",  // the fine anchor lands in the cache first
      "QUERY ALL",
      "DRILL ALL A",
      "DRILL A_L2 B",
      "SLICE A_L2,B_L1 B_L1=1",
      "DRILL A_L2,B_L1 A",
      "ROLLUP A_L1,B_L1 B",
      "QUERY A_L1,B_L1,C_L0",
      "ROLLUP A_L1,B_L1,C_L0 C",
      "SLICE A_L1,B_L0 A_L2=1 MINSUP 2",
      "TOPK A_L1,C_L0 4",
      "BATCH A_L0 A_L1 A_L2 ALL",
  };
  // The response rows as a sorted multiset, with the HIT|SEMANTIC|MISS
  // token stripped from BATCH section headers — exactly the normalization
  // the CI smoke test applies before diffing. Row ORDER may differ between
  // the engine and derivation paths; the row SET and the
  // order-independent checksums must not.
  auto sorted_rows = [](const std::string& response) {
    std::vector<std::string> rows;
    std::istringstream in(Body(response));
    std::string line;
    while (std::getline(in, line)) {
      if (line == ".") continue;
      if (line.rfind("= ", 0) == 0) {
        line.erase(line.find_last_of(' '));  // cache token
      }
      rows.push_back(line);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  for (const char* command : kSession) {
    const std::string with = (*semantic_tcp)->HandleLine(command);
    const std::string without = (*off_tcp)->HandleLine(command);
    ASSERT_EQ(with.rfind("OK ", 0), 0u) << command << " -> " << with;
    EXPECT_EQ(sorted_rows(with), sorted_rows(without)) << command;
    unsigned long long count_with = 0, count_without = 0;
    std::string checksum_with, checksum_without;
    ASSERT_TRUE(ParseOkHeader(with, &count_with, &checksum_with));
    ASSERT_TRUE(ParseOkHeader(without, &count_without, &checksum_without));
    EXPECT_EQ(count_with, count_without) << command;
    EXPECT_EQ(checksum_with, checksum_without) << command;
  }

  // The session genuinely exercised the semantic path on the cached server
  // and never on the cache-off one.
  EXPECT_GT(semantic_server->semantic_cache()->stats().semantic_hits, 0u);
  EXPECT_EQ(off_server->semantic_cache()->stats().semantic_hits, 0u);

  // METRICS exports the semantic series.
  const std::string metrics = (*semantic_tcp)->HandleLine("METRICS");
  EXPECT_NE(metrics.find("cure_serve_cache_semantic_hits"), std::string::npos);
  EXPECT_NE(metrics.find("cure_serve_cache_rollup_rows"), std::string::npos);
}

/// --no-semantic (semantic_cache = false) degrades to the exact-key cache:
/// still correct, never derives.
TEST(TcpLineServerTest, SemanticDisabledStillServesExactly) {
  ServerFixture fx(300, 37);
  CubeServerOptions options;
  options.cache_bytes = 4 << 20;
  options.semantic_cache = false;
  std::unique_ptr<CubeServer> server = fx.MakeServer(options);
  auto tcp = TcpLineServer::Start(server.get(), LineTransportOptions{});
  ASSERT_TRUE(tcp.ok());

  const std::string fine = (*tcp)->HandleLine("QUERY A_L0,B_L0");
  ASSERT_EQ(fine.rfind("OK ", 0), 0u);
  const std::string coarse = (*tcp)->HandleLine("QUERY A_L1");
  ASSERT_EQ(coarse.rfind("OK ", 0), 0u);
  EXPECT_NE(coarse.find(" MISS "), std::string::npos) << coarse;
  const std::string again = (*tcp)->HandleLine("QUERY A_L1");
  EXPECT_NE(again.find(" HIT "), std::string::npos) << again;
  EXPECT_EQ(server->semantic_cache()->stats().semantic_hits, 0u);
  EXPECT_EQ(server->semantic_cache()->stats().semantic_misses, 0u);
}

// A response far larger than the socket buffer must arrive complete: the
// server's WriteAll loop has to survive partial send(2) returns while the
// client's tiny receive window keeps the kernel buffers full.
TEST(TcpLineServerTest, StreamsResponsesLargerThanTheSocketBuffer) {
  gen::Dataset ds;
  {
    std::vector<schema::Dimension> dims;
    dims.push_back(schema::Dimension::Flat("A", 4000));
    dims.push_back(schema::Dimension::Flat("B", 32));
    auto schema = schema::CubeSchema::Create(
        std::move(dims), 1,
        {{schema::AggFn::kSum, 0, "s"}, {schema::AggFn::kCount, 0, "c"}});
    ASSERT_TRUE(schema.ok());
    ds.schema = std::move(schema).value();
    ds.table = schema::FactTable(2, 1);
    gen::Rng rng(31);
    for (uint64_t t = 0; t < 50000; ++t) {
      const uint32_t row[2] = {static_cast<uint32_t>(rng.NextRange(4000)),
                               static_cast<uint32_t>(rng.NextRange(32))};
      const int64_t m = static_cast<int64_t>(rng.NextRange(100));
      ds.table.AppendRow(row, &m);
    }
  }
  CureOptions build;
  FactInput input{.table = &ds.table};
  auto cube = BuildCure(ds.schema, input, build);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  CubeServerOptions options;
  options.num_threads = 2;
  auto server = CubeServer::Create(cube->get(), options);
  ASSERT_TRUE(server.ok());
  auto tcp = TcpLineServer::Start(server->get(), LineTransportOptions{});
  ASSERT_TRUE(tcp.ok());

  // Shrink the client's receive buffer *before* connect so the advertised
  // window is small and the server cannot hand the whole response to the
  // kernel in one call.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 2048;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>((*tcp)->port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  const std::string request = "QUERY A_L0,B_L0\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[4096];
  while (response.rfind("\n.\n") == std::string::npos ||
         response.rfind("\n.\n") != response.size() - 3) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << "connection closed after " << response.size()
                    << " bytes";
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);

  // The full tab-separated result set arrived intact.
  unsigned long long count = 0;
  ASSERT_EQ(std::sscanf(response.c_str(), "OK %llu", &count), 1)
      << response.substr(0, 64);
  uint64_t newlines = 0;
  for (char c : response) newlines += c == '\n';
  EXPECT_EQ(newlines, count + 2);  // header + rows + "." terminator
  {
    ResultSink expected;
    auto direct = CureQueryEngine::Create(cube->get(), 1.0);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(
        (*direct)->QueryNode(server->get()->codec().Encode({0, 0}), &expected)
            .ok());
    EXPECT_EQ(count, expected.count());
  }
  EXPECT_GT(response.size(), 256u * 1024);  // genuinely bigger than a buffer
  (*tcp)->Stop();
}

}  // namespace
}  // namespace cure
