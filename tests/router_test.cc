#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/cure.h"
#include "gen/datasets.h"
#include "gen/random.h"
#include "gen/zipf.h"
#include "query/node_query.h"
#include "router/backend_client.h"
#include "router/merge.h"
#include "router/router.h"
#include "router/shard_map.h"
#include "serve/cube_server.h"
#include "serve/line_transport.h"
#include "serve/tcp_server.h"

namespace cure {
namespace {

using engine::BuildCure;
using engine::CureOptions;
using engine::FactInput;
using query::CureQueryEngine;
using query::ResultSink;
using router::BackendAddress;
using router::BackendReply;
using router::CureRouter;
using router::ParseBackendAddress;
using router::ParseBackendReply;
using router::PartialMerger;
using router::RouterOptions;
using router::ShardMap;
using schema::NodeId;
using serve::CubeServer;
using serve::CubeServerOptions;
using serve::LineTransport;
using serve::LineTransportOptions;
using serve::TcpLineServer;
using serve::TcpServerOptions;

/// Zipf-skewed hierarchical dataset with all four distributive aggregates —
/// the shape the re-aggregation proof needs (SUM/COUNT/MIN/MAX over skewed
/// keys, so per-shard partials genuinely overlap on hot groups).
gen::Dataset MakeZipfHier(uint64_t tuples, uint64_t seed) {
  gen::Dataset ds;
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Linear("A", {24, 6, 2}));
  dims.push_back(schema::Dimension::Linear("B", {9, 3}));
  dims.push_back(schema::Dimension::Flat("C", 5));
  auto schema = schema::CubeSchema::Create(
      std::move(dims), 1,
      {{schema::AggFn::kSum, 0, "s"},
       {schema::AggFn::kCount, 0, "c"},
       {schema::AggFn::kMin, 0, "lo"},
       {schema::AggFn::kMax, 0, "hi"}});
  EXPECT_TRUE(schema.ok());
  ds.schema = std::move(schema).value();
  ds.table = schema::FactTable(3, 1);
  gen::Rng rng(seed);
  gen::ZipfSampler za(24, 1.1), zb(9, 0.9), zc(5, 0.7);
  for (uint64_t t = 0; t < tuples; ++t) {
    const uint32_t row[3] = {za.Sample(&rng), zb.Sample(&rng), zc.Sample(&rng)};
    const int64_t m = static_cast<int64_t>(rng.NextRange(1000));
    ds.table.AppendRow(row, &m);
  }
  return ds;
}

/// Splits a fact table into `parts` contiguous disjoint row ranges — the
/// same partitioning `cure_tool shard` applies.
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

std::unique_ptr<engine::CureCube> BuildCubeFor(
    const schema::CubeSchema& schema, const schema::FactTable& table) {
  FactInput input{.table = &table};
  auto built = BuildCure(schema, input, CureOptions{});
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

// ---------------------------------------------------------------- shard map

TEST(ShardMapTest, ParsesAddresses) {
  auto full = ParseBackendAddress("10.0.0.2:7101");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->host, "10.0.0.2");
  EXPECT_EQ(full->port, 7101);
  auto bare = ParseBackendAddress("7102");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->host, "127.0.0.1");
  EXPECT_EQ(bare->port, 7102);
  EXPECT_FALSE(ParseBackendAddress("host:").ok());
  EXPECT_FALSE(ParseBackendAddress(":99").ok());
  EXPECT_FALSE(ParseBackendAddress("host:notaport").ok());
  EXPECT_FALSE(ParseBackendAddress("host:70000").ok());
  EXPECT_FALSE(ParseBackendAddress("").ok());
}

TEST(ShardMapTest, SerializeParseRoundTrip) {
  ShardMap map;
  map.shards = {{{"127.0.0.1", 7101}, {"127.0.0.1", 7102}},
                {{"127.0.0.1", 7103}, {"127.0.0.1", 7104}}};
  ASSERT_TRUE(map.Validate().ok());
  auto parsed = ShardMap::Parse(map.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_shards(), 2);
  EXPECT_EQ(parsed->shards[0][1].port, 7102);
  EXPECT_EQ(parsed->shards[1][0].port, 7103);
}

TEST(ShardMapTest, ParseToleratesCommentsAndBlankLines) {
  auto parsed = ShardMap::Parse(
      "# cluster for the smoke test\ncure-cluster v1\n\n"
      "shard 127.0.0.1:7101\n  # second shard\nshard 7103 7104\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_shards(), 2);
  EXPECT_EQ(parsed->num_replicas(1), 2);
}

TEST(ShardMapTest, RejectsMalformedMaps) {
  EXPECT_FALSE(ShardMap::Parse("").ok());                        // no header
  EXPECT_FALSE(ShardMap::Parse("shard 7101\n").ok());            // no header
  EXPECT_FALSE(ShardMap::Parse("cure-cluster v1\n").ok());       // no shards
  EXPECT_FALSE(ShardMap::Parse("cure-cluster v1\nshard\n").ok());  // empty
  EXPECT_FALSE(
      ShardMap::Parse("cure-cluster v1\nshard 7101\nshard 7101\n").ok());
  EXPECT_FALSE(
      ShardMap::Parse("cure-cluster v1\nreplica 7101\n").ok());  // keyword
}

// ----------------------------------------------------------- reply parsing

TEST(BackendReplyTest, ParsesOkHeaderAndRows) {
  const BackendReply reply = ParseBackendReply(
      "OK 2 00000000deadbeef HIT trace=77\n1\t2\t30\t3\n4\t5\t60\t6\n");
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  EXPECT_EQ(reply.count, 2u);
  EXPECT_EQ(reply.checksum, 0xdeadbeefull);
  EXPECT_TRUE(reply.cache_hit);
  EXPECT_EQ(reply.trace_id, 77u);
  ASSERT_EQ(reply.rows.size(), 2u);
  EXPECT_EQ(reply.rows[0], "1\t2\t30\t3");
}

TEST(BackendReplyTest, MapsErrorCodeNames) {
  EXPECT_EQ(ParseBackendReply("ERR IOError read failed").status.code(),
            StatusCode::kIoError);
  EXPECT_EQ(ParseBackendReply("ERR DataLoss checksum mismatch").status.code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(ParseBackendReply("ERR NotFound no such node").status.code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      ParseBackendReply("ERR SomeFutureCode whatever").status.code(),
      StatusCode::kInternal);
  EXPECT_EQ(ParseBackendReply("garbage").status.code(), StatusCode::kIoError);
  EXPECT_EQ(ParseBackendReply("").status.code(), StatusCode::kIoError);
}

// --------------------------------------------------------------- the merge

/// Satellite: merging per-shard partials over disjoint fact partitions must
/// be bit-identical to the single-node cube — every lattice node, rows and
/// order-independent checksum, for SUM/COUNT/MIN/MAX over Zipf data.
TEST(PartialMergerTest, ShardMergeBitIdenticalToSingleNodeAcrossLattice) {
  gen::Dataset ds = MakeZipfHier(3000, 97);
  auto whole = BuildCubeFor(ds.schema, ds.table);
  auto whole_engine = CureQueryEngine::Create(whole.get(), 1.0);
  ASSERT_TRUE(whole_engine.ok());

  const std::vector<schema::FactTable> parts = SplitTable(ds.table, 3);
  std::vector<std::unique_ptr<engine::CureCube>> shard_cubes;
  std::vector<std::unique_ptr<CureQueryEngine>> shard_engines;
  for (const auto& part : parts) {
    shard_cubes.push_back(BuildCubeFor(ds.schema, part));
    auto engine = CureQueryEngine::Create(shard_cubes.back().get(), 1.0);
    ASSERT_TRUE(engine.ok());
    shard_engines.push_back(std::move(engine).value());
  }

  const schema::NodeIdCodec& codec = whole->store().codec();
  for (NodeId node = 0; node < codec.num_nodes(); ++node) {
    ResultSink expected(/*retain=*/true);
    ASSERT_TRUE((*whole_engine)->QueryNode(node, &expected).ok());

    PartialMerger merger(ds.schema);
    for (const auto& engine : shard_engines) {
      ResultSink partial(/*retain=*/true);
      ASSERT_TRUE(engine->QueryNode(node, &partial).ok());
      for (const ResultSink::Row& row : partial.rows()) {
        merger.Add(row.dims, row.aggrs.data());
      }
    }
    ResultSink merged(/*retain=*/true);
    ASSERT_TRUE(merger.Finish(-1, 0, &merged).ok());

    EXPECT_EQ(merged.count(), expected.count()) << "node " << node;
    EXPECT_EQ(merged.checksum(), expected.checksum()) << "node " << node;
  }
}

/// Satellite: post-merge iceberg. The threshold must apply to the MERGED
/// counts; a group can clear MINSUP globally while clearing it on no single
/// shard.
TEST(PartialMergerTest, IcebergThresholdAppliesAfterMergeOnly) {
  auto schema = schema::CubeSchema::Create(
      {schema::Dimension::Flat("D", 8)}, 1,
      {{schema::AggFn::kSum, 0, "s"}, {schema::AggFn::kCount, 0, "c"}});
  ASSERT_TRUE(schema.ok());

  PartialMerger merger(*schema);
  // Group {1}: count 2 on each of two shards — fails MINSUP 3 per shard,
  // clears it after the merge (4 >= 3).
  const int64_t shard_a[2] = {10, 2};
  const int64_t shard_b[2] = {5, 2};
  merger.Add({1}, shard_a);
  merger.Add({1}, shard_b);
  // Group {2}: count 2 on one shard only — must be filtered out.
  const int64_t lone[2] = {7, 2};
  merger.Add({2}, lone);

  ResultSink sink(/*retain=*/true);
  ASSERT_TRUE(merger.Finish(/*count_aggregate=*/1, /*min_count=*/3, &sink).ok());
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_EQ(sink.rows()[0].dims[0], 1u);
  EXPECT_EQ(sink.rows()[0].aggrs[0], 15);  // SUM merged
  EXPECT_EQ(sink.rows()[0].aggrs[1], 4);   // COUNT merged

  // An iceberg threshold without a COUNT aggregate is refused.
  ResultSink bad;
  EXPECT_EQ(merger.Finish(-1, 3, &bad).code(), StatusCode::kFailedPrecondition);
}

TEST(PartialMergerTest, IcebergMatchesSingleNodeEngine) {
  gen::Dataset ds = MakeZipfHier(2500, 131);
  auto whole = BuildCubeFor(ds.schema, ds.table);
  auto whole_engine = CureQueryEngine::Create(whole.get(), 1.0);
  ASSERT_TRUE(whole_engine.ok());
  const std::vector<schema::FactTable> parts = SplitTable(ds.table, 3);

  const NodeId node = whole->store().codec().Encode({0, 0, 0});
  for (const int64_t minsup : {2, 5, 20}) {
    ResultSink expected(/*retain=*/true);
    ASSERT_TRUE((*whole_engine)
                    ->QueryNodeCountIceberg(node, /*count_aggregate=*/1,
                                            minsup, &expected)
                    .ok());
    PartialMerger merger(ds.schema);
    for (const auto& part : parts) {
      auto cube = BuildCubeFor(ds.schema, part);
      auto engine = CureQueryEngine::Create(cube.get(), 1.0);
      ASSERT_TRUE(engine.ok());
      ResultSink partial(/*retain=*/true);
      // The scattered query is NOT an iceberg query — thresholds only after
      // the merge.
      ASSERT_TRUE((*engine)->QueryNode(node, &partial).ok());
      for (const ResultSink::Row& row : partial.rows()) {
        merger.Add(row.dims, row.aggrs.data());
      }
    }
    ResultSink merged(/*retain=*/true);
    ASSERT_TRUE(merger.Finish(1, minsup, &merged).ok());
    EXPECT_EQ(merged.count(), expected.count()) << "minsup " << minsup;
    EXPECT_EQ(merged.checksum(), expected.checksum()) << "minsup " << minsup;
  }
}

// ------------------------------------------------------------ replica pick

TEST(CureRouterTest, ReplicaPickPrefersVersionThenStalenessThenRotates) {
  gen::Dataset ds = MakeZipfHier(50, 3);
  ShardMap map;
  map.shards = {{{"127.0.0.1", 7101}, {"127.0.0.1", 7102}, {"127.0.0.1", 7103}}};
  auto router = CureRouter::Create(&ds.schema, map, RouterOptions{});
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  // Highest cube_version wins; staleness breaks the tie.
  (*router)->OverrideReplicaFreshnessForTest(0, 0, /*version=*/5, /*stale=*/10);
  (*router)->OverrideReplicaFreshnessForTest(0, 1, /*version=*/7, /*stale=*/3);
  (*router)->OverrideReplicaFreshnessForTest(0, 2, /*version=*/7, /*stale=*/1);
  std::vector<int> order = (*router)->ReplicaOrderForTest(0);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2);  // v7, freshest
  EXPECT_EQ(order[1], 1);  // v7, staler
  EXPECT_EQ(order[2], 0);  // v5

  // All equal: successive picks rotate round-robin.
  (*router)->OverrideReplicaFreshnessForTest(0, 0, 7, 1);
  (*router)->OverrideReplicaFreshnessForTest(0, 1, 7, 1);
  (*router)->OverrideReplicaFreshnessForTest(0, 2, 7, 1);
  std::vector<int> firsts;
  for (int i = 0; i < 3; ++i) {
    firsts.push_back((*router)->ReplicaOrderForTest(0)[0]);
  }
  std::sort(firsts.begin(), firsts.end());
  EXPECT_EQ(firsts, (std::vector<int>{0, 1, 2}));
}

// ------------------------------------------- failure handling (fake peers)

/// A scriptable line-protocol backend: answers STATS like a healthy
/// cure_serve and query verbs with whatever the test programs.
class FakeBackend {
 public:
  explicit FakeBackend(std::string query_response)
      : query_response_(std::move(query_response)) {
    auto transport = LineTransport::Start(
        [this](const std::string& line) { return Handle(line); },
        LineTransportOptions{});
    EXPECT_TRUE(transport.ok()) << transport.status().ToString();
    transport_ = std::move(transport).value();
  }

  int port() const { return transport_->port(); }
  void set_query_response(const std::string& response) {
    std::lock_guard<std::mutex> lock(mu_);
    query_response_ = response;
  }
  std::string last_query_line() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_query_line_;
  }
  int queries_seen() const { return queries_seen_.load(); }
  void Stop() { transport_->Stop(); }

 private:
  std::string Handle(const std::string& line) {
    if (line.rfind("STATS", 0) == 0) {
      return "OK\ncube_version 3\nstaleness_seconds 0\n.\n";
    }
    queries_seen_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    last_query_line_ = line;
    return query_response_;
  }

  mutable std::mutex mu_;
  std::string query_response_;
  std::string last_query_line_;
  std::atomic<int> queries_seen_{0};
  std::unique_ptr<LineTransport> transport_;
};

struct FakePairFixture {
  gen::Dataset ds = MakeZipfHier(50, 5);
  FakeBackend bad;
  FakeBackend good;
  std::unique_ptr<CureRouter> router;

  /// One shard, two replicas: replica 0 scripted with `bad_response`,
  /// replica 1 healthy. `ds.schema` has 4 aggregates, so an ALL row is
  /// "s<TAB>c<TAB>lo<TAB>hi".
  explicit FakePairFixture(const std::string& bad_response)
      : bad(bad_response),
        good("OK 1 0000000000000001 MISS trace=1\n10\t2\t3\t7\n.\n") {
    ShardMap map;
    map.shards = {{{"127.0.0.1", bad.port()}, {"127.0.0.1", good.port()}}};
    // Freeze the rotation so replica 0 (bad) is always tried first.
    auto created = CureRouter::Create(&ds.schema, map, RouterOptions{});
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    router = std::move(created).value();
    router->OverrideReplicaFreshnessForTest(0, 0, /*version=*/9, /*stale=*/0);
    router->OverrideReplicaFreshnessForTest(0, 1, /*version=*/1, /*stale=*/9);
  }
};

TEST(CureRouterTest, RetriesNextReplicaOnIoError) {
  FakePairFixture fx("ERR IOError injected read failure\n.\n");
  const std::string response = fx.router->HandleLine("QUERY ALL");
  EXPECT_EQ(response.rfind("OK 1 ", 0), 0u) << response;
  EXPECT_NE(response.find("10\t2\t3\t7"), std::string::npos) << response;
  EXPECT_EQ(fx.router->metrics()->counter("backend_retries_total")->value(), 1u);
  // The failed replica is DOWN, not ejected — a later probe may restore it.
  const std::string health = fx.router->HandleLine("HEALTH");
  EXPECT_NE(health.find("replica 0 127.0.0.1:" +
                        std::to_string(fx.bad.port()) + " DOWN"),
            std::string::npos)
      << health;
  fx.bad.set_query_response("OK 0 0000000000000000 MISS trace=1\n.\n");
  fx.router->ProbeHealth();
  EXPECT_NE(fx.router->HandleLine("HEALTH").find("replica 0"), std::string::npos);
  EXPECT_EQ(fx.router->HandleLine("HEALTH").find("DOWN"), std::string::npos);
}

TEST(CureRouterTest, EjectsReplicaOnDataLossPermanently) {
  FakePairFixture fx("ERR DataLoss cube section checksum mismatch\n.\n");
  const std::string response = fx.router->HandleLine("QUERY ALL");
  EXPECT_EQ(response.rfind("OK 1 ", 0), 0u) << response;
  std::string health = fx.router->HandleLine("HEALTH");
  EXPECT_NE(health.find("EJECTED"), std::string::npos) << health;
  EXPECT_EQ(fx.router->metrics()->counter("replicas_ejected_total")->value(), 1u);

  // Health probes do NOT resurrect an ejected replica (its STATS would
  // answer OK — the process is fine, the data is not).
  fx.router->ProbeHealth();
  health = fx.router->HandleLine("HEALTH");
  EXPECT_NE(health.find("EJECTED"), std::string::npos) << health;

  // Subsequent queries no longer touch it.
  const int before = fx.bad.queries_seen();
  EXPECT_EQ(fx.router->HandleLine("QUERY ALL").rfind("OK 1 ", 0), 0u);
  EXPECT_EQ(fx.bad.queries_seen(), before);
}

TEST(CureRouterTest, DeterministicErrorsFailFastWithoutFailover) {
  FakePairFixture fx("ERR NotFound node relation missing\n.\n");
  const std::string response = fx.router->HandleLine("QUERY ALL");
  EXPECT_EQ(response.rfind("ERR NotFound", 0), 0u) << response;
  // No retry burned, nobody marked down or ejected.
  EXPECT_EQ(fx.router->metrics()->counter("backend_retries_total")->value(), 0u);
  const std::string health = fx.router->HandleLine("HEALTH");
  EXPECT_EQ(health.find("DOWN"), std::string::npos) << health;
  EXPECT_EQ(health.find("EJECTED"), std::string::npos) << health;
}

TEST(CureRouterTest, PropagatesClientTraceIdToBackendsAndResponse) {
  FakePairFixture fx("ERR IOError nope\n.\n");
  const std::string response = fx.router->HandleLine("QUERY ALL trace=424242");
  EXPECT_NE(response.find(" trace=424242\n"), std::string::npos) << response;
  // The scattered backend line carries the same id (read from the replica
  // that served it).
  EXPECT_NE(fx.good.last_query_line().find("trace=424242"), std::string::npos)
      << fx.good.last_query_line();
  // Malformed ids are rejected, not silently re-minted.
  EXPECT_EQ(fx.router->HandleLine("QUERY ALL trace=abc").rfind(
                "ERR InvalidArgument", 0),
            0u);
}

TEST(CureRouterTest, ShardUnavailableWhenAllReplicasFail) {
  FakeBackend a("ERR IOError a\n.\n");
  FakeBackend b("ERR IOError b\n.\n");
  gen::Dataset ds = MakeZipfHier(50, 6);
  ShardMap map;
  map.shards = {{{"127.0.0.1", a.port()}, {"127.0.0.1", b.port()}}};
  auto router = CureRouter::Create(&ds.schema, map, RouterOptions{});
  ASSERT_TRUE(router.ok());
  const std::string response = (*router)->HandleLine("QUERY ALL");
  EXPECT_EQ(response.rfind("ERR IOError", 0), 0u) << response;
  EXPECT_NE(response.find("exhausted all replicas"), std::string::npos)
      << response;
}

// ------------------------------------------------------- loopback capstone

/// Parses a full protocol response into (ok, count, checksum token, rows).
struct ParsedResponse {
  bool ok = false;
  uint64_t count = 0;
  std::string checksum;
  std::vector<std::string> rows;  // sorted
};

ParsedResponse ParseResponse(const std::string& response) {
  ParsedResponse out;
  std::istringstream in(response);
  std::string header;
  EXPECT_TRUE(static_cast<bool>(std::getline(in, header)));
  std::istringstream fields(header);
  std::string verdict;
  fields >> verdict;
  out.ok = verdict == "OK";
  if (!out.ok) return out;
  fields >> out.count >> out.checksum;
  std::string row;
  while (std::getline(in, row)) {
    if (row == ".") break;
    out.rows.push_back(row);
  }
  std::sort(out.rows.begin(), out.rows.end());
  return out;
}

/// The tentpole acceptance fixture: a 3-shard × 2-replica loopback cluster
/// of real CubeServers/TcpLineServers next to a single-node server over the
/// unpartitioned fact table.
struct ClusterFixture {
  gen::Dataset ds;
  // The cubes reference their fact tables; the partitions must outlive them.
  std::vector<schema::FactTable> parts;
  std::unique_ptr<engine::CureCube> whole_cube;
  std::unique_ptr<CubeServer> whole_server;
  std::unique_ptr<TcpLineServer> whole_tcp;

  std::vector<std::unique_ptr<engine::CureCube>> shard_cubes;
  // [shard][replica] — two independent server stacks per shard cube.
  std::vector<std::vector<std::unique_ptr<CubeServer>>> servers;
  std::vector<std::vector<std::unique_ptr<TcpLineServer>>> tcps;
  std::unique_ptr<CureRouter> router;

  explicit ClusterFixture(uint64_t tuples = 2400, uint64_t seed = 77) {
    ds = MakeZipfHier(tuples, seed);
    whole_cube = BuildCubeFor(ds.schema, ds.table);
    whole_server = MakeServer(whole_cube.get());
    whole_tcp = MakeTcp(whole_server.get());

    ShardMap map;
    parts = SplitTable(ds.table, 3);
    for (const auto& part : parts) {
      shard_cubes.push_back(BuildCubeFor(ds.schema, part));
      servers.emplace_back();
      tcps.emplace_back();
      std::vector<BackendAddress> replicas;
      for (int r = 0; r < 2; ++r) {
        servers.back().push_back(MakeServer(shard_cubes.back().get()));
        tcps.back().push_back(MakeTcp(servers.back().back().get()));
        replicas.push_back({"127.0.0.1", tcps.back().back()->port()});
      }
      map.shards.push_back(std::move(replicas));
    }
    auto created = CureRouter::Create(&ds.schema, map, RouterOptions{});
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    router = std::move(created).value();
  }

  static std::unique_ptr<CubeServer> MakeServer(const engine::CureCube* cube) {
    CubeServerOptions options;
    options.num_threads = 2;
    auto server = CubeServer::Create(cube, options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return std::move(server).value();
  }

  static std::unique_ptr<TcpLineServer> MakeTcp(CubeServer* server) {
    auto tcp = TcpLineServer::Start(server, TcpServerOptions{});
    EXPECT_TRUE(tcp.ok()) << tcp.status().ToString();
    return std::move(tcp).value();
  }

  /// Asserts the router's answer is byte-identical (rows + checksum +
  /// count) to the single-node server's for `line`.
  void ExpectMatchesSingleNode(const std::string& line) {
    const ParsedResponse via_router = ParseResponse(router->HandleLine(line));
    const ParsedResponse direct = ParseResponse(whole_tcp->HandleLine(line));
    ASSERT_TRUE(direct.ok) << line;
    ASSERT_TRUE(via_router.ok) << line;
    EXPECT_EQ(via_router.count, direct.count) << line;
    EXPECT_EQ(via_router.checksum, direct.checksum) << line;
    EXPECT_EQ(via_router.rows, direct.rows) << line;
  }
};

TEST(RouterClusterTest, ScatterGatherMatchesSingleNodeAndSurvivesReplicaKill) {
  ClusterFixture fx;
  const std::vector<std::string> workload = {
      "QUERY ALL",
      "QUERY A_L0,B_L0,C_L0",
      "QUERY A_L1,B_L1",
      "QUERY A_L2",
      "QUERY B_L0,C_L0",
      "ICEBERG A_L0,B_L0 3",
      "ICEBERG A_L1 20",
      "SLICE A_L0,B_L0 A_L2=0",
      "SLICE A_L1,B_L0,C_L0 B_L1=1",
      "SLICE A_L0,B_L0,C_L0 A_L1=2 MINSUP 2",
  };
  for (const std::string& line : workload) fx.ExpectMatchesSingleNode(line);

  // Kill one replica of EVERY shard; the router must fail over and keep
  // returning byte-identical results.
  for (auto& shard : fx.tcps) shard[0]->Stop();
  for (const std::string& line : workload) fx.ExpectMatchesSingleNode(line);
  const std::string health = fx.router->HandleLine("HEALTH");
  EXPECT_NE(health.find("DOWN"), std::string::npos) << health;

  // Deterministic errors pass through unchanged.
  EXPECT_EQ(fx.router->HandleLine("QUERY bogus").rfind("ERR ", 0), 0u);

  // Observability: the router's own series exist in both expositions.
  const std::string stats = fx.router->HandleLine("STATS");
  EXPECT_NE(stats.find("queries_total"), std::string::npos);
  EXPECT_NE(stats.find("backend_s0_r0_latency_count"), std::string::npos);
  EXPECT_NE(stats.find("backend_all_latency_count"), std::string::npos);
  const std::string metrics = fx.router->HandleLine("METRICS");
  EXPECT_NE(metrics.find("cure_router_queries_total"), std::string::npos);
  EXPECT_NE(metrics.find("cure_router_backend_all_latency"), std::string::npos);
}

/// Body lines of a BATCH response with provenance normalized away: the
/// trailing cache token on "= " section headers legitimately differs
/// between the router (SCATTER) and a single server (HIT/SEMANTIC/MISS),
/// and derivation emits rows in lexicographic rather than engine order.
std::vector<std::string> NormalizedBatchRows(const std::string& response) {
  std::vector<std::string> rows;
  std::istringstream in(response);
  std::string line;
  EXPECT_TRUE(static_cast<bool>(std::getline(in, line))) << response;
  while (std::getline(in, line)) {
    if (line == ".") break;
    if (line.rfind("= ", 0) == 0) line.erase(line.find_last_of(' '));
    rows.push_back(line);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(RouterClusterTest, NavigationTopKAndBatchMatchSingleNode) {
  ClusterFixture fx(1600, 13);

  // ROLLUP/DRILL resolve on the router's own lattice and then scatter like
  // QUERY/SLICE — byte-identical to the single-node server's same verb.
  const std::vector<std::string> nav = {
      "DRILL ALL A",
      "DRILL A_L2 B",
      "ROLLUP A_L0,B_L0 A",
      "ROLLUP A_L0,B_L0,C_L0 B B_L1=1",
      "ROLLUP A_L0,B_L0 A MINSUP 2",
      "TOPK A_L0,B_L0 5",
      "TOPK A_L1 3",
      "TOPK ALL 1",
  };
  for (const std::string& line : nav) fx.ExpectMatchesSingleNode(line);

  // The landed node is announced in the header and the body matches a plain
  // QUERY of that node.
  const std::string rollup = fx.router->HandleLine("ROLLUP A_L0 A");
  EXPECT_NE(rollup.find(" node=A_L1"), std::string::npos) << rollup;
  const ParsedResponse via_rollup = ParseResponse(rollup);
  const ParsedResponse via_query =
      ParseResponse(fx.router->HandleLine("QUERY A_L1"));
  EXPECT_EQ(via_rollup.checksum, via_query.checksum);
  EXPECT_EQ(via_rollup.rows, via_query.rows);

  // TOPK repeats deterministically through the scatter path (the header
  // carries a freshly minted trace id; the body must be byte-identical).
  const auto body = [](const std::string& response) {
    return response.substr(response.find('\n') + 1);
  };
  EXPECT_EQ(body(fx.router->HandleLine("TOPK A_L0,B_L0 5")),
            body(fx.router->HandleLine("TOPK A_L0,B_L0 5")));

  // BATCH: same sections, same per-section rows, same xor'd top checksum.
  const std::string batch_line = "BATCH A_L1 A_L0,B_L0 ALL";
  const std::string via_router = fx.router->HandleLine(batch_line);
  const std::string direct = fx.whole_tcp->HandleLine(batch_line);
  EXPECT_EQ(via_router.rfind("OK 3 ", 0), 0u) << via_router;
  EXPECT_NE(via_router.find(" BATCH "), std::string::npos) << via_router;
  {
    std::istringstream router_header(via_router), direct_header(direct);
    std::string ok_r, ok_d;
    uint64_t count_r = 0, count_d = 0;
    std::string checksum_r, checksum_d;
    router_header >> ok_r >> count_r >> checksum_r;
    direct_header >> ok_d >> count_d >> checksum_d;
    EXPECT_EQ(count_r, count_d);
    EXPECT_EQ(checksum_r, checksum_d);
  }
  EXPECT_EQ(NormalizedBatchRows(via_router), NormalizedBatchRows(direct));
  // Sections come back in input order regardless of execution order.
  const size_t at_a1 = via_router.find("= A_L1 ");
  const size_t at_fine = via_router.find("= A_L0,B_L0 ");
  const size_t at_all = via_router.find("= ALL ");
  ASSERT_NE(at_a1, std::string::npos) << via_router;
  ASSERT_NE(at_fine, std::string::npos) << via_router;
  ASSERT_NE(at_all, std::string::npos) << via_router;
  EXPECT_LT(at_a1, at_fine);
  EXPECT_LT(at_fine, at_all);

  // Navigation off the lattice edge and malformed verbs fail on the router
  // itself, before any backend is touched.
  EXPECT_EQ(fx.router->HandleLine("ROLLUP ALL A").rfind("ERR InvalidArgument", 0),
            0u);
  EXPECT_EQ(fx.router->HandleLine("DRILL A_L0 A").rfind("ERR InvalidArgument", 0),
            0u);
  EXPECT_EQ(fx.router->HandleLine("ROLLUP A_L0 Z").rfind("ERR NotFound", 0), 0u);
  EXPECT_EQ(
      fx.router->HandleLine("TOPK A_L0 5 MINSUP 2").rfind("ERR InvalidArgument", 0),
      0u);
  EXPECT_EQ(fx.router->HandleLine("TOPK A_L0 0").rfind("ERR InvalidArgument", 0),
            0u);
  EXPECT_EQ(fx.router->HandleLine("BATCH").rfind("ERR InvalidArgument", 0), 0u);
  EXPECT_EQ(fx.router->HandleLine("BATCH bogus").rfind("ERR ", 0), 0u);

  // After this many scatters the backend connection pool must have cycled:
  // both expositions carry the pool series and reuses are non-zero.
  const std::string metrics = fx.router->HandleLine("METRICS");
  EXPECT_NE(metrics.find("cure_router_backend_pool_connects"),
            std::string::npos);
  uint64_t reuses = 0;
  std::istringstream metric_lines(metrics);
  for (std::string line; std::getline(metric_lines, line);) {
    std::istringstream fields(line);
    std::string name;
    if (fields >> name && name == "cure_router_backend_pool_reuses") {
      fields >> reuses;
    }
  }
  EXPECT_GT(reuses, 0u) << metrics;
  EXPECT_NE(fx.router->HandleLine("STATS").find("backend_pool_reuses"),
            std::string::npos);
}

/// "ERR <Code>" of an error response ("" for anything else).
std::string ErrPrefix(const std::string& response) {
  if (response.rfind("ERR ", 0) != 0) return "";
  return response.substr(0, response.find(' ', 4));
}

TEST(RouterClusterTest, MalformedLinesFailAlikeOnBothTiersAndReachNoBackend) {
  ClusterFixture fx(600, 23);
  const Counter* rpcs = fx.router->metrics()->counter("backend_rpcs_total");
  const std::vector<std::string> lines = {
      "QUERY",
      "QUERY A_L0 junk",
      "SLICE A_L0",
      "SLICE A_L0 MINSUP 2",
      "ICEBERG A_L0",
      "ICEBERG A_L0 0",
      "ROLLUP ALL A",
      "ROLLUP A_L0 Z",
      "TOPK A_L0 0",
      "TOPK A_L0 5 MINSUP 2",
      "BATCH",
      "BATCH bogus",
      "QUERY A_L0 trace=abc",
  };
  for (const std::string& line : lines) {
    const uint64_t before = rpcs->value();
    const std::string direct = fx.whole_tcp->HandleLine(line);
    const std::string routed = fx.router->HandleLine(line);
    ASSERT_NE(ErrPrefix(direct), "") << line << " -> " << direct;
    EXPECT_EQ(ErrPrefix(routed), ErrPrefix(direct)) << line << " -> " << routed;
    // One grammar: the message is the same too.
    EXPECT_EQ(routed, direct) << line;
    EXPECT_EQ(rpcs->value(), before) << line << " reached a backend";
  }
  // A well-formed line still scatters (one attempt per shard).
  const uint64_t before = rpcs->value();
  EXPECT_EQ(fx.router->HandleLine("QUERY A_L0").rfind("OK ", 0), 0u);
  EXPECT_EQ(rpcs->value(), before + 3);
}

// ------------------------------------------------------ connection pooling

TEST(BackendClientTest, ReusesPooledConnectionsAcrossRoundTrips) {
  FakeBackend backend("OK 0 0000000000000000 MISS trace=1\n.\n");
  router::BackendClient client(5.0, 30.0);
  const BackendAddress addr{"127.0.0.1", backend.port()};
  for (int i = 0; i < 3; ++i) {
    auto response = client.RoundTrip(addr, "QUERY ALL");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }
  const auto stats = client.pool_stats();
  EXPECT_EQ(stats.connects, 1u);
  EXPECT_EQ(stats.reuses, 2u);
  EXPECT_EQ(stats.open, 1u);
  EXPECT_EQ(stats.discards_idle, 0u);
  EXPECT_EQ(stats.retries_stale, 0u);
  EXPECT_EQ(backend.queries_seen(), 3);
}

TEST(BackendClientTest, DiscardsIdleExpiredConnectionsOnAcquire) {
  FakeBackend backend("OK 0 0000000000000000 MISS trace=1\n.\n");
  router::BackendClient client(5.0, /*idle_timeout_seconds=*/1e-6);
  const BackendAddress addr{"127.0.0.1", backend.port()};
  ASSERT_TRUE(client.RoundTrip(addr, "QUERY ALL").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(client.RoundTrip(addr, "QUERY ALL").ok());
  const auto stats = client.pool_stats();
  EXPECT_EQ(stats.connects, 2u);
  EXPECT_EQ(stats.reuses, 0u);
  EXPECT_EQ(stats.discards_idle, 1u);
}

TEST(BackendClientTest, RetriesOnceWhenPooledConnectionWentStale) {
  // A pooled connection whose server restarted dies before producing any
  // response byte; the round trip must transparently reconnect and succeed.
  const std::string response = "OK 0 0000000000000000 MISS trace=1\n.\n";
  auto first = LineTransport::Start(
      [&](const std::string&) { return response; }, LineTransportOptions{});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const int port = (*first)->port();

  router::BackendClient client(5.0, 30.0);
  const BackendAddress addr{"127.0.0.1", port};
  ASSERT_TRUE(client.RoundTrip(addr, "QUERY ALL").ok());
  ASSERT_EQ(client.pool_stats().open, 1u);

  (*first)->Stop();  // reaps the pooled connection server-side
  LineTransportOptions same_port;
  same_port.port = port;
  auto second = LineTransport::Start(
      [&](const std::string&) { return response; }, same_port);
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  auto retried = client.RoundTrip(addr, "QUERY ALL");
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  const auto stats = client.pool_stats();
  EXPECT_EQ(stats.retries_stale, 1u);
  EXPECT_EQ(stats.connects, 2u);

  // With nobody listening at all, the stale retry burns once and fails —
  // a request is never resent more than one time.
  (*second)->Stop();
  EXPECT_FALSE(client.RoundTrip(addr, "QUERY ALL").ok());
  EXPECT_EQ(client.pool_stats().retries_stale, 2u);
}

// ------------------------------------------------------- stalled backends

/// A pathological raw-socket backend: accepts, reads the request, answers
/// with the FIRST HALF of a reply, then holds the connection open forever
/// without another byte. Exercises the mid-response receive timeout that a
/// scripted LineTransport (which always answers completely) cannot.
class StalledBackend {
 public:
  explicit StalledBackend(std::string half_reply)
      : half_reply_(std::move(half_reply)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_OR_ABORT(listen_fd_ >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_OR_ABORT(
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0);
    ASSERT_OR_ABORT(::listen(listen_fd_, 8) == 0);
    socklen_t len = sizeof(addr);
    ASSERT_OR_ABORT(
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
        0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }
  ~StalledBackend() { Stop(); }

  int port() const { return port_; }
  void Stop() {
    if (stopped_.exchange(true)) return;
    ::shutdown(listen_fd_, SHUT_RDWR);
    thread_.join();
    ::close(listen_fd_);
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : held_) ::close(fd);
    held_.clear();
  }

 private:
  static void ASSERT_OR_ABORT(bool ok) { ASSERT_TRUE(ok) << strerror(errno); }

  void Serve() {
    while (!stopped_.load()) {
      pollfd pfd{listen_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) continue;
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;
      char buf[256];
      (void)::recv(fd, buf, sizeof(buf), 0);  // the request line
      (void)::send(fd, half_reply_.data(), half_reply_.size(), MSG_NOSIGNAL);
      std::lock_guard<std::mutex> lock(mu_);
      held_.push_back(fd);  // ...and never speak again
    }
  }

  std::string half_reply_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopped_{false};
  std::mutex mu_;
  std::vector<int> held_;
  std::thread thread_;
};

TEST(BackendClientTest, StallMidResponseClassifiesAsDeadlineExceeded) {
  StalledBackend stalled("OK 1 00000000");  // header cut mid-checksum
  router::BackendClient client(/*timeout_seconds=*/0.25);
  const BackendAddress addr{"127.0.0.1", stalled.port()};
  auto reply = client.RoundTrip(addr, "QUERY ALL");
  ASSERT_FALSE(reply.ok());
  const Status status = reply.status();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status.ToString();
  const std::string& message = status.message();
  EXPECT_NE(message.find("127.0.0.1:" + std::to_string(stalled.port())),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("bytes read"), std::string::npos) << message;
}

TEST(CureRouterTest, HedgeRescuesQueryFromStalledReplica) {
  StalledBackend stalled("OK 1 00000000");
  FakeBackend good("OK 1 0000000000000001 MISS trace=1\n10\t2\t3\t7\n.\n");
  gen::Dataset ds = MakeZipfHier(50, 21);
  ShardMap map;
  map.shards = {{{"127.0.0.1", stalled.port()}, {"127.0.0.1", good.port()}}};
  RouterOptions options;
  options.backend_timeout_seconds = 1.0;  // the stall alone would eat this
  options.hedge_seconds = 0.05;           // ...but the hedge fires at 50ms
  auto router = CureRouter::Create(&ds.schema, map, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  // Pin the stalled replica first so the HEDGE, not replica order, rescues.
  (*router)->OverrideReplicaFreshnessForTest(0, 0, /*version=*/9, /*stale=*/0);
  (*router)->OverrideReplicaFreshnessForTest(0, 1, /*version=*/1, /*stale=*/9);

  const auto start = std::chrono::steady_clock::now();
  const std::string response = (*router)->HandleLine("QUERY ALL");
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  // Serial check against the good replica's scripted relation: one ALL row
  // with s=10 c=2 lo=3 hi=7, re-aggregated (sum/count add, min/max keep).
  EXPECT_EQ(response.rfind("OK 1 ", 0), 0u) << response;
  EXPECT_NE(response.find("10\t2\t3\t7"), std::string::npos) << response;
  // The answer must arrive on the hedge's clock, far inside the stall
  // timeout (generous bound: CI machines wobble, 1.0s stall does not).
  EXPECT_LT(elapsed_ms, 900) << "hedge did not overlap the stall";
  EXPECT_GE((*router)->metrics()->counter("hedges_total")->value(), 1u);
  // First answer wins; the stalled attempt dies quietly in the background
  // (the router's destructor drains it without touching freed state).
}

TEST(RouterClusterTest, ServesOverItsOwnLoopbackTransport) {
  ClusterFixture fx(1200, 11);
  auto transport = LineTransport::Start(
      [raw = fx.router.get()](const std::string& line) {
        return raw->HandleLine(line);
      },
      LineTransportOptions{});
  ASSERT_TRUE(transport.ok());

  router::BackendClient client(5.0);
  auto reply = client.Query({"127.0.0.1", (*transport)->port()},
                            "QUERY A_L1,B_L1 trace=99");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->status.ok()) << reply->status.ToString();
  EXPECT_EQ(reply->trace_id, 99u);

  const ParsedResponse direct =
      ParseResponse(fx.whole_tcp->HandleLine("QUERY A_L1,B_L1"));
  EXPECT_EQ(reply->count, direct.count);
  std::vector<std::string> rows = reply->rows;
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, direct.rows);
}


// ------------------------------------------------------ malformed replies

/// A raw-socket backend that answers every request line with a scripted
/// byte string and then closes the connection — so a reply cut before its
/// ".\n" terminator reaches the router as EOF mid-response.
class ScriptedBackend {
 public:
  ScriptedBackend() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0) << strerror(errno);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 16), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }
  ~ScriptedBackend() {
    stopped_.store(true);
    thread_.join();
    ::close(listen_fd_);
  }

  int port() const { return port_; }
  void set_script(const std::string& script) {
    std::lock_guard<std::mutex> lock(mu_);
    script_ = script;
  }
  std::string last_request() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_request_;
  }

 private:
  void Serve() {
    while (!stopped_.load()) {
      pollfd pfd{listen_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 20) <= 0) continue;
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;
      std::string request;
      char c;
      while (::recv(fd, &c, 1, 0) == 1 && c != '\n') request += c;
      std::string script;
      {
        std::lock_guard<std::mutex> lock(mu_);
        last_request_ = request;
        script = script_;
      }
      (void)::send(fd, script.data(), script.size(), MSG_NOSIGNAL);
      ::close(fd);
    }
  }

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopped_{false};
  mutable std::mutex mu_;
  std::string script_;
  std::string last_request_;
  std::thread thread_;
};

TEST(CureRouterTest, MalformedShardRepliesFailCleanAndWellFormedOnesMerge) {
  gen::Dataset ds = MakeZipfHier(50, 8);  // 4 aggregates: s, c, lo, hi
  ScriptedBackend backend;
  ShardMap map;
  map.shards = {{{"127.0.0.1", backend.port()}}};
  auto router = CureRouter::Create(&ds.schema, map, RouterOptions{});
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  const std::string ok = "OK 2 0000000000000001 MISS trace=1\n";
  const auto ask = [&](const std::string& script, const std::string& line) {
    backend.set_script(script);
    return (*router)->HandleLine(line);
  };
  const auto body = [](const std::string& response) {
    return response.substr(response.find('\n') + 1);
  };

  // The router scatters in codes: the backend is asked for raw codes.
  EXPECT_EQ(ask(ok + "1\t10\t2\t3\t7\n.\n", "QUERY A_L0").rfind("OK 1 ", 0),
            0u);
  EXPECT_NE(backend.last_request().find(" codes=1"), std::string::npos)
      << backend.last_request();

  // Wrong field count and a non-numeric aggregate keep their Internal
  // code and message.
  EXPECT_EQ(ask(ok + "1\t2\t3\n.\n", "QUERY A_L0"),
            "ERR Internal shard 0 returned a row with 3 fields, expected "
            "5\n.\n");
  EXPECT_EQ(ask(ok + "1\t2\tx\t3\t4\n.\n", "QUERY A_L0"),
            "ERR Internal shard 0 returned a non-numeric aggregate 'x'\n.\n");
  // A dim code above UINT32_MAX is an error naming the shard, not a
  // silently truncated code; so is a code that is no number at all.
  std::string response = ask(ok + "4294967296\t2\t3\t1\t4\n.\n", "QUERY A_L0");
  EXPECT_EQ(response.rfind("ERR Internal shard 0 ", 0), 0u) << response;
  EXPECT_NE(response.find("4294967296"), std::string::npos) << response;
  response = ask(ok + "-1\t2\t3\t1\t4\n.\n", "QUERY A_L0");
  EXPECT_EQ(response.rfind("ERR Internal shard 0 ", 0), 0u) << response;
  // An empty line is a malformed row too.
  response = ask(ok + "1\t10\t2\t3\t7\n\n.\n", "QUERY A_L0");
  EXPECT_EQ(response.rfind("ERR Internal shard 0 ", 0), 0u) << response;

  // \r\n line ends are stripped, as ParseBackendReply does; the two
  // partials of group 1 merge (s, c add; lo keeps the min, hi the max).
  response = ask("OK 2 0000000000000001 MISS trace=1\r\n1\t10\t2\t3\t7\r\n"
                 "1\t5\t1\t2\t9\r\n.\n",
                 "QUERY A_L0");
  EXPECT_EQ(response.rfind("OK 1 ", 0), 0u) << response;
  EXPECT_EQ(body(response), "1\t15\t3\t2\t9\n.\n");

  // "% " profile lines between rows stay out of the merge.
  response = ask(ok + "2\t10\t2\t3\t7\n% profile stage=serve total_us=5\n"
                      "1\t5\t1\t2\t9\n% span name=x ts_us=1 dur_us=2\n.\n",
                 "QUERY A_L0");
  EXPECT_EQ(response.rfind("OK 2 ", 0), 0u) << response;
  EXPECT_EQ(body(response), "1\t5\t1\t2\t9\n2\t10\t2\t3\t7\n.\n");

  // A reply cut before its terminator is a transport failure: IOError.
  response = ask(ok + "1\t10\t2\t3\t7\n", "QUERY A_L0");
  EXPECT_EQ(response.rfind("ERR IOError ", 0), 0u) << response;
  EXPECT_NE(response.find("closed the connection mid-response"),
            std::string::npos)
      << response;

  // BATCH sections go through the same parser and framing checks.
  const std::string batch = "OK 1 0000000000000001 BATCH trace=1\n";
  EXPECT_EQ(ask(batch + "= A_L0 1 0000000000000001 MISS\n1\t2\t3\n.\n",
                "BATCH A_L0"),
            "ERR Internal shard 0 returned a row with 3 fields, expected "
            "5\n.\n");
  EXPECT_EQ(ask(batch + "= A_L0 3 0000000000000001 MISS\n1\t10\t2\t3\t7\n.\n",
                "BATCH A_L0"),
            "ERR Internal shard 0 truncated BATCH section 'A_L0'\n.\n");
  response = ask(batch + "= A_L0 1 0000000000000001 MISS\r\n1\t10\t2\t3\t7\r\n"
                         ".\n",
                 "BATCH A_L0");
  EXPECT_EQ(response.rfind("OK 1 ", 0), 0u) << response;
  EXPECT_NE(response.find("\n1\t10\t2\t3\t7\n"), std::string::npos)
      << response;

  // Section header malformation: a missing "=" marker, a count that is no
  // number or is negative, a section for a node that was not asked for,
  // and fewer sections than requested all fail cleanly, naming the shard.
  const std::string row = "1\t10\t2\t3\t7\n";
  for (const std::string& script : {
           batch + "A_L0 1 0000000000000001 MISS\n" + row + ".\n",
           batch + "- A_L0 1 0000000000000001 MISS\n" + row + ".\n",
           batch + "= A_L0 one 0000000000000001 MISS\n" + row + ".\n",
           batch + "= A_L0 -1 0000000000000001 MISS\n" + row + ".\n",
           batch + "= A_L0 1 0000000000000001\n" + row + ".\n",
           batch + "= A_L1 1 0000000000000001 MISS\n" + row + ".\n",
       }) {
    response = ask(script, "BATCH A_L0");
    EXPECT_EQ(response.rfind("ERR Internal shard 0 ", 0), 0u)
        << script << " -> " << response;
  }
  EXPECT_EQ(ask(batch + "= A_L0 1 0000000000000001 MISS\n" + row + ".\n",
                "BATCH A_L0 A_L1"),
            "ERR Internal shard 0 returned 1 BATCH sections, expected 2\n.\n");
  EXPECT_EQ(ask(batch + "= A_L1 1 0000000000000001 MISS\n" + row + ".\n",
                "BATCH A_L0"),
            "ERR Internal shard 0 returned unexpected BATCH section 'A_L1'\n"
            ".\n");
}

// ------------------------------------------------------------ hedge storm

/// A wedged replica: accepts every connection and reads the request but
/// never answers. When the client closes its end, it closes too — so an
/// abandoned attempt leaves no connection behind on either side.
class WedgedBackend {
 public:
  WedgedBackend() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0) << strerror(errno);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 128), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }
  ~WedgedBackend() {
    stopped_.store(true);
    thread_.join();
    for (int fd : held_) ::close(fd);
    ::close(listen_fd_);
  }

  int port() const { return port_; }
  int accepted() const { return accepted_.load(); }
  int open_connections() const { return open_.load(); }

 private:
  void Serve() {
    std::vector<pollfd> fds;
    while (!stopped_.load()) {
      fds.assign(1, pollfd{listen_fd_, POLLIN, 0});
      for (int fd : held_) fds.push_back(pollfd{fd, POLLIN, 0});
      if (::poll(fds.data(), fds.size(), 20) <= 0) continue;
      for (size_t i = 1; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        char buf[256];
        if (::recv(fds[i].fd, buf, sizeof(buf), MSG_DONTWAIT) > 0) continue;
        ::close(fds[i].fd);  // the client gave up on it
        held_.erase(std::find(held_.begin(), held_.end(), fds[i].fd));
      }
      if (fds[0].revents != 0) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd >= 0) {
          held_.push_back(fd);
          accepted_.fetch_add(1);
        }
      }
      open_.store(static_cast<int>(held_.size()));
    }
  }

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopped_{false};
  std::atomic<int> accepted_{0};
  std::atomic<int> open_{0};
  std::vector<int> held_;  ///< Serve()'s thread only
  std::thread thread_;
};

/// The process's thread count, from /proc/self/status.
int ProcessThreadCount() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(RouterClusterTest, HedgeStormKeepsThreadsFlatAndAnswersExact) {
  ClusterFixture fx(1200, 19);
  // Every shard: replica 0 wedged (pinned first, so every attempt starts
  // there and hedges), replica 1 a real server.
  std::vector<std::unique_ptr<WedgedBackend>> wedged;
  ShardMap map;
  for (int s = 0; s < 3; ++s) {
    wedged.push_back(std::make_unique<WedgedBackend>());
    map.shards.push_back({{"127.0.0.1", wedged.back()->port()},
                          {"127.0.0.1", fx.tcps[s][1]->port()}});
  }
  RouterOptions options;
  options.hedge_seconds = 0.002;
  // A wedged attempt would hold a thread for this long if attempts had
  // threads; here it is a socket closed when the hedge wins.
  options.backend_timeout_seconds = 30;
  auto created = CureRouter::Create(&fx.ds.schema, map, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<CureRouter> router = std::move(created).value();
  for (int s = 0; s < 3; ++s) {
    router->OverrideReplicaFreshnessForTest(s, 0, /*version=*/9, /*stale=*/0);
    router->OverrideReplicaFreshnessForTest(s, 1, /*version=*/1, /*stale=*/9);
  }

  const std::vector<std::string> lines = {
      "QUERY A_L1,B_L1", "QUERY ALL", "ICEBERG A_L0,B_L0 3",
      "SLICE A_L0,B_L0 A_L2=0", "TOPK A_L0,B_L0 5", "DRILL A_L2 B"};
  std::vector<ParsedResponse> expected;
  for (const std::string& line : lines) {
    expected.push_back(ParseResponse(fx.whole_tcp->HandleLine(line)));
    ASSERT_TRUE(expected.back().ok) << line;
  }

  constexpr int kClients = 4;
  std::atomic<int> wrong{0};
  std::atomic<int> peak_threads{0};
  const auto run_clients = [&](int requests_each, bool lockstep) {
    std::barrier sync(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < requests_each; ++i) {
          if (lockstep) sync.arrive_and_wait();
          const size_t q = static_cast<size_t>(c + i * kClients) % lines.size();
          const ParsedResponse got =
              ParseResponse(router->HandleLine(lines[q]));
          if (!got.ok || got.count != expected[q].count ||
              got.checksum != expected[q].checksum ||
              got.rows != expected[q].rows) {
            wrong.fetch_add(1);
          }
          const int threads = ProcessThreadCount();
          int seen = peak_threads.load();
          while (threads > seen &&
                 !peak_threads.compare_exchange_weak(seen, threads)) {
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
  };

  // Warm-up in lockstep until every real replica holds a full pool of four
  // connections (one per concurrent client), so the server side has
  // spawned all the connection threads it ever will.
  for (int round = 0; round < 50; ++round) {
    run_clients(1, /*lockstep=*/true);
    router->StatsText();
    if (router->metrics()->gauge("backend_pool_open")->value() >= 12) break;
  }
  ASSERT_EQ(wrong.load(), 0);
  const uint64_t hedges_before =
      router->metrics()->counter("hedges_total")->value();

  // The storm: 200 requests from 4 client threads, every one hedging on
  // every shard. The router adds no thread per request or per attempt, so
  // the process grows by the 4 client threads only.
  const int baseline = ProcessThreadCount();
  peak_threads.store(baseline);
  run_clients(50, /*lockstep=*/false);
  EXPECT_EQ(wrong.load(), 0) << "answers drifted from the single node";
  EXPECT_LE(peak_threads.load(), baseline + kClients)
      << "thread count grew during the hedge storm";
  EXPECT_GE(router->metrics()->counter("hedges_total")->value() - hedges_before,
            200u * 3);

  // Every abandoned hedge loser is a closed connection: once the wedged
  // replicas notice, they hold nothing, although they never answered.
  for (const auto& w : wedged) {
    EXPECT_GE(w->accepted(), 200);
    for (int wait = 0; wait < 200 && w->open_connections() > 0; ++wait) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(w->open_connections(), 0);
  }

  // Nothing outlives a request, so the router destructs at once while the
  // wedged replicas are still up and still silent.
  const auto start = std::chrono::steady_clock::now();
  router.reset();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count(),
            1000);
}

TEST(CureRouterTest, ClientDeadlineBoundsTheScatterWithoutChargingReplicas) {
  WedgedBackend wedged;
  gen::Dataset ds = MakeZipfHier(50, 9);
  ShardMap map;
  map.shards = {{{"127.0.0.1", wedged.port()}}};
  RouterOptions options;
  options.backend_timeout_seconds = 30;  // only the client budget can end it
  auto router = CureRouter::Create(&ds.schema, map, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  const auto start = std::chrono::steady_clock::now();
  const std::string response = (*router)->HandleLine("QUERY ALL deadline=80");
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  EXPECT_EQ(response.rfind("ERR DeadlineExceeded shard 0 deadline exhausted "
                           "after 1 attempt(s)",
                           0),
            0u)
      << response;
  EXPECT_GE(elapsed_ms, 75);
  EXPECT_LT(elapsed_ms, 1000);
  // The client's budget ran out, not the replica: it stays UP, and the
  // abandoned attempt is a closed connection.
  const std::string health = (*router)->HandleLine("HEALTH");
  EXPECT_NE(health.find(" UP "), std::string::npos) << health;
  for (int wait = 0; wait < 200 && wedged.open_connections() > 0; ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(wedged.open_connections(), 0);
}

}  // namespace
}  // namespace cure
