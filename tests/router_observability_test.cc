// Cluster-wide query profiling and metrics federation (DESIGN.md §17):
// the ClusterProfile text/Chrome-trace codecs, the Prometheus federation
// merge, the slow-query flight recorder, and the PROFILE / METRICS cluster /
// SLOWLOG verbs end-to-end over a real loopback cluster.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"
#include "common/slowlog.h"
#include "common/trace.h"
#include "engine/cure.h"
#include "gen/datasets.h"
#include "gen/random.h"
#include "router/federation.h"
#include "router/profile.h"
#include "router/router.h"
#include "router/shard_map.h"
#include "serve/cube_server.h"
#include "serve/tcp_server.h"

namespace cure {
namespace {

using engine::BuildCure;
using engine::CureOptions;
using engine::FactInput;
using router::AttemptRecord;
using router::BackendAddress;
using router::BackendStageBreakdown;
using router::ClusterProfile;
using router::ClusterProfileToChromeTrace;
using router::CureRouter;
using router::FormatClusterProfile;
using router::MetricsFederator;
using router::ParseBackendProfileLine;
using router::ParseClusterProfile;
using router::RelabelSampleLine;
using router::RouterOptions;
using router::ShardMap;
using router::ShardProfile;
using serve::CubeServer;
using serve::CubeServerOptions;
using serve::TcpLineServer;
using serve::TcpServerOptions;

// ------------------------------------------------------------- flight recorder

TEST(SlowQueryLogTest, RingEvictsOldestAndDumpsNewestFirst) {
  SlowQueryLog log(3);
  EXPECT_EQ(log.Dump(), "total 0 capacity 3\n");
  for (const char* entry : {"a", "b", "c", "d", "e"}) log.Record(entry);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.total_recorded(), 5u);
  const std::string dump = log.Dump();
  // Newest first, sequence numbers global (not slot indices).
  EXPECT_EQ(dump, "#5 e\n#4 d\n#3 c\ntotal 5 capacity 3\n");
  EXPECT_EQ(dump.find("#1 "), std::string::npos);
}

TEST(SlowQueryLogTest, ZeroCapacityClampsToOne) {
  SlowQueryLog log(0);
  EXPECT_EQ(log.capacity(), 1u);
  log.Record("x");
  log.Record("y");
  EXPECT_EQ(log.size(), 1u);
  EXPECT_NE(log.Dump().find("#2 y"), std::string::npos);
}

// ------------------------------------------------------------ profile codecs

ClusterProfile MakeSampleProfile() {
  ClusterProfile profile;
  profile.trace_id = 4242;
  profile.command = "QUERY A_L1,B_L0";
  profile.result_count = 17;
  profile.result_checksum = 0xdeadbeefcafeull;
  profile.shards_total = 2;
  profile.shards_ok = 2;
  profile.total_us = 900;
  profile.scatter_us = 700;
  profile.merge_us = 150;

  ShardProfile s0;
  s0.shard = 0;
  s0.ok = true;
  s0.attempts.push_back({0, "primary", "won", 5, 640});
  s0.backend_lines.push_back(
      "% profile stage=serve trace=4242 queue_wait_us=3 key_us=1 cache_us=2 "
      "execute_us=500 encode_us=40 total_us=590 cache=MISS version=1");
  s0.backend_lines.push_back("% span name=cure.serve.query ts_us=1000 dur_us=580");
  profile.shards.push_back(std::move(s0));

  ShardProfile s1;
  s1.shard = 1;
  s1.ok = true;
  s1.attempts.push_back({0, "primary", "failover", 6, 200});
  s1.attempts.push_back({1, "retry", "won", 210, 680});
  profile.shards.push_back(std::move(s1));
  return profile;
}

TEST(ClusterProfileTest, FormatParseRoundTrip) {
  const ClusterProfile profile = MakeSampleProfile();
  const std::string text = FormatClusterProfile(profile);
  ClusterProfile parsed;
  ASSERT_TRUE(ParseClusterProfile(text, &parsed)) << text;
  EXPECT_EQ(parsed.trace_id, profile.trace_id);
  EXPECT_EQ(parsed.command, profile.command);
  EXPECT_EQ(parsed.result_count, profile.result_count);
  EXPECT_EQ(parsed.result_checksum, profile.result_checksum);
  EXPECT_EQ(parsed.shards_total, 2);
  EXPECT_EQ(parsed.shards_ok, 2);
  EXPECT_EQ(parsed.total_us, 900);
  EXPECT_EQ(parsed.scatter_us, 700);
  EXPECT_EQ(parsed.merge_us, 150);
  ASSERT_EQ(parsed.shards.size(), 2u);
  EXPECT_TRUE(parsed.shards[0].ok);
  ASSERT_EQ(parsed.shards[0].attempts.size(), 1u);
  EXPECT_EQ(parsed.shards[0].attempts[0].outcome, "won");
  EXPECT_EQ(parsed.shards[0].attempts[0].end_us, 640);
  ASSERT_EQ(parsed.shards[0].backend_lines.size(), 2u);
  EXPECT_EQ(parsed.shards[0].backend_lines[0],
            profile.shards[0].backend_lines[0]);
  ASSERT_EQ(parsed.shards[1].attempts.size(), 2u);
  EXPECT_EQ(parsed.shards[1].attempts[1].kind, "retry");
  EXPECT_EQ(parsed.shards[1].attempts[1].launch_us, 210);

  // Format(Parse(x)) is a fixed point — the tool-side parse loses nothing.
  EXPECT_EQ(FormatClusterProfile(parsed), text);

  // A body without the "cluster" summary line is not a profile.
  EXPECT_FALSE(ParseClusterProfile("command QUERY ALL\n", nullptr));
}

TEST(ClusterProfileTest, ParsesBackendStageBreakdown) {
  const BackendStageBreakdown stages = ParseBackendProfileLine(
      "% profile stage=serve trace=9 queue_wait_us=3 key_us=1 cache_us=2 "
      "execute_us=500 encode_us=40 total_us=590 cache=SEMANTIC version=7");
  ASSERT_TRUE(stages.valid);
  EXPECT_EQ(stages.queue_wait_us, 3);
  EXPECT_EQ(stages.key_us, 1);
  EXPECT_EQ(stages.cache_us, 2);
  EXPECT_EQ(stages.execute_us, 500);
  EXPECT_EQ(stages.encode_us, 40);
  EXPECT_EQ(stages.total_us, 590);
  EXPECT_EQ(stages.cache, "SEMANTIC");
  EXPECT_FALSE(ParseBackendProfileLine("% span name=x ts_us=1 dur_us=2").valid);
  EXPECT_FALSE(ParseBackendProfileLine("1\t2\t3").valid);
}

TEST(ClusterProfileTest, ChromeTraceExportValidates) {
  const std::string json = ClusterProfileToChromeTrace(MakeSampleProfile());
  ChromeTraceSummary summary;
  const Status status = ValidateChromeTrace(json, &summary);
  ASSERT_TRUE(status.ok()) << status.ToString() << "\n" << json;
  EXPECT_TRUE(summary.Contains("cure.router.profile_query")) << json;
  EXPECT_TRUE(summary.Contains("cure.router.scatter"));
  EXPECT_TRUE(summary.Contains("cure.router.merge"));
  // One attempt span per recorded attempt, on per-shard tracks.
  EXPECT_EQ(summary.CompleteCount("cure.router.attempt"), 3u);
  // The winning backend's stage spans are laid out under its shard track.
  EXPECT_TRUE(summary.Contains("cure.serve.execute"));
  EXPECT_TRUE(summary.Contains("cure.serve.encode"));
  // The raw backend tracer span came through re-based.
  EXPECT_TRUE(summary.Contains("cure.serve.query"));
}

// -------------------------------------------------------- buckets wire format

TEST(HistogramWireTest, BucketsLineRoundTripsThroughFederationMerge) {
  LogHistogram original;
  for (int64_t v = 1; v <= 2000; ++v) original.Record(v);
  std::string line;
  AppendHistogramBuckets("cure_serve_query_latency", original, &line);
  ASSERT_EQ(line.rfind("# BUCKETS cure_serve_query_latency ", 0), 0u) << line;

  std::string name;
  LogHistogram::Snapshot snapshot;
  ASSERT_TRUE(ParseHistogramBuckets(line, &name, &snapshot));
  EXPECT_EQ(name, "cure_serve_query_latency");
  const LogHistogram::Snapshot direct = original.TakeSnapshot();
  EXPECT_EQ(snapshot.count, direct.count);
  EXPECT_EQ(snapshot.sum, direct.sum);
  EXPECT_EQ(snapshot.max, direct.max);
  EXPECT_EQ(snapshot.buckets, direct.buckets);

  // Merging the parsed snapshot reproduces the original quantiles exactly —
  // the property that makes cluster percentiles honest.
  LogHistogram merged;
  merged.Merge(snapshot);
  const LogHistogram::Snapshot after = merged.TakeSnapshot();
  EXPECT_EQ(after.p50, direct.p50);
  EXPECT_EQ(after.p95, direct.p95);
  EXPECT_EQ(after.p99, direct.p99);

  // Malformed lines are rejected, not mis-parsed.
  EXPECT_FALSE(ParseHistogramBuckets("# BUCKETS", &name, &snapshot));
  EXPECT_FALSE(ParseHistogramBuckets("cure_x 1", &name, &snapshot));
  EXPECT_FALSE(
      ParseHistogramBuckets("# BUCKETS x sum=1 max=1 999999:1", &name,
                            &snapshot));
}

// ------------------------------------------------------------ federation text

TEST(FederationTest, RelabelsSamplesPreservingExistingLabels) {
  std::string name, out;
  ASSERT_TRUE(RelabelSampleLine("cure_serve_queries_total 5", 2, 1, &name, &out));
  EXPECT_EQ(name, "cure_serve_queries_total");
  EXPECT_EQ(out, "cure_serve_queries_total{shard=\"2\",replica=\"1\"} 5");
  ASSERT_TRUE(RelabelSampleLine("lat{quantile=\"0.99\"} 120", 0, 3, &name, &out));
  EXPECT_EQ(name, "lat");
  EXPECT_EQ(out, "lat{shard=\"0\",replica=\"3\",quantile=\"0.99\"} 120");
  EXPECT_FALSE(RelabelSampleLine("", 0, 0, &name, &out));
  EXPECT_FALSE(RelabelSampleLine("novalue", 0, 0, &name, &out));
  EXPECT_FALSE(RelabelSampleLine("!bad{} 1", 0, 0, &name, &out));
}

TEST(FederationTest, MergesBackendSeriesAndHistograms) {
  LogHistogram lat0, lat1;
  for (int64_t v = 1; v <= 100; ++v) lat0.Record(v);
  for (int64_t v = 1000; v <= 1100; ++v) lat1.Record(v);
  std::string expo0 = "# TYPE cure_serve_queries_total counter\n"
                      "cure_serve_queries_total 10\n";
  AppendHistogramBuckets("cure_serve_query_latency", lat0, &expo0);
  std::string expo1 = "# TYPE cure_serve_queries_total counter\n"
                      "cure_serve_queries_total 32\n";
  AppendHistogramBuckets("cure_serve_query_latency", lat1, &expo1);

  MetricsFederator federator;
  federator.AddBackend(0, 0, expo0);
  federator.AddBackend(1, 0, expo1);
  federator.AddUnreachable(1, 1, "127.0.0.1:7106", "connect: refused");
  EXPECT_EQ(federator.backends_scraped(), 2);
  EXPECT_EQ(federator.backends_failed(), 1);

  const std::string out = federator.Render();
  EXPECT_NE(out.find("# cluster federation: scraped=2 failed=1"),
            std::string::npos)
      << out;
  // Both backends' samples, grouped under one TYPE header, labeled apart.
  EXPECT_NE(out.find("# TYPE cure_serve_queries_total counter"),
            std::string::npos);
  EXPECT_NE(out.find("cure_serve_queries_total{shard=\"0\",replica=\"0\"} 10"),
            std::string::npos);
  EXPECT_NE(out.find("cure_serve_queries_total{shard=\"1\",replica=\"0\"} 32"),
            std::string::npos);
  // The merged histogram renders under the cluster namespace with the
  // bucket-exact combined count, and the quantiles span both backends.
  EXPECT_NE(out.find("cure_cluster_query_latency_count 201"),
            std::string::npos)
      << out;
  // The unreachable backend is reported, not silently dropped.
  EXPECT_NE(out.find("# backend shard=1 replica=1 127.0.0.1:7106 unreachable:"),
            std::string::npos);
}

// --------------------------------------------------------- loopback cluster

gen::Dataset MakeHier(uint64_t tuples, uint64_t seed) {
  gen::Dataset ds;
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Linear("A", {24, 6, 2}));
  dims.push_back(schema::Dimension::Linear("B", {9, 3}));
  auto schema = schema::CubeSchema::Create(
      std::move(dims), 1,
      {{schema::AggFn::kSum, 0, "s"}, {schema::AggFn::kCount, 0, "c"}});
  EXPECT_TRUE(schema.ok());
  ds.schema = std::move(schema).value();
  ds.table = schema::FactTable(2, 1);
  gen::Rng rng(seed);
  for (uint64_t t = 0; t < tuples; ++t) {
    const uint32_t row[2] = {static_cast<uint32_t>(rng.NextRange(24)),
                             static_cast<uint32_t>(rng.NextRange(9))};
    const int64_t m = static_cast<int64_t>(rng.NextRange(100));
    ds.table.AppendRow(row, &m);
  }
  return ds;
}

/// Two shards (contiguous row split) × two replicas of real servers behind
/// a CureRouter — the smallest cluster where attempts, shard tracks and
/// federation labels are all distinguishable.
struct ObservabilityClusterFixture {
  gen::Dataset ds;
  std::vector<schema::FactTable> parts;
  std::vector<std::unique_ptr<engine::CureCube>> cubes;
  std::vector<std::vector<std::unique_ptr<CubeServer>>> servers;
  std::vector<std::vector<std::unique_ptr<TcpLineServer>>> tcps;
  std::unique_ptr<CureRouter> router;

  explicit ObservabilityClusterFixture(RouterOptions options = {}) {
    ds = MakeHier(800, 41);
    const uint64_t rows = ds.table.num_rows();
    for (int k = 0; k < 2; ++k) {
      schema::FactTable part(2, 1);
      const uint64_t begin = rows * k / 2, end = rows * (k + 1) / 2;
      uint32_t dims[2];
      int64_t m;
      for (uint64_t row = begin; row < end; ++row) {
        dims[0] = ds.table.dim(0, row);
        dims[1] = ds.table.dim(1, row);
        m = ds.table.measure(0, row);
        part.AppendRow(dims, &m);
      }
      parts.push_back(std::move(part));
    }
    ShardMap map;
    for (const auto& part : parts) {
      FactInput input{.table = &part};
      auto built = BuildCure(ds.schema, input, CureOptions{});
      EXPECT_TRUE(built.ok()) << built.status().ToString();
      cubes.push_back(std::move(built).value());
      servers.emplace_back();
      tcps.emplace_back();
      std::vector<BackendAddress> replicas;
      CubeServerOptions server_options;
      server_options.cache_bytes = 1 << 20;  // so repeat PROFILEs show HITs
      for (int r = 0; r < 2; ++r) {
        auto server = CubeServer::Create(cubes.back().get(), server_options);
        EXPECT_TRUE(server.ok());
        servers.back().push_back(std::move(server).value());
        auto tcp =
            TcpLineServer::Start(servers.back().back().get(), TcpServerOptions{});
        EXPECT_TRUE(tcp.ok());
        tcps.back().push_back(std::move(tcp).value());
        replicas.push_back({"127.0.0.1", tcps.back().back()->port()});
      }
      map.shards.push_back(std::move(replicas));
    }
    auto created = CureRouter::Create(&ds.schema, map, options);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    router = std::move(created).value();
  }
};

/// Body of an "OK..."-headed response (between header and "." terminator).
std::string Body(const std::string& response) {
  const size_t nl = response.find('\n');
  EXPECT_NE(nl, std::string::npos) << response;
  std::string body = response.substr(nl + 1);
  if (body.size() >= 2 && body.compare(body.size() - 2, 2, ".\n") == 0) {
    body.resize(body.size() - 2);
  }
  return body;
}

TEST(RouterObservabilityTest, ProfileVerbReturnsClusterProfileEndToEnd) {
  ObservabilityClusterFixture fx;
  const std::string response = fx.router->HandleLine("PROFILE QUERY A_L1,B_L1");
  ASSERT_EQ(response.rfind("OK ", 0), 0u) << response;
  EXPECT_NE(response.find(" PROFILE trace="), std::string::npos) << response;

  // The header carries the wrapped query's real result (count + checksum):
  // profiling must not change the answer.
  const std::string plain = fx.router->HandleLine("QUERY A_L1,B_L1");
  unsigned long long profile_count = 0, plain_count = 0;
  char profile_checksum[32] = {0}, plain_checksum[32] = {0};
  ASSERT_EQ(std::sscanf(response.c_str(), "OK %llu %31s", &profile_count,
                        profile_checksum),
            2);
  ASSERT_EQ(
      std::sscanf(plain.c_str(), "OK %llu %31s", &plain_count, plain_checksum),
      2);
  EXPECT_EQ(profile_count, plain_count);
  EXPECT_STRCASEEQ(profile_checksum, plain_checksum);

  // Likewise for a post-merge selection: PROFILE TOPK reports the selected
  // k groups' count and checksum, not the full merged relation's.
  const std::string profile_topk =
      fx.router->HandleLine("PROFILE TOPK A_L0,B_L0 5");
  const std::string plain_topk = fx.router->HandleLine("TOPK A_L0,B_L0 5");
  ASSERT_EQ(std::sscanf(profile_topk.c_str(), "OK %llu %31s", &profile_count,
                        profile_checksum),
            2)
      << profile_topk;
  ASSERT_EQ(std::sscanf(plain_topk.c_str(), "OK %llu %31s", &plain_count,
                        plain_checksum),
            2)
      << plain_topk;
  EXPECT_EQ(plain_count, 5u);
  EXPECT_EQ(profile_count, plain_count);
  EXPECT_STRCASEEQ(profile_checksum, plain_checksum);

  ClusterProfile profile;
  ASSERT_TRUE(ParseClusterProfile(Body(response), &profile)) << response;
  EXPECT_EQ(profile.command, "QUERY A_L1,B_L1");
  EXPECT_EQ(profile.shards_total, 2);
  EXPECT_EQ(profile.shards_ok, 2);
  EXPECT_GT(profile.total_us, 0);
  EXPECT_GT(profile.scatter_us, 0);
  EXPECT_GE(profile.total_us, profile.scatter_us);
  ASSERT_EQ(profile.shards.size(), 2u);
  for (const ShardProfile& shard : profile.shards) {
    EXPECT_TRUE(shard.ok) << "shard " << shard.shard;
    ASSERT_FALSE(shard.attempts.empty());
    // Exactly one attempt won; its end time sits inside the query window.
    int won = 0;
    for (const AttemptRecord& attempt : shard.attempts) {
      if (attempt.outcome == "won") {
        ++won;
        EXPECT_EQ(attempt.kind, "primary");
        EXPECT_GE(attempt.end_us, attempt.launch_us);
        EXPECT_LE(attempt.end_us, profile.total_us);
      }
    }
    EXPECT_EQ(won, 1) << "shard " << shard.shard;
    // Every shard shipped its stage breakdown, and it is consistent with
    // the attempt timing the router measured around the round trip.
    bool found_stages = false;
    for (const std::string& line : shard.backend_lines) {
      const BackendStageBreakdown stages = ParseBackendProfileLine(line);
      if (!stages.valid) continue;
      found_stages = true;
      EXPECT_GE(stages.total_us, 0);
      EXPECT_LE(stages.total_us, profile.total_us);
      EXPECT_EQ(stages.cache, "MISS");
    }
    EXPECT_TRUE(found_stages) << "shard " << shard.shard;
  }

  // The profile exports as a valid Chrome trace with per-shard tracks.
  ChromeTraceSummary summary;
  const std::string json = ClusterProfileToChromeTrace(profile);
  const Status status = ValidateChromeTrace(json, &summary);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(summary.Contains("cure.router.profile_query"));
  EXPECT_EQ(summary.CompleteCount("cure.router.attempt"),
            profile.shards[0].attempts.size() +
                profile.shards[1].attempts.size());
  EXPECT_TRUE(summary.Contains("cure.serve.execute"));

  // A second run is served from the backend caches and says so.
  ClusterProfile cached;
  ASSERT_TRUE(ParseClusterProfile(
      Body(fx.router->HandleLine("PROFILE QUERY A_L1,B_L1")), &cached));
  bool saw_hit = false;
  for (const ShardProfile& shard : cached.shards) {
    for (const std::string& line : shard.backend_lines) {
      if (ParseBackendProfileLine(line).cache == "HIT") saw_hit = true;
    }
  }
  EXPECT_TRUE(saw_hit);

  // Other verbs wrap too; errors and misuse stay ERR.
  EXPECT_EQ(fx.router->HandleLine("PROFILE TOPK A_L1 3").rfind("OK ", 0), 0u);
  EXPECT_EQ(fx.router->HandleLine("PROFILE ROLLUP A_L0 A").rfind("OK ", 0), 0u);
  EXPECT_EQ(fx.router->HandleLine("PROFILE").rfind("ERR InvalidArgument", 0),
            0u);
  EXPECT_EQ(
      fx.router->HandleLine("PROFILE STATS").rfind("ERR InvalidArgument", 0),
      0u);
  EXPECT_EQ(fx.router->HandleLine("PROFILE QUERY bogus").rfind("ERR ", 0), 0u);

  // PROFILE responses never poison the plain-query path: headers still match.
  EXPECT_EQ(fx.router->HandleLine("QUERY A_L1,B_L1").rfind(plain.substr(0, 20), 0),
            0u);
}

TEST(RouterObservabilityTest, MetricsClusterFederatesBackendSeries) {
  ObservabilityClusterFixture fx;
  ASSERT_EQ(fx.router->HandleLine("QUERY A_L1").rfind("OK ", 0), 0u);
  const std::string metrics = fx.router->HandleLine("METRICS cluster");
  ASSERT_EQ(metrics.rfind("OK\n", 0), 0u);
  // Router-side series are still present...
  EXPECT_NE(metrics.find("cure_router_queries_total"), std::string::npos);
  // ...plus every backend's series, labeled by shard/replica (4 replicas).
  EXPECT_NE(metrics.find("# cluster federation: scraped=4 failed=0"),
            std::string::npos)
      << metrics.substr(0, 2000);
  for (const char* sample :
       {"cure_serve_queries_total{shard=\"0\",replica=\"0\"}",
        "cure_serve_queries_total{shard=\"0\",replica=\"1\"}",
        "cure_serve_queries_total{shard=\"1\",replica=\"0\"}",
        "cure_serve_queries_total{shard=\"1\",replica=\"1\"}"}) {
    EXPECT_NE(metrics.find(sample), std::string::npos) << sample;
  }
  // Histograms merged bucket-exactly into the cluster namespace.
  EXPECT_NE(metrics.find("cure_cluster_query_latency_us_count"),
            std::string::npos);

  // Plain METRICS stays backend-free (no federation scrape per scrape).
  const std::string plain = fx.router->HandleLine("METRICS");
  EXPECT_EQ(plain.find("# cluster federation"), std::string::npos);
  EXPECT_EQ(plain.find("cure_serve_queries_total"), std::string::npos);
}

TEST(RouterObservabilityTest, BreakerStateIsOneLabeledSeries) {
  ObservabilityClusterFixture fx;
  const std::string metrics = fx.router->HandleLine("METRICS");
  EXPECT_NE(metrics.find("# TYPE cure_router_breaker_state gauge"),
            std::string::npos);
  for (const char* sample :
       {"cure_router_breaker_state{shard=\"0\",replica=\"0\"} 0",
        "cure_router_breaker_state{shard=\"1\",replica=\"1\"} 0"}) {
    EXPECT_NE(metrics.find(sample), std::string::npos) << metrics;
  }
  // The per-replica metric-NAME family is gone — cardinality no longer
  // scales with the map.
  EXPECT_EQ(metrics.find("breaker_state_s"), std::string::npos);
}

TEST(RouterObservabilityTest, SlowlogRecordsOverThresholdRoutedQueries) {
  RouterOptions options;
  options.slow_query_seconds = 1e-9;  // Everything is over threshold.
  ObservabilityClusterFixture fx(options);
  std::string dump = fx.router->HandleLine("SLOWLOG");
  ASSERT_EQ(dump.rfind("OK\n", 0), 0u);
  EXPECT_NE(dump.find("total 0 capacity "), std::string::npos) << dump;

  ASSERT_EQ(fx.router->HandleLine("QUERY A_L1 trace=515").rfind("OK ", 0), 0u);
  dump = fx.router->HandleLine("SLOWLOG");
  EXPECT_NE(dump.find("#1 "), std::string::npos) << dump;
  EXPECT_NE(dump.find("trace=515"), std::string::npos) << dump;
  EXPECT_NE(dump.find("verb=QUERY"), std::string::npos) << dump;
  EXPECT_NE(dump.find("shards_ok=2/2"), std::string::npos) << dump;
}

TEST(RouterObservabilityTest, SlowlogRecordsFailedRoutedBatch) {
  RouterOptions options;
  options.slow_query_seconds = 1e-9;  // Everything is over threshold.
  ObservabilityClusterFixture fx(options);
  // Every replica of shard 1 is down: the BATCH fails with IOError, and
  // the failure lands in the ring like a failed QUERY, ROLLUP or TOPK.
  for (auto& tcp : fx.tcps[1]) tcp->Stop();
  const std::string response =
      fx.router->HandleLine("BATCH A_L1 A_L0,B_L0 trace=616");
  ASSERT_EQ(response.rfind("ERR IOError", 0), 0u) << response;
  const std::string dump = fx.router->HandleLine("SLOWLOG");
  EXPECT_NE(dump.find("trace=616 verb=BATCH status=IOError"),
            std::string::npos)
      << dump;
}

}  // namespace
}  // namespace cure
