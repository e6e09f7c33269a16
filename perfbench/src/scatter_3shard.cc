// scatter_3shard: the drill_serve fact table split into three contiguous
// row ranges (the split `cure_tool shard` makes), one CubeServer per shard
// (one worker, cache off, as cure_serve defaults) behind its TCP line front
// end, and a default-option CureRouter (no hedging) behind its own line
// front end. One connection sends QUERY, SLICE, ICEBERG, TOPK, ROLLUP and
// DRILL lines over random lattice nodes; every answer is checked against
// the unsharded cube. Scatter, backend wire and merge dominate; the
// algebra layer does nothing here.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "algebra/rollup.h"
#include "common.h"
#include "engine/cure.h"
#include "router/backend_client.h"
#include "router/merge.h"
#include "router/router.h"
#include "schema/lattice.h"
#include "serve/cube_server.h"
#include "serve/line_transport.h"
#include "serve/protocol.h"
#include "serve/tcp_server.h"
#include "storage/relation.h"

namespace perfbench {

namespace {

constexpr uint64_t kRows = 5000;  // the drill_serve fact table
constexpr int kShards = 3;
// The process runs on one CPU (PinToOneCpu), where a second connection
// would only queue behind the first.
constexpr int kConnections = 1;
constexpr int kSetups = 15;
// Builds behind build_s (three shard builds, about 15 ms together).
constexpr int kBuilds = 41;
constexpr size_t kQueries = 4000;  // pool of distinct query lines
constexpr int64_t kMaxSliceUs = 2000000;

struct Shard {
  cure::schema::FactTable table{0, 0};
  std::unique_ptr<cure::storage::Relation> fact;
  std::unique_ptr<cure::engine::CureCube> cube;
  std::unique_ptr<cure::serve::CubeServer> server;
  std::unique_ptr<cure::serve::TcpLineServer> tcp;
};

struct Cluster {
  std::vector<std::unique_ptr<Shard>> shards;
  std::unique_ptr<cure::router::CureRouter> router;
  std::unique_ptr<cure::serve::LineTransport> front;
  double cube_bytes = 0;
  double fact_bytes = 0;
  void Stop() {
    if (front != nullptr) front->Stop();
    front.reset();
    router.reset();
    for (auto& s : shards) {
      if (s->tcp != nullptr) s->tcp->Stop();
      s->tcp.reset();
      s->server.reset();
      s->cube.reset();
      s->fact.reset();
    }
    shards.clear();
  }
};

struct Query {
  std::string line;          ///< sent to the router
  std::string backend_line;  ///< what the router scatters for it
  cure::schema::NodeId target = 0;
  int64_t min_count = 0;     ///< post-merge iceberg threshold
  bool topk = false;
  Answer expected;
};

Cluster StartCluster(const cure::gen::Dataset& ds, const std::string& dir) {
  Cluster c;
  const uint64_t n = ds.table.num_rows();
  cure::router::ShardMap map;
  for (int k = 0; k < kShards; ++k) {
    auto shard = std::make_unique<Shard>();
    const uint64_t begin = n * k / kShards, end = n * (k + 1) / kShards;
    shard->table = cure::schema::FactTable(ds.table.num_dims(), ds.table.num_measures());
    std::vector<uint32_t> dims(ds.table.num_dims());
    std::vector<int64_t> measures(ds.table.num_measures());
    for (uint64_t r = begin; r < end; ++r) {
      for (int d = 0; d < ds.table.num_dims(); ++d) dims[d] = ds.table.dim(d, r);
      for (int m = 0; m < ds.table.num_measures(); ++m) measures[m] = ds.table.measure(m, r);
      shard->table.AppendRow(dims.data(), measures.data());
    }
    const std::string fact_path = dir + "/shard" + std::to_string(k) + "_fact.bin";
    const std::string cube_path = dir + "/shard" + std::to_string(k) + "_cube.bin";
    std::unique_ptr<cure::engine::CureCube> built;
    {
      Span span("engine.build", "engine");
      cure::engine::FactInput input{.table = &shard->table};
      auto b = cure::engine::BuildCure(ds.schema, input, BuildOptions(dir));
      CURE_CHECK(b.ok()) << b.status().ToString();
      built = std::move(b).value();
    }
    c.cube_bytes += static_cast<double>(built->TotalBytes());
    {
      Span span("cube.pack", "cube");
      auto rel = cure::storage::Relation::CreateFile(fact_path, shard->table.RecordSize());
      CURE_CHECK(rel.ok()) << rel.status().ToString();
      shard->fact = std::make_unique<cure::storage::Relation>(std::move(rel).value());
      CURE_CHECK_OK(shard->table.WriteTo(shard->fact.get()));
      CURE_CHECK_OK(shard->fact->Seal());
      CURE_CHECK_OK(built->mutable_store().PersistPacked(cube_path));
    }
    built.reset();
    c.fact_bytes += static_cast<double>(shard->fact->bytes());
    {
      Span span("cube.open", "cube");
      auto opened = cure::engine::CureCube::OpenPersisted(ds.schema, cube_path, shard->fact.get());
      CURE_CHECK(opened.ok()) << opened.status().ToString();
      shard->cube = std::move(opened).value();
    }
    {
      Span span("serve.start", "serve");
      cure::serve::CubeServerOptions options;
      options.num_threads = 1;
      auto server = cure::serve::CubeServer::Create(shard->cube.get(), options);
      CURE_CHECK(server.ok()) << server.status().ToString();
      shard->server = std::move(server).value();
      auto tcp = cure::serve::TcpLineServer::Start(shard->server.get(), {});
      CURE_CHECK(tcp.ok()) << tcp.status().ToString();
      shard->tcp = std::move(tcp).value();
    }
    cure::router::BackendAddress addr;
    addr.port = shard->tcp->port();
    map.shards.push_back({addr});
    c.shards.push_back(std::move(shard));
  }
  Span span("router.start", "router");
  auto router = cure::router::CureRouter::Create(&ds.schema, map, cure::router::RouterOptions{});
  CURE_CHECK(router.ok()) << router.status().ToString();
  c.router = std::move(router).value();
  cure::router::CureRouter* r = c.router.get();
  auto front = cure::serve::LineTransport::Start(
      [r](const std::string& line) { return r->HandleLine(line); }, {});
  CURE_CHECK(front.ok()) << front.status().ToString();
  c.front = std::move(front).value();
  return c;
}

// Random query lines over the lattice with their unsharded reference
// answers (the serial record-at-a-time engine over the whole table).
std::vector<Query> MakeQueries(const cure::gen::Dataset& ds, uint64_t seed,
                               const std::string& dir) {
  auto whole = cure::engine::BuildCure(ds.schema, cure::engine::FactInput{.table = &ds.table},
                                       BuildOptions(dir));
  CURE_CHECK(whole.ok()) << whole.status().ToString();
  auto engine = cure::query::CureQueryEngine::Create(whole->get(), 1.0);
  CURE_CHECK(engine.ok()) << engine.status().ToString();
  (*engine)->set_batch_rows(1);
  const cure::schema::CubeSchema& schema = ds.schema;
  const cure::schema::NodeIdCodec codec(schema);
  const cure::schema::Lattice lattice(&schema);
  const int count_agg = 1;  // aggregates: SUM, COUNT
  cure::gen::Rng rng(seed * 6151 + 11);
  std::vector<Query> out;
  while (out.size() < kQueries) {
    const cure::schema::NodeId node =
        static_cast<cure::schema::NodeId>(rng.NextRange(codec.num_nodes()));
    const std::vector<int> levels = codec.Decode(node);
    std::vector<int> grouped;
    for (int d = 0; d < schema.num_dims(); ++d) {
      if (levels[d] != codec.all_level(d)) grouped.push_back(d);
    }
    Query q;
    q.target = node;
    std::vector<cure::query::CureQueryEngine::Slice> slices;
    const std::string spec = NodeSpec(schema, node);
    cure::query::ResultSink sink(/*retain=*/true);
    switch (rng.NextRange(6)) {
      case 0:
        q.line = "QUERY " + spec;
        break;
      case 1: {
        if (grouped.empty()) continue;
        const int d = grouped[rng.NextRange(grouped.size())];
        cure::query::CureQueryEngine::Slice s;
        s.dim = d;
        s.level = levels[d];
        s.code = static_cast<uint32_t>(rng.NextRange(schema.dim(d).level(levels[d]).cardinality));
        slices.push_back(s);
        q.line = "SLICE " + spec + SliceSpecs(schema, slices);
        break;
      }
      case 2:
        q.min_count = 2 + static_cast<int64_t>(rng.NextRange(8));
        q.line = "ICEBERG " + spec + " " + std::to_string(q.min_count);
        break;
      case 3: {
        const int k = 1 + static_cast<int>(rng.NextRange(10));
        q.topk = true;
        q.line = "TOPK " + spec + " " + std::to_string(k);
        CURE_CHECK_OK((*engine)->QueryNode(node, &sink));
        std::vector<cure::query::ResultSink::Row> top =
            cure::algebra::SelectTopK(sink.TakeRows(), static_cast<size_t>(k), count_agg);
        cure::query::ResultSink selected;
        for (const auto& row : top) {
          selected.Emit(row.dims.data(), static_cast<int>(row.dims.size()), row.aggrs.data(),
                        static_cast<int>(row.aggrs.size()));
        }
        q.expected = Answer{selected.count(), selected.checksum()};
        break;
      }
      default: {  // ROLLUP or DRILL along a random dimension
        const bool up = rng.NextRange(2) == 0;
        const int d = static_cast<int>(rng.NextRange(schema.num_dims()));
        auto target = up ? lattice.RollUpDim(node, d) : lattice.DrillDownDim(node, d);
        if (!target.ok()) continue;
        q.target = *target;
        q.line = std::string(up ? "ROLLUP " : "DRILL ") + spec + " " + schema.dim(d).name();
        break;
      }
    }
    q.backend_line = (slices.empty() ? "QUERY " : "SLICE ") + NodeSpec(schema, q.target) +
                     SliceSpecs(schema, slices);
    if (!q.topk) {
      sink.Reset();
      CURE_CHECK_OK((*engine)->QueryNodeSlicedIceberg(q.target, slices, count_agg, q.min_count,
                                                      &sink));
      q.expected = Answer{sink.count(), sink.checksum()};
    }
    out.push_back(std::move(q));
  }
  return out;
}

// Traced-run figures of the router layer.
struct RouterLog {
  Samples request_us, slowest_us, overhead_us, merge_us;
  double rows_in = 0, bytes_in = 0;
  uint64_t merged_wrong = 0;
  int threads_peak = 0;
};

// The routed query's backend line sent straight to every shard, then the
// captured replies merged as the router would.
void TraceDirect(const Cluster& cluster, const cure::router::BackendClient& client,
                 const cure::schema::CubeSchema& schema, const Query& q, double request_us,
                 uint64_t req, RouterLog* log) {
  std::vector<cure::router::BackendReply> replies;
  double slowest = 0;
  for (const auto& shard : cluster.shards) {
    cure::router::BackendAddress addr;
    addr.port = shard->tcp->port();
    const int64_t t0 = NowUs();
    Span span("serve.backend_direct", "serve", req);
    auto raw = client.RoundTrip(addr, q.backend_line);
    span.End();
    slowest = std::max(slowest, static_cast<double>(NowUs() - t0));
    CURE_CHECK(raw.ok()) << raw.status().ToString();
    log->bytes_in += static_cast<double>(raw->size());
    replies.push_back(cure::router::ParseBackendReply(*raw));
  }
  log->slowest_us.Add(slowest);
  log->overhead_us.Add(request_us - slowest);
  const cure::schema::NodeIdCodec codec(schema);
  const std::vector<int> levels = codec.Decode(q.target);
  int grouped = 0;
  for (int d = 0; d < schema.num_dims(); ++d) grouped += levels[d] != codec.all_level(d);
  const int64_t m0 = NowUs();
  Span span("router.merge_direct", "router", req);
  cure::router::PartialMerger merger(schema);
  std::vector<uint32_t> dims(grouped);
  std::vector<int64_t> aggrs(merger.num_aggregates());
  for (const auto& reply : replies) {
    log->rows_in += static_cast<double>(reply.rows.size());
    for (const std::string& row : reply.rows) {
      const std::vector<std::string> fields = cure::serve::SplitTokens(row);
      CURE_CHECK(fields.size() == dims.size() + aggrs.size()) << row;
      for (size_t i = 0; i < dims.size(); ++i) dims[i] = std::stoul(fields[i]);
      for (size_t i = 0; i < aggrs.size(); ++i) aggrs[i] = std::stoll(fields[dims.size() + i]);
      merger.Add(dims, aggrs.data());
    }
  }
  cure::query::ResultSink sink;
  CURE_CHECK_OK(merger.Finish(1, q.min_count, &sink));
  span.End();
  log->merge_us.Add(static_cast<double>(NowUs() - m0));
  if (!q.topk && !(Answer{sink.count(), sink.checksum()} == q.expected)) ++log->merged_wrong;
}

}  // namespace

int RunScatter3Shard(const Args& args, Report* report) {
  report->Note("pinned to cpu " + std::to_string(PinToOneCpu()));
  cure::gen::Dataset ds;
  Cluster cluster;
  Samples setup_s;
  for (int k = 0; k < kSetups; ++k) {
    cluster.Stop();
    const int64_t t0 = NowUs();
    {
      Span span("gen.drill", "gen");
      ds = MakeDrillDataset(kRows, args.seed);
    }
    cluster = StartCluster(ds, args.workdir);
    {
      // Warm-up: every verb once through the router.
      Span span("router.warmup", "router");
      LineClient client;
      CURE_CHECK(client.Connect(cluster.front->port()));
      std::string response;
      for (const char* line : {"QUERY ALL", "QUERY A_L2,B_L1", "ICEBERG A_L2 2", "TOPK B_L1 3",
                               "DRILL ALL A", "ROLLUP A_L2 A", "SLICE A_L2 A_L2=0"}) {
        CURE_CHECK(client.RoundTrip(line, &response) && response.compare(0, 3, "OK ") == 0)
            << line << " -> " << response;
      }
    }
    setup_s.Add(static_cast<double>(NowUs() - t0) * 1e-6);
  }
  const std::vector<Query> queries = MakeQueries(ds, args.seed, args.workdir);
  // build_s: the three shard builds of one set-up, repeated for a median.
  std::vector<cure::engine::FactInput> build_inputs;
  for (const auto& shard : cluster.shards) build_inputs.push_back({.table = &shard->table});
  Samples build_s;
  double built_bytes = 0;
  TimeBuilds(ds.schema, build_inputs, args.workdir, kBuilds / 2, &build_s, &built_bytes);

  // --- timed: a closed-loop connection to the router front end.
  cure::router::BackendClient direct(5.0);
  const int64_t phase_start = NowUs();
  const int64_t phase_end = phase_start + static_cast<int64_t>(args.seconds * 1e6);
  const int64_t slice_us = std::min<int64_t>(kMaxSliceUs, phase_end - phase_start);
  struct ConnLog {
    std::vector<Samples> slices;
    uint64_t attempted = 0, failed = 0;
    std::string first_error;
    RouterLog router;
  };
  std::vector<ConnLog> logs(kConnections);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      ConnLog& log = logs[c];
      LineClient client;
      const bool connected = client.Connect(cluster.front->port());
      cure::gen::Rng rng(args.seed * 977 + c);
      std::string response;
      uint64_t n = 0;
      while (NowUs() < phase_end) {
        const Query& q = queries[rng.NextRange(queries.size())];
        ++log.attempted;
        const uint64_t req = Spans::Get().on() ? Spans::Get().NewRequestId() : 0;
        const double q0 = NowUsExact();
        Span span("router.request", "router", req);
        const bool ok = connected && client.RoundTrip(q.line, &response);
        span.End();
        const double us = NowUsExact() - q0;
        Answer got;
        if (!ok || !ParseOkHeader(response, &got, nullptr) || !(got == q.expected)) {
          ++log.failed;
          if (log.first_error.empty()) {
            log.first_error = q.line + " -> " + (ok ? response.substr(0, 120) : "transport");
          }
          continue;
        }
        const size_t slice = static_cast<size_t>((NowUs() - phase_start) / slice_us);
        if (log.slices.size() <= slice) log.slices.resize(slice + 1);
        log.slices[slice].Add(us);
        if (!args.trace) continue;
        log.router.request_us.Add(us);
        TraceDirect(cluster, direct, ds.schema, q, us, req, &log.router);
        if (c == 0 && (n++ % 64) == 0) {
          log.router.threads_peak = std::max(log.router.threads_peak, ThreadCount());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  TimeBuilds(ds.schema, build_inputs, args.workdir, kBuilds - kBuilds / 2, &build_s,
             &built_bytes);

  Rounds rounds;
  const size_t whole = static_cast<size_t>((phase_end - phase_start) / slice_us);
  RouterLog total;
  uint64_t attempted = 0, failed = 0;
  std::string first_error;
  for (size_t i = 0; i < whole; ++i) {
    Samples slice;
    for (const ConnLog& log : logs) {
      if (i < log.slices.size()) slice.Append(log.slices[i]);
    }
    rounds.Add(slice.size(), static_cast<double>(slice_us) * 1e-6, slice);
  }
  for (const ConnLog& log : logs) {
    attempted += log.attempted;
    failed += log.failed;
    if (first_error.empty()) first_error = log.first_error;
    total.request_us.Append(log.router.request_us);
    total.slowest_us.Append(log.router.slowest_us);
    total.overhead_us.Append(log.router.overhead_us);
    total.merge_us.Append(log.router.merge_us);
    total.rows_in += log.router.rows_in;
    total.bytes_in += log.router.bytes_in;
    total.merged_wrong += log.router.merged_wrong;
    total.threads_peak = std::max(total.threads_peak, log.router.threads_peak);
  }
  report->attempted = attempted;
  report->failed = failed;
  if (failed > 0) {
    report->Fail(std::to_string(failed) + " failed or wrong answers, first: " + first_error);
  }
  report->Metric("setup_s", setup_s.Median(), "s", true, setup_s.size());
  report->Metric("build_s", build_s.Median(), "s", true, build_s.size());
  report->Metric("cube_bytes_per_fact_byte", cluster.cube_bytes / cluster.fact_bytes, "ratio",
                 true);
  rounds.Publish(report);
  report->Note("rows=" + std::to_string(kRows) + " shards=" + std::to_string(kShards) +
               " query_pool=" + std::to_string(queries.size()));

  if (args.trace) {
    const double n = static_cast<double>(total.request_us.size());
    report->Check(total.merged_wrong == 0, std::to_string(total.merged_wrong) +
                                               " direct merges differ from the reference");
    report->Percentiles("router.request_us_p50", "", total.request_us, "us", false);
    report->Percentiles("router.slowest_backend_us_p50", "", total.slowest_us, "us", false);
    report->Percentiles("router.overhead_us_p50", "", total.overhead_us, "us", false);
    report->Percentiles("router.merge_us_p50", "", total.merge_us, "us", false);
    report->Metric("router.rows_in_per_query", total.rows_in / n, "count", false);
    report->Metric("router.reply_bytes_in", total.bytes_in / n, "bytes", false);
    cluster.router->StatsText();  // samples the pool gauges
    cure::MetricsRegistry* m = cluster.router->metrics();
    const double reuses = m->gauge("backend_pool_reuses")->value();
    const double connects = m->gauge("backend_pool_connects")->value();
    report->Metric("router.pool_reuse_ratio",
                   reuses + connects > 0 ? reuses / (reuses + connects) : 0, "ratio", false);
    report->Metric("router.retries", static_cast<double>(m->counter("retries_total")->value()),
                   "count", false);
    report->Metric("router.hedges", static_cast<double>(m->counter("hedges_total")->value()),
                   "count", false);
    report->Metric("router.threads_peak", static_cast<double>(total.threads_peak), "count",
                   false);
    // Reconciliation: router overhead plus the slowest backend accounts for
    // the routed latency, at the median (tolerance 15%).
    const double ratio = (total.overhead_us.Median() + total.slowest_us.Median()) /
                         total.request_us.Median();
    report->Metric("reconcile.router_parts_over_latency", ratio, "ratio", false);
    report->Check(ratio > 0.85 && ratio < 1.15,
                  "router overhead + slowest backend = " + std::to_string(ratio) +
                      " of routed latency");
    FinishTrace(args, {"gen.drill", "engine.build", "cube.pack", "cube.open", "router.request",
                       "serve.backend_direct", "router.merge_direct"},
                report);
  }
  report->Metric("peak_rss_mb", PeakRssMb(), "MB", true);
  cluster.Stop();
  return 0;
}

}  // namespace perfbench
