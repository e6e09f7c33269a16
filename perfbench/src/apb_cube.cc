// apb_cube: the paper's construction and query-response study (Figs. 23-25)
// on APB-1 at density 4, where engine, cube and storage do nearly all the
// work. Each run builds the cube several times (build_s is the median),
// packs and reopens the last one from disk, and then answers node queries
// serially: every round is a seeded permutation of all lattice nodes, so
// every Fig. 25 result-size bucket appears in the same proportion in every
// run.
#include <algorithm>
#include <memory>
#include <thread>

#include "common.h"
#include "cube/rowid.h"
#include "cube/source.h"
#include "engine/cure.h"
#include "gen/datasets.h"
#include "storage/relation.h"

namespace perfbench {

namespace {

constexpr double kDensity = 4.0;
constexpr uint64_t kScale = 200;
// The paper's budget scaled like the data (3 x 256 MB / 200): small enough
// that the external path partitions the fact relation.
constexpr uint64_t kBudgetBytes = 3 * (256ull << 20) / kScale;
constexpr int kBuilds = 5;
// Whole rounds of the query phase (about 11 s each); qps and the median
// latency are medians over rounds, so one slow round does not move them.
// Three keep a traced run pair inside the time limit.
constexpr int kMinRounds = 3;

const cure::storage::BufferCache* FactCache(const cure::query::CureQueryEngine& e) {
  const auto* fact = dynamic_cast<const cure::cube::FactRelationSource*>(
      e.sources().Get(cure::cube::kSourceFact));
  return fact != nullptr ? &fact->cache() : nullptr;
}

struct BuildRun {
  double peak_rss_mb = 0;
  double build_s = 0;
  double setup_s = 0;
  double pack_s = 0;
  double open_s = 0;
  cure::engine::BuildStats stats;
  StorageCounters io;
};

}  // namespace

int RunApbCube(const Args& args, Report* report) {
  const int threads =
      std::max(1u, std::thread::hardware_concurrency());
  const std::string fact_path = args.workdir + "/apb_fact.bin";
  const std::string cube_path = args.workdir + "/apb_cube.bin";

  std::vector<BuildRun> runs;
  std::unique_ptr<cure::engine::CureCube> cube;
  std::unique_ptr<cure::storage::Relation> rel;
  std::unique_ptr<cure::query::CureQueryEngine> engine;
  cure::schema::CubeSchema schema;
  std::vector<Answer> reference;
  double fact_bytes = 0;
  double cube_bytes = 0;
  double fact_cache_fraction = 0;

  for (int b = 0; b < kBuilds; ++b) {
    BuildRun run;
    engine.reset();
    cube.reset();
    rel.reset();
    ResetPeakRss();
    // --- setup: generate and write the fact relation.
    int64_t t0 = NowUs();
    {
      Span gen_span("gen.apb", "gen");
      cure::gen::ApbSpec spec;
      spec.density = kDensity;
      spec.scale_divisor = kScale;
      spec.seed = args.seed;
      cure::gen::Dataset apb = cure::gen::MakeApb(spec);
      schema = apb.schema;
      auto created = cure::storage::Relation::CreateFile(fact_path, apb.table.RecordSize());
      CURE_CHECK(created.ok()) << created.status().ToString();
      rel = std::make_unique<cure::storage::Relation>(std::move(created).value());
      CURE_CHECK_OK(apb.table.WriteTo(rel.get()));
      CURE_CHECK_OK(rel->Seal());
    }
    run.setup_s = static_cast<double>(NowUs() - t0) * 1e-6;

    // --- timed: BuildCure through its persist stage.
    cure::engine::CureOptions options;
    options.memory_budget_bytes = kBudgetBytes;
    options.num_threads = threads;
    options.temp_dir = args.workdir;
    cure::engine::FactInput input{.relation = rel.get()};
    const StorageCounters io0 = StorageCounters::Now();
    t0 = NowUs();
    {
      Span build_span("engine.build", "engine");
      auto built = cure::engine::BuildCure(schema, input, options);
      CURE_CHECK(built.ok()) << built.status().ToString();
      cube = std::move(built).value();
    }
    run.build_s = static_cast<double>(NowUs() - t0) * 1e-6;
    const StorageCounters io1 = StorageCounters::Now();
    run.io.read_bytes = io1.read_bytes - io0.read_bytes;
    run.io.written_bytes = io1.written_bytes - io0.written_bytes;
    run.io.fsyncs = io1.fsyncs - io0.fsyncs;
    run.io.spill_bytes = io1.spill_bytes - io0.spill_bytes;
    run.stats = cube->stats();
    fact_bytes = static_cast<double>(rel->bytes());
    cube_bytes = static_cast<double>(cube->TotalBytes());

    const cure::schema::NodeIdCodec& codec = cube->store().codec();
    if (b + 1 == kBuilds) {
      // Reference answers, outside every timed phase: the record-at-a-time
      // engine path over the in-memory cube with the fact table fully cached.
      auto ref_engine = cure::query::CureQueryEngine::Create(cube.get(), 1.0);
      CURE_CHECK(ref_engine.ok()) << ref_engine.status().ToString();
      (*ref_engine)->set_batch_rows(1);
      reference.resize(codec.num_nodes());
      for (cure::schema::NodeId id = 0; id < codec.num_nodes(); ++id) {
        cure::query::ResultSink sink;
        CURE_CHECK_OK((*ref_engine)->QueryNode(id, &sink));
        reference[id] = Answer{sink.count(), sink.checksum()};
      }
    }

    // --- setup: pack, reopen from disk, open a query engine, warm up.
    t0 = NowUs();
    {
      Span pack_span("cube.pack", "cube");
      CURE_CHECK_OK(cube->mutable_store().PersistPacked(cube_path));
    }
    const int64_t t_packed = NowUs();
    {
      Span open_span("cube.open", "cube");
      auto reopened = cure::cube::CubeStore::OpenPacked(cube_path, &cube->schema());
      CURE_CHECK(reopened.ok()) << reopened.status().ToString();
      cube->mutable_store() = std::move(reopened).value();
    }
    const int64_t t_opened = NowUs();
    // The paper leaves 25% of the budget for caching the fact table.
    fact_cache_fraction = std::min(1.0, 0.25 * static_cast<double>(kBudgetBytes) /
                                            fact_bytes);
    {
      Span create_span("query.create_engine", "query");
      auto created = cure::query::CureQueryEngine::Create(cube.get(), fact_cache_fraction);
      CURE_CHECK(created.ok()) << created.status().ToString();
      engine = std::move(created).value();
    }
    {
      // Warm-up: the apex and the base node touch every relation file once.
      Span warm_span("query.warmup", "query");
      cure::query::ResultSink sink;
      CURE_CHECK_OK(engine->QueryNode(codec.num_nodes() - 1, &sink));
      sink.Reset();
      CURE_CHECK_OK(engine->QueryNode(0, &sink));
    }
    run.pack_s = static_cast<double>(t_packed - t0) * 1e-6;
    run.open_s = static_cast<double>(t_opened - t_packed) * 1e-6;
    run.setup_s += static_cast<double>(NowUs() - t0) * 1e-6;
    run.peak_rss_mb = PeakRssMb();
    runs.push_back(run);
  }

  // Fig. 25 buckets: nodes sorted by result size, ten equal buckets;
  // small = 1-3, medium = 4-7, large = 8-10.
  const cure::schema::NodeIdCodec& codec = cube->store().codec();
  const size_t num_nodes = codec.num_nodes();
  std::vector<cure::schema::NodeId> by_size(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) by_size[i] = static_cast<cure::schema::NodeId>(i);
  std::stable_sort(by_size.begin(), by_size.end(), [&](auto a, auto b) {
    return reference[a].count < reference[b].count;
  });
  std::vector<int> size_class(num_nodes);
  for (size_t rank = 0; rank < num_nodes; ++rank) {
    const size_t bucket = rank * 10 / num_nodes;
    size_class[by_size[rank]] = bucket < 3 ? 0 : (bucket < 7 ? 1 : 2);
  }

  // --- timed: serial closed-loop node queries in whole rounds.
  const cure::storage::BufferCache* fact_cache = FactCache(*engine);
  const uint64_t hits0 = fact_cache != nullptr ? fact_cache->hits() : 0;
  const uint64_t miss0 = fact_cache != nullptr ? fact_cache->misses() : 0;
  Samples class_us[3];
  uint64_t rows = 0;
  double engine_s = 0;
  cure::gen::Rng rng(args.seed * 7919 + 17);
  std::vector<cure::schema::NodeId> order(by_size);
  const int64_t phase_start = NowUs();
  const int64_t phase_end = phase_start + static_cast<int64_t>(args.seconds * 1e6);
  Rounds rounds;
  while (NowUs() < phase_end || rounds.size() < kMinRounds) {
    const double round_start = NowUsExact();
    Samples round_latency;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextRange(i)]);
    }
    for (cure::schema::NodeId id : order) {
      const uint64_t req = Spans::Get().on() ? Spans::Get().NewRequestId() : 0;
      cure::query::ResultSink sink;
      const double q0 = NowUsExact();
      cure::Status s;
      {
        Span q_span("query.node", "query", req);
        s = engine->QueryNode(id, &sink);
      }
      const double us = NowUsExact() - q0;
      ++report->attempted;
      if (!s.ok()) {
        ++report->failed;
        report->Fail("node " + std::to_string(id) + ": " + s.ToString());
        continue;
      }
      if (!(Answer{sink.count(), sink.checksum()} == reference[id])) {
        ++report->failed;
        report->Fail("node " + std::to_string(id) + " answer differs from reference");
      }
      round_latency.Add(us);
      class_us[size_class[id]].Add(us);
      rows += sink.count();
      engine_s += us * 1e-6;
    }
    rounds.Add(round_latency.size(), (NowUsExact() - round_start) * 1e-6, round_latency);
  }

  // Medians over the builds; per-layer figures come from the median build.
  std::vector<size_t> idx(runs.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](size_t a, size_t b) { return runs[a].build_s < runs[b].build_s; });
  const BuildRun& med = runs[idx[idx.size() / 2]];
  Samples setup;
  Samples pack, open;
  for (const BuildRun& r : runs) {
    setup.Add(r.setup_s);
    pack.Add(r.pack_s);
    open.Add(r.open_s);
  }

  report->Metric("setup_s", setup.Median(), "s", true, setup.size());
  report->Metric("build_s", med.build_s, "s", true, runs.size());
  report->Metric("cube_bytes_per_fact_byte", cube_bytes / fact_bytes, "ratio", true);
  rounds.Publish(report);
  report->Note("nodes/round=" +
               std::to_string(num_nodes) + " fact_bytes=" +
               std::to_string(static_cast<uint64_t>(fact_bytes)) + " cube_bytes=" +
               std::to_string(static_cast<uint64_t>(cube_bytes)) +
               " fact_cache_fraction=" + std::to_string(fact_cache_fraction) +
               " threads=" + std::to_string(threads));

  if (args.trace) {
    const cure::engine::BuildStats& st = med.stats;
    report->Metric("engine.partition_s", st.partition_stage.wall_seconds, "s", false);
    report->Metric("engine.construct_s", st.construct_stage.wall_seconds, "s", false);
    report->Metric("engine.merge_s", st.merge_stage.wall_seconds, "s", false);
    report->Metric("engine.persist_s", st.persist_stage.wall_seconds, "s", false);
    report->Metric("engine.construct_cpu_per_wall",
                   st.construct_stage.wall_seconds > 0
                       ? st.construct_stage.cpu_seconds / st.construct_stage.wall_seconds
                       : 0,
                   "ratio", false);
    report->Metric("engine.partitions", static_cast<double>(st.num_partitions), "count", false);
    report->Metric("engine.node_n_rows", static_cast<double>(st.n_rows), "count", false);
    report->Metric("engine.partition_bytes", static_cast<double>(st.partition_write_bytes),
                   "bytes", false);
    report->Metric("cube.tt_tuples", static_cast<double>(st.tt), "count", false);
    report->Metric("cube.nt_tuples", static_cast<double>(st.nt), "count", false);
    report->Metric("cube.cat_tuples", static_cast<double>(st.cat), "count", false);
    report->Metric("cube.pack_s", pack.Median(), "s", false, pack.size());
    report->Metric("cube.open_s", open.Median(), "s", false, open.size());
    report->Metric("storage.bytes_read", static_cast<double>(med.io.read_bytes), "bytes", false);
    report->Metric("storage.bytes_written", static_cast<double>(med.io.written_bytes), "bytes",
                   false);
    report->Metric("storage.fsyncs", static_cast<double>(med.io.fsyncs), "count", false);
    report->Metric("storage.sort_spill_bytes", static_cast<double>(med.io.spill_bytes), "bytes",
                   false);
    if (fact_cache != nullptr) {
      const double hits = static_cast<double>(fact_cache->hits() - hits0);
      const double misses = static_cast<double>(fact_cache->misses() - miss0);
      report->Metric("storage.buffer_hit_ratio",
                     hits + misses > 0 ? hits / (hits + misses) : 0, "ratio", false);
    }
    const char* names[3] = {"query.small_us_p50", "query.medium_us_p50", "query.large_us_p50"};
    for (int c = 0; c < 3; ++c) {
      report->Metric(names[c], class_us[c].Median(), "us", false, class_us[c].size());
    }
    report->Metric("query.rows_per_s", engine_s > 0 ? static_cast<double>(rows) / engine_s : 0,
                   "1/s", false);

    // Reconciliation: the engine's own stage times must account for the
    // build time measured around BuildCure (tolerance 10%).
    const double stage_sum = st.load_stage.wall_seconds + st.partition_stage.wall_seconds +
                             st.construct_stage.wall_seconds + st.merge_stage.wall_seconds +
                             st.persist_stage.wall_seconds;
    const double ratio = stage_sum / med.build_s;
    report->Metric("reconcile.engine_stages_over_build", ratio, "ratio", false);
    report->Check(ratio > 0.90 && ratio < 1.10,
                  "engine stage times sum to " + std::to_string(ratio) + " of build_s");
    FinishTrace(args, {"gen.apb", "engine.build", "cube.pack", "cube.open", "query.node"},
                report);
  }
  // Each build iteration's own peak (the query phase stays below it); the
  // median over iterations.
  Samples peak;
  for (const BuildRun& r : runs) peak.Add(r.peak_rss_mb);
  report->Metric("peak_rss_mb", std::max(peak.Median(), PeakRssMb()), "MB", true, peak.size());

  engine.reset();
  cube.reset();
  rel.reset();
  return 0;
}

}  // namespace perfbench
