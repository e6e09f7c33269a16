// Reproduces Figure 25: average query response time on APB-1 (density 4)
// for all 168 node queries, grouped into ten equal-sized buckets ordered by
// result size — CURE, CURE+, CURE_DR, CURE_DR+.
//
// The paper's observation: the DR variants answer 60% of node queries in
// <0.5 s and 80% in <10 s; only the few largest (multi-million-tuple)
// queries are slow, and those are impractical for analysts anyway.

#include <algorithm>

#include "bench/bench_util.h"
#include "storage/relation.h"

using namespace cure;         // NOLINT
using namespace cure::bench;  // NOLINT

int main() {
  PrintHeader(
      "Figure 25 — APB-1 density 4: avg QRT of all 168 node queries in ten "
      "result-size buckets");
  const uint64_t scale = static_cast<uint64_t>(ScaleEnv(200));
  const uint64_t budget = MemBudgetEnv(3 * (256ull << 20) / scale);

  gen::ApbSpec spec;
  spec.density = 4.0;
  spec.scale_divisor = scale;
  gen::Dataset apb = gen::MakeApb(spec);
  const ScopedBenchDir dir("fig25");
  const std::string path = dir.File("fact.bin");
  auto rel = storage::Relation::CreateFile(path, apb.table.RecordSize());
  CURE_CHECK(rel.ok());
  CURE_CHECK_OK(apb.table.WriteTo(&rel.value()));
  CURE_CHECK_OK(rel->Seal());
  std::printf("\n%llu rows (%s), budget %s\n",
              static_cast<unsigned long long>(apb.table.num_rows()),
              FormatBytes(rel->bytes()).c_str(), FormatBytes(budget).c_str());

  engine::FactInput input{.relation = &rel.value()};
  struct Variant {
    const char* label;
    bool dr;
    bool plus;
    std::unique_ptr<engine::CureCube> cube;
    std::unique_ptr<query::CureQueryEngine> engine;
  };
  std::vector<Variant> variants;
  variants.push_back({"CURE", false, false, nullptr, nullptr});
  variants.push_back({"CURE+", false, true, nullptr, nullptr});
  variants.push_back({"CURE_DR", true, false, nullptr, nullptr});
  variants.push_back({"CURE_DR+", true, true, nullptr, nullptr});
  for (Variant& v : variants) {
    engine::CureOptions options;
    options.memory_budget_bytes = budget;
    options.dims_in_nt = v.dr;
    options.temp_dir = dir.path();
    CureBuildResult built =
        BuildCureVariant(v.label, apb.schema, input, options, v.plus);
    v.cube = std::move(built.cube);
    // Cubes are disk-resident at this density (the paper's setting).
    SpillCure(v.cube.get(), dir.File(std::string(v.label) + ".bin"));
    // Paper: 25% of memory is left for caching; cache that fraction of R.
    auto engine = query::CureQueryEngine::Create(
        v.cube.get(),
        std::min(1.0, 0.25 * static_cast<double>(budget) /
                          static_cast<double>(rel->bytes())));
    CURE_CHECK(engine.ok()) << engine.status().ToString();
    v.engine = std::move(engine).value();
  }

  // All 168 node queries, ordered by result size (cheap pre-pass counting
  // tuples with the DR engine), then bucketed into ten sets of ~17.
  const schema::NodeIdCodec& codec = variants[0].cube->store().codec();
  struct NodeCost {
    schema::NodeId id;
    uint64_t tuples;
  };
  std::vector<NodeCost> nodes;
  for (schema::NodeId id = 0; id < codec.num_nodes(); ++id) {
    query::ResultSink sink;
    CURE_CHECK_OK(variants[3].engine->QueryNode(id, &sink));
    nodes.push_back({id, sink.count()});
  }
  std::sort(nodes.begin(), nodes.end(),
            [](const NodeCost& a, const NodeCost& b) { return a.tuples < b.tuples; });

  // Per-variant avg QRT per bucket, plus whole-lattice latency percentiles
  // (from the shared LogHistogram in MeasureQrt) printed after the table.
  std::printf("\n%-8s %14s | %12s %12s %12s %12s\n", "bucket", "max result",
              "CURE", "CURE+", "CURE_DR", "CURE_DR+");
  const size_t buckets = 10;
  for (size_t b = 0; b < buckets; ++b) {
    const size_t begin = b * nodes.size() / buckets;
    const size_t end = (b + 1) * nodes.size() / buckets;
    if (begin >= end) continue;
    std::vector<schema::NodeId> workload;
    uint64_t max_tuples = 0;
    for (size_t i = begin; i < end; ++i) {
      workload.push_back(nodes[i].id);
      max_tuples = std::max(max_tuples, nodes[i].tuples);
    }
    std::printf("%-8zu %14llu |", b + 1,
                static_cast<unsigned long long>(max_tuples));
    for (Variant& v : variants) {
      const query::QrtStats stats = MeasureEngineQrt(
          workload, [&](schema::NodeId id, query::ResultSink* sink) {
            return v.engine->QueryNode(id, sink);
          });
      std::printf(" %12s", FormatSeconds(stats.avg_seconds).c_str());
    }
    std::printf("\n");
  }
  std::printf("\n%-10s %12s %12s %12s %12s\n", "all nodes", "p50", "p95",
              "max", "avg");
  std::vector<schema::NodeId> all_nodes;
  for (const NodeCost& node : nodes) all_nodes.push_back(node.id);
  // Per-variant latency distributions land in one shared registry and are
  // re-rendered below in the serving layer's STATS histogram format.
  MetricsRegistry qrt_metrics;
  for (Variant& v : variants) {
    const query::QrtStats stats = MeasureEngineQrt(
        all_nodes,
        [&](schema::NodeId id, query::ResultSink* sink) {
          return v.engine->QueryNode(id, sink);
        },
        qrt_metrics.histogram(std::string("qrt_") + v.label));
    std::printf("%-10s %12s %12s %12s %12s\n", v.label,
                FormatSeconds(stats.p50_seconds).c_str(),
                FormatSeconds(stats.p95_seconds).c_str(),
                FormatSeconds(stats.max_seconds).c_str(),
                FormatSeconds(stats.avg_seconds).c_str());
  }
  std::printf("\nSTATS-format latency histograms (identical renderer to "
              "cure_serve):\n%s", qrt_metrics.TextSnapshot().c_str());

  std::printf(
      "\nShape check vs paper: QRT grows with result size; the DR variants "
      "(dimension values materialized) are fastest; small- and mid-size "
      "node queries — the analytically useful ones — answer quickly, only "
      "the few largest nodes are expensive.\n");
  return 0;
}
