// Reproduces Figure 17: effect of fact-table caching on average QRT.
//
// The fact table lives on disk; the x-axis is the fraction of it pinned in
// the buffer cache. CURE's queries dereference row-ids through the fact
// table, so they accelerate as the cached portion grows; BUC stores full
// tuples per node and is insensitive to fact-table caching (flat line).
// CovType is sparser (more row-id dereferences per node), so its curve
// starts higher — exactly the paper's observation.

#include "bench/bench_util.h"
#include "storage/relation.h"

using namespace cure;         // NOLINT
using namespace cure::bench;  // NOLINT

namespace {

void RunDataset(const gen::Dataset& ds, size_t num_queries) {
  // Spill the fact table to disk.
  const ScopedBenchDir dir("fig17_" + ds.name);
  const std::string path = dir.File("fact.bin");
  auto rel = storage::Relation::CreateFile(path, ds.table.RecordSize());
  CURE_CHECK(rel.ok()) << rel.status().ToString();
  CURE_CHECK_OK(ds.table.WriteTo(&rel.value()));
  CURE_CHECK_OK(rel->Seal());

  engine::FactInput input{.relation = &rel.value()};
  engine::CureOptions options;
  CureBuildResult cure = BuildCureVariant("CURE", ds.schema, input, options,
                                          /*post_process=*/false);
  CureBuildResult cure_plus = BuildCureVariant("CURE+", ds.schema, input, options,
                                               /*post_process=*/true);
  auto buc = engine::BuildBuc(ds.schema, ds.table, {});
  CURE_CHECK(buc.ok());
  // All cubes disk-resident; only the *fact table* cache fraction varies.
  SpillCure(cure.cube.get(), path + ".cure");
  SpillCure(cure_plus.cube.get(), path + ".plus");
  CURE_CHECK_OK((*buc)->SpillStoreToDisk(path + ".buc"));
  query::BucQueryEngine buc_engine(buc->get());

  const schema::NodeIdCodec codec(cure.cube->schema());
  const std::vector<schema::NodeId> workload =
      query::RandomNodeWorkload(codec, num_queries, /*seed=*/17);

  PrintSubHeader(ds.name + " — avg QRT vs cached fraction of the fact table (" +
                 std::to_string(num_queries) + " node queries)");
  std::printf("%-8s %14s %14s %14s\n", "cache", "CURE", "CURE+", "BUC");
  for (double fraction : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    auto cure_engine = query::CureQueryEngine::Create(cure.cube.get(), fraction);
    auto plus_engine = query::CureQueryEngine::Create(cure_plus.cube.get(), fraction);
    CURE_CHECK(cure_engine.ok() && plus_engine.ok());
    const query::QrtStats cure_qrt = MeasureEngineQrt(
        workload, [&](schema::NodeId id, query::ResultSink* sink) {
          return (*cure_engine)->QueryNode(id, sink);
        });
    const query::QrtStats plus_qrt = MeasureEngineQrt(
        workload, [&](schema::NodeId id, query::ResultSink* sink) {
          return (*plus_engine)->QueryNode(id, sink);
        });
    // BUC does not touch the fact table at query time; measured once per
    // fraction anyway to show the flat line.
    const query::QrtStats buc_qrt = MeasureEngineQrt(
        workload, [&](schema::NodeId id, query::ResultSink* sink) {
          return buc_engine.QueryNode(id, sink);
        });
    std::printf("%-8.2f %14s %14s %14s\n", fraction,
                FormatSeconds(cure_qrt.avg_seconds).c_str(),
                FormatSeconds(plus_qrt.avg_seconds).c_str(),
                FormatSeconds(buc_qrt.avg_seconds).c_str());
  }
}

}  // namespace

int main() {
  PrintHeader("Figure 17 — effect of fact-table caching on average QRT");
  const uint64_t divisor = 32 * static_cast<uint64_t>(ScaleEnv(1));
  const size_t num_queries = static_cast<size_t>(QueriesEnv(100));
  RunDataset(gen::MakeCovTypeProxy(divisor), num_queries);
  RunDataset(gen::MakeSep85LProxy(divisor), num_queries);
  std::printf(
      "\nShape check vs paper: CURE/CURE+ QRT falls as the cached fraction "
      "grows; CovType (sparser, more dereferences) benefits most; BUC is "
      "flat; with full caching CURE+ is competitive with BUC.\n");
  return 0;
}
