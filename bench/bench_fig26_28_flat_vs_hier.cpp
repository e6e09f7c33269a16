// Reproduces Figures 26, 27 & 28: flat vs hierarchical cubes over
// hierarchical data (APB-1 density 0.4, in memory): construction time,
// storage space, and average QRT on a roll-up/drill-down workload.
//
// Methods: BUC and BU-BST (flat only), FCURE / FCURE+ (CURE restricted to
// leaf levels), CURE / CURE+ (full hierarchical cube). Flat cubes answer a
// hierarchical node query by rolling the leaf-level node up on the fly.

#include "bench/bench_util.h"
#include "query/fold.h"

using namespace cure;         // NOLINT
using namespace cure::bench;  // NOLINT

int main() {
  PrintHeader(
      "Figures 26-28 — flat vs hierarchical cubes on APB-1 density 0.4");
  const uint64_t scale = static_cast<uint64_t>(ScaleEnv(100));
  gen::ApbSpec spec;
  spec.density = 0.4;
  spec.scale_divisor = scale;
  gen::Dataset apb = gen::MakeApb(spec);
  std::printf("\n%llu rows in memory\n",
              static_cast<unsigned long long>(apb.table.num_rows()));
  engine::FactInput input{.table = &apb.table};

  // ---- Figs. 26-27: construction time and storage. ----
  std::vector<BuildRow> rows;
  auto buc = engine::BuildBuc(apb.schema, apb.table, {});
  CURE_CHECK(buc.ok());
  rows.push_back({"BUC", (*buc)->stats().build_seconds,
                  (*buc)->store().TotalBytes(), (*buc)->stats().plain, false,
                  "flat"});
  auto bubst = engine::BuildBubst(apb.schema, apb.table, {});
  CURE_CHECK(bubst.ok());
  rows.push_back({"BU-BST", (*bubst)->stats().build_seconds, (*bubst)->TotalBytes(),
                  (*bubst)->stats().plain + (*bubst)->stats().tt, false, "flat"});
  engine::CureOptions flat_options;
  flat_options.flat = true;
  CureBuildResult fcure =
      BuildCureVariant("FCURE", apb.schema, input, flat_options, false);
  rows.push_back(fcure.row);
  CureBuildResult fcure_plus =
      BuildCureVariant("FCURE+", apb.schema, input, flat_options, true);
  rows.push_back(fcure_plus.row);
  CureBuildResult cure = BuildCureVariant("CURE", apb.schema, input, {}, false);
  rows.push_back(cure.row);
  CureBuildResult cure_plus =
      BuildCureVariant("CURE+", apb.schema, input, {}, true);
  rows.push_back(cure_plus.row);
  PrintSubHeader("Figs. 26-27: construction time & storage space");
  PrintBuildRows(rows);

  // ---- Fig. 28: average QRT on hierarchical node queries. ----
  const size_t num_queries = static_cast<size_t>(QueriesEnv(100));
  const schema::NodeIdCodec codec(apb.schema);  // hierarchical codec
  const std::vector<schema::NodeId> workload =
      query::RandomNodeWorkload(codec, num_queries, /*seed=*/2628);

  auto fcure_engine = query::CureQueryEngine::Create(fcure.cube.get(), 1.0);
  auto fcure_plus_engine =
      query::CureQueryEngine::Create(fcure_plus.cube.get(), 1.0);
  auto cure_engine = query::CureQueryEngine::Create(cure.cube.get(), 1.0);
  auto cure_plus_engine = query::CureQueryEngine::Create(cure_plus.cube.get(), 1.0);
  CURE_CHECK(fcure_engine.ok() && fcure_plus_engine.ok() && cure_engine.ok() &&
             cure_plus_engine.ok());
  query::BucQueryEngine buc_engine(buc->get());
  query::BubstQueryEngine bubst_engine(bubst->get());

  // Flat engines answer a hierarchical node by querying the leaf-level twin
  // and rolling up on the fly.
  auto flat_query = [&](auto&& leaf_query) {
    return [&, leaf_query](schema::NodeId hier_node,
                           query::ResultSink* sink) -> Status {
      const query::FlatNodeMapping mapping =
          query::MapToFlatNode(apb.schema, hier_node);
      if (!mapping.needs_rollup) return leaf_query(mapping.flat_node, sink);
      query::ResultSink leaf_sink(/*retain=*/true);
      CURE_RETURN_IF_ERROR(leaf_query(mapping.flat_node, &leaf_sink));
      return query::RollUp(apb.schema, mapping.leaf_node, leaf_sink.rows(),
                           hier_node, {}, -1, 0, sink);
    };
  };

  PrintSubHeader("Fig. 28: average QRT, " + std::to_string(num_queries) +
                 " hierarchical node queries (all granularities)");
  struct QrtRow {
    const char* label;
    query::QrtStats stats;
  };
  std::vector<QrtRow> qrt;
  qrt.push_back({"BUC", MeasureEngineQrt(
                            workload,
                            flat_query([&](schema::NodeId id,
                                           query::ResultSink* sink) {
                              return buc_engine.QueryNode(id, sink);
                            }))});
  qrt.push_back({"BU-BST", MeasureEngineQrt(
                               workload,
                               flat_query([&](schema::NodeId id,
                                              query::ResultSink* sink) {
                                 return bubst_engine.QueryNode(id, sink);
                               }))});
  qrt.push_back({"FCURE", MeasureEngineQrt(
                              workload,
                              flat_query([&](schema::NodeId id,
                                             query::ResultSink* sink) {
                                return (*fcure_engine)->QueryNode(id, sink);
                              }))});
  qrt.push_back({"FCURE+", MeasureEngineQrt(
                               workload,
                               flat_query([&](schema::NodeId id,
                                              query::ResultSink* sink) {
                                 return (*fcure_plus_engine)->QueryNode(id, sink);
                               }))});
  qrt.push_back({"CURE", MeasureEngineQrt(
                             workload, [&](schema::NodeId id,
                                           query::ResultSink* sink) {
                               return (*cure_engine)->QueryNode(id, sink);
                             })});
  qrt.push_back({"CURE+", MeasureEngineQrt(
                              workload, [&](schema::NodeId id,
                                            query::ResultSink* sink) {
                                return (*cure_plus_engine)->QueryNode(id, sink);
                              })});
  std::printf("%-10s %14s %16s\n", "method", "avg QRT", "total tuples");
  for (const QrtRow& row : qrt) {
    std::printf("%-10s %14s %16llu\n", row.label,
                FormatSeconds(row.stats.avg_seconds).c_str(),
                static_cast<unsigned long long>(row.stats.total_tuples));
  }
  std::printf(
      "\nShape check vs paper: flat cubes build faster and are smaller "
      "(Figs. 26-27) but pay on-the-fly aggregation for every roll-up, so "
      "the hierarchical CURE cube wins the QRT comparison (Fig. 28); some "
      "CURE variant is the best choice in every metric.\n");
  return 0;
}
