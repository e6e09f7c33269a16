#include "query/node_query.h"

#include <gtest/gtest.h>

#include "engine/cure.h"
#include "gen/datasets.h"
#include "gen/random.h"
#include "query/reference.h"
#include "query/workload.h"
#include "storage/file_io.h"
#include "temp_dir.h"

namespace cure {
namespace {

using engine::BuildCure;
using engine::CureCube;
using engine::CureOptions;
using engine::FactInput;
using gen::Dataset;
using query::ResultSink;
using schema::NodeId;

Dataset MakeHier(uint64_t tuples, uint64_t seed) {
  Dataset ds;
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Linear("A", {30, 10, 2}));
  dims.push_back(schema::Dimension::Linear("B", {12, 4}));
  dims.push_back(schema::Dimension::Flat("C", 6));
  Result<schema::CubeSchema> schema = schema::CubeSchema::Create(
      std::move(dims), 1,
      {{schema::AggFn::kSum, 0, "sum"}, {schema::AggFn::kCount, 0, "cnt"}});
  EXPECT_TRUE(schema.ok());
  ds.schema = std::move(schema).value();
  ds.table = schema::FactTable(3, 1);
  gen::Rng rng(seed);
  for (uint64_t t = 0; t < tuples; ++t) {
    const uint32_t row[3] = {static_cast<uint32_t>(rng.NextRange(30)),
                             static_cast<uint32_t>(rng.NextRange(12)),
                             static_cast<uint32_t>(rng.NextRange(6))};
    const int64_t m = static_cast<int64_t>(rng.NextRange(50));
    ds.table.AppendRow(row, &m);
  }
  return ds;
}

TEST(ResultSinkTest, ChecksumIsOrderIndependent) {
  ResultSink a, b;
  const uint32_t d1[] = {1, 2};
  const uint32_t d2[] = {3, 4};
  const int64_t m1[] = {10};
  const int64_t m2[] = {20};
  a.Emit(d1, 2, m1, 1);
  a.Emit(d2, 2, m2, 1);
  b.Emit(d2, 2, m2, 1);
  b.Emit(d1, 2, m1, 1);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.checksum(), b.checksum());
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
}

TEST(CountIcebergQueryTest, MatchesFilteredReference) {
  Dataset ds = MakeHier(800, 31);
  CureOptions options;
  FactInput input{.table = &ds.table};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  Result<std::unique_ptr<query::CureQueryEngine>> engine =
      query::CureQueryEngine::Create(cube->get(), 1.0);
  ASSERT_TRUE(engine.ok());
  const schema::NodeIdCodec& codec = (*cube)->store().codec();
  const int count_agg = 1;  // "cnt"
  for (NodeId id = 0; id < codec.num_nodes(); ++id) {
    ResultSink sink(true);
    ASSERT_TRUE((*engine)->QueryNodeCountIceberg(id, count_agg, 3, &sink).ok());
    // Reference: all groups, then filter by count >= 3.
    Result<std::vector<ResultSink::Row>> all =
        query::ReferenceNodeResult(ds.schema, ds.table, id);
    ASSERT_TRUE(all.ok());
    std::vector<ResultSink::Row> expected;
    for (ResultSink::Row& row : *all) {
      if (row.aggrs[count_agg] >= 3) expected.push_back(std::move(row));
    }
    EXPECT_TRUE(query::SameResults(sink.TakeRows(), std::move(expected)))
        << "node " << id;
  }
}

TEST(CountIcebergQueryTest, SkipsTtWork) {
  // A sparse dataset has huge TT populations; iceberg queries never touch
  // them. We verify by comparing emitted tuple counts.
  gen::SyntheticSpec spec;
  spec.num_dims = 4;
  spec.num_tuples = 300;
  spec.zipf = 0.0;
  spec.cardinalities.assign(4, 100);
  Dataset ds = gen::MakeSynthetic(spec);
  CureOptions options;
  FactInput input{.table = &ds.table};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  EXPECT_GT((*cube)->stats().tt, 100u);
  Result<std::unique_ptr<query::CureQueryEngine>> engine =
      query::CureQueryEngine::Create(cube->get(), 1.0);
  ASSERT_TRUE(engine.ok());
  const NodeId base = 0;  // all dims grouped at leaf
  ResultSink full, iceberg;
  ASSERT_TRUE((*engine)->QueryNode(base, &full).ok());
  ASSERT_TRUE((*engine)->QueryNodeCountIceberg(base, 1, 2, &iceberg).ok());
  EXPECT_LT(iceberg.count(), full.count());
}

TEST(FlatRollupTest, MatchesHierarchicalCube) {
  Dataset ds = MakeHier(700, 32);
  // Hierarchical cube.
  CureOptions hopts;
  FactInput input{.table = &ds.table};
  Result<std::unique_ptr<CureCube>> hier = BuildCure(ds.schema, input, hopts);
  ASSERT_TRUE(hier.ok());
  Result<std::unique_ptr<query::CureQueryEngine>> hier_engine =
      query::CureQueryEngine::Create(hier->get(), 1.0);
  ASSERT_TRUE(hier_engine.ok());
  // Flat cube (FCURE).
  CureOptions fopts;
  fopts.flat = true;
  Result<std::unique_ptr<CureCube>> flat = BuildCure(ds.schema, input, fopts);
  ASSERT_TRUE(flat.ok());
  Result<std::unique_ptr<query::CureQueryEngine>> flat_engine =
      query::CureQueryEngine::Create(flat->get(), 1.0);
  ASSERT_TRUE(flat_engine.ok());

  const schema::NodeIdCodec& codec = (*hier)->store().codec();
  for (NodeId id = 0; id < codec.num_nodes(); ++id) {
    ResultSink from_hier(true), from_flat(true);
    ASSERT_TRUE((*hier_engine)->QueryNode(id, &from_hier).ok());
    ASSERT_TRUE(query::QueryHierarchicalOverFlat(**flat_engine, ds.schema, id,
                                                 &from_flat)
                    .ok());
    EXPECT_TRUE(query::SameResults(from_hier.rows(), from_flat.rows()))
        << "node " << id;
  }
}

TEST(CachingTest, FractionZeroStillCorrect) {
  Dataset ds = MakeHier(500, 33);
  const test::ScopedTempDir tmp("query_test");
  const std::string path = tmp.File("fact.bin");
  Result<storage::Relation> rel =
      storage::Relation::CreateFile(path, ds.table.RecordSize());
  ASSERT_TRUE(rel.ok());
  ASSERT_TRUE(ds.table.WriteTo(&rel.value()).ok());
  ASSERT_TRUE(rel->Seal().ok());
  CureOptions options;
  FactInput input{.relation = &rel.value()};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  for (double fraction : {0.0, 0.25, 1.0}) {
    Result<std::unique_ptr<query::CureQueryEngine>> engine =
        query::CureQueryEngine::Create(cube->get(), fraction);
    ASSERT_TRUE(engine.ok());
    const schema::NodeIdCodec& codec = (*cube)->store().codec();
    ResultSink sink(true);
    ASSERT_TRUE((*engine)->QueryNode(codec.Encode({0, 0, 0}), &sink).ok());
    Result<std::vector<ResultSink::Row>> expected = query::ReferenceNodeResult(
        ds.schema, ds.table, codec.Encode({0, 0, 0}));
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(query::SameResults(sink.TakeRows(), std::move(expected).value()));
  }
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

TEST(WorkloadTest, RandomNodesInRangeAndDeterministic) {
  Dataset ds = MakeHier(10, 34);
  const schema::NodeIdCodec codec(ds.schema);
  std::vector<NodeId> a = query::RandomNodeWorkload(codec, 100, 5);
  std::vector<NodeId> b = query::RandomNodeWorkload(codec, 100, 5);
  std::vector<NodeId> c = query::RandomNodeWorkload(codec, 100, 6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (NodeId id : a) EXPECT_LT(id, codec.num_nodes());
}

TEST(WorkloadTest, MeasureQrtAccumulates) {
  Dataset ds = MakeHier(300, 35);
  CureOptions options;
  FactInput input{.table = &ds.table};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  Result<std::unique_ptr<query::CureQueryEngine>> engine =
      query::CureQueryEngine::Create(cube->get(), 1.0);
  ASSERT_TRUE(engine.ok());
  const schema::NodeIdCodec& codec = (*cube)->store().codec();
  std::vector<NodeId> workload = query::RandomNodeWorkload(codec, 20, 7);
  Result<query::QrtStats> stats = query::MeasureQrt(
      workload, [&](NodeId id, ResultSink* sink) {
        return (*engine)->QueryNode(id, sink);
      });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->queries, 20u);
  EXPECT_GT(stats->total_tuples, 0u);
  EXPECT_GE(stats->avg_seconds, 0.0);
}

TEST(QueryEngineTest, RejectsShortPlanCubes) {
  Dataset ds = MakeHier(100, 36);
  CureOptions options;
  options.plan_style = plan::Style::kShort;
  FactInput input{.table = &ds.table};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  EXPECT_FALSE(query::CureQueryEngine::Create(cube->get(), 1.0).ok());
}

TEST(QueryEngineTest, AnswersLatticesTooLargeToMaterialize) {
  // 25 two-valued dimensions: 2^25 lattice nodes, 4 fact rows. The engine
  // derives each query's TT path from the node id, so it needs no per-node
  // state. Rows pair up differently per dimension (d % 3), which keeps the
  // number of non-trivial groups — and so the build — small.
  constexpr int kDims = 25;
  std::vector<schema::Dimension> dims;
  for (int d = 0; d < kDims; ++d) {
    dims.push_back(schema::Dimension::Flat("D" + std::to_string(d), 2));
  }
  Result<schema::CubeSchema> schema = schema::CubeSchema::Create(
      std::move(dims), 1,
      {{schema::AggFn::kSum, 0, "sum"}, {schema::AggFn::kCount, 0, "cnt"}});
  ASSERT_TRUE(schema.ok());
  schema::FactTable table(kDims, 1);
  for (uint32_t r = 0; r < 4; ++r) {
    uint32_t row[kDims];
    for (int d = 0; d < kDims; ++d) {
      row[d] = d % 3 == 0 ? r / 2 : d % 3 == 1 ? r % 2 : (r == 0 || r == 3);
    }
    const int64_t m = 10 * (r + 1);
    table.AppendRow(row, &m);
  }
  FactInput input{.table = &table};
  Result<std::unique_ptr<CureCube>> cube =
      BuildCure(*schema, input, CureOptions{});
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  Result<std::unique_ptr<query::CureQueryEngine>> engine =
      query::CureQueryEngine::Create(cube->get(), 1.0);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const schema::NodeIdCodec& codec = (*cube)->store().codec();
  ASSERT_EQ(codec.num_nodes(), NodeId{1} << kDims);
  std::vector<NodeId> nodes = query::RandomNodeWorkload(codec, 40, 25);
  nodes.push_back(codec.num_nodes() - 1);  // apex (ALL)
  nodes.push_back(0);                      // base: every dimension grouped
  for (NodeId id : nodes) {
    ResultSink sink(true);
    ASSERT_TRUE((*engine)->QueryNode(id, &sink).ok()) << id;
    Result<std::vector<ResultSink::Row>> expected =
        query::ReferenceNodeResult(*schema, table, id);
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(query::SameResults(sink.TakeRows(), std::move(expected).value()))
        << codec.Name(id, *schema);
  }
}

}  // namespace
}  // namespace cure
