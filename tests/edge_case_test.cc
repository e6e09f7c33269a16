#include <gtest/gtest.h>

#include "engine/bubst.h"
#include "engine/buc.h"
#include "engine/cure.h"
#include "gen/datasets.h"
#include "gen/random.h"
#include "query/node_query.h"
#include "query/reference.h"

namespace cure {
namespace {

using engine::BuildCure;
using engine::CureOptions;
using engine::FactInput;
using query::ResultSink;
using schema::AggFn;
using schema::Dimension;
using schema::NodeId;

gen::Dataset MakeDataset(std::vector<Dimension> dims,
                         std::vector<std::vector<uint32_t>> rows,
                         std::vector<int64_t> measures) {
  gen::Dataset ds;
  auto schema = schema::CubeSchema::Create(
      std::move(dims), 1, {{AggFn::kSum, 0, "s"}, {AggFn::kCount, 0, "c"}});
  EXPECT_TRUE(schema.ok());
  ds.schema = std::move(schema).value();
  ds.table = schema::FactTable(ds.schema.num_dims(), 1);
  for (size_t i = 0; i < rows.size(); ++i) {
    ds.table.AppendRow(rows[i].data(), &measures[i]);
  }
  return ds;
}

void ExpectAllNodesMatch(const engine::CureCube& cube, const gen::Dataset& ds) {
  auto engine = query::CureQueryEngine::Create(&cube, 1.0);
  ASSERT_TRUE(engine.ok());
  const schema::NodeIdCodec& codec = cube.store().codec();
  for (NodeId id = 0; id < codec.num_nodes(); ++id) {
    ResultSink sink(true);
    ASSERT_TRUE((*engine)->QueryNode(id, &sink).ok());
    auto expected = query::ReferenceNodeResult(ds.schema, ds.table, id);
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(query::SameResults(sink.TakeRows(), std::move(expected).value()))
        << "node " << id;
  }
}

TEST(EdgeCaseTest, EmptyFactTable) {
  gen::Dataset ds = MakeDataset({Dimension::Flat("A", 3), Dimension::Flat("B", 3)},
                                {}, {});
  CureOptions options;
  FactInput input{.table = &ds.table};
  auto cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ((*cube)->stats().tt + (*cube)->stats().nt + (*cube)->stats().cat, 0u);
  ExpectAllNodesMatch(**cube, ds);
}

TEST(EdgeCaseTest, SingleRowFactTable) {
  gen::Dataset ds = MakeDataset({Dimension::Linear("A", {4, 2}),
                                 Dimension::Flat("B", 3)},
                                {{2, 1}}, {42});
  CureOptions options;
  FactInput input{.table = &ds.table};
  auto cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  // The single tuple is trivial at the ALL node; one TT covers the entire
  // lattice.
  EXPECT_EQ((*cube)->stats().tt, 1u);
  EXPECT_EQ((*cube)->stats().nt, 0u);
  EXPECT_EQ((*cube)->stats().cat, 0u);
  ExpectAllNodesMatch(**cube, ds);
}

TEST(EdgeCaseTest, AllRowsIdentical) {
  std::vector<std::vector<uint32_t>> rows(50, {1, 2});
  std::vector<int64_t> ms(50, 7);
  gen::Dataset ds = MakeDataset({Dimension::Flat("A", 3), Dimension::Flat("B", 3)},
                                std::move(rows), std::move(ms));
  CureOptions options;
  FactInput input{.table = &ds.table};
  auto cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ((*cube)->stats().tt, 0u);  // Nothing is trivial.
  // Every node has exactly one group, all with identical aggregates —
  // common-source CATs through and through.
  ExpectAllNodesMatch(**cube, ds);
}

TEST(EdgeCaseTest, SingleDimension) {
  gen::Dataset ds = MakeDataset({Dimension::Linear("A", {10, 5, 2})},
                                {{0}, {1}, {5}, {5}, {9}}, {1, 2, 3, 4, 5});
  CureOptions options;
  FactInput input{.table = &ds.table};
  auto cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  ExpectAllNodesMatch(**cube, ds);
}

TEST(EdgeCaseTest, CardinalityOneDimensions) {
  gen::Dataset ds = MakeDataset({Dimension::Flat("A", 1), Dimension::Flat("B", 4)},
                                {{0, 0}, {0, 1}, {0, 1}}, {5, 6, 7});
  CureOptions options;
  FactInput input{.table = &ds.table};
  auto cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  ExpectAllNodesMatch(**cube, ds);
}

TEST(EdgeCaseTest, NegativeMeasures) {
  gen::Dataset ds = MakeDataset({Dimension::Flat("A", 4), Dimension::Flat("B", 4)},
                                {{0, 0}, {0, 0}, {1, 2}, {3, 3}},
                                {-10, -20, -5, 0});
  CureOptions options;
  FactInput input{.table = &ds.table};
  auto cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  ExpectAllNodesMatch(**cube, ds);
}

TEST(EdgeCaseTest, MinSupportLargerThanTable) {
  gen::Dataset ds = MakeDataset({Dimension::Flat("A", 4)}, {{0}, {1}}, {1, 2});
  CureOptions options;
  options.min_support = 100;
  FactInput input{.table = &ds.table};
  auto cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ((*cube)->stats().tt + (*cube)->stats().nt + (*cube)->stats().cat, 0u);
}

TEST(EdgeCaseTest, MissingInputRejected) {
  gen::Dataset ds = MakeDataset({Dimension::Flat("A", 2)}, {{0}}, {1});
  CureOptions options;
  EXPECT_FALSE(BuildCure(ds.schema, FactInput{}, options).ok());
}

TEST(EdgeCaseTest, ExternalWithoutRelationRejected) {
  gen::Dataset ds = MakeDataset({Dimension::Flat("A", 2)}, {{0}}, {1});
  CureOptions options;
  options.force_external = true;
  FactInput input{.table = &ds.table};
  EXPECT_FALSE(BuildCure(ds.schema, input, options).ok());
}

TEST(EdgeCaseTest, ExternalShortPlanRejected) {
  gen::Dataset ds = MakeDataset({Dimension::Flat("A", 2)}, {{0}}, {1});
  storage::Relation rel = storage::Relation::Memory(ds.table.RecordSize());
  ASSERT_TRUE(ds.table.WriteTo(&rel).ok());
  CureOptions options;
  options.force_external = true;
  options.plan_style = plan::Style::kShort;
  FactInput input{.relation = &rel};
  EXPECT_FALSE(BuildCure(ds.schema, input, options).ok());
}

TEST(EdgeCaseTest, BucAndBubstOnTinyTables) {
  gen::Dataset ds = MakeDataset({Dimension::Flat("A", 3), Dimension::Flat("B", 3)},
                                {{1, 1}}, {9});
  auto buc = engine::BuildBuc(ds.schema, ds.table, {});
  auto bubst = engine::BuildBubst(ds.schema, ds.table, {});
  ASSERT_TRUE(buc.ok());
  ASSERT_TRUE(bubst.ok());
  // BUC writes 4 node tuples (2^2); BU-BST prunes to a single BST at ALL.
  EXPECT_EQ((*buc)->stats().plain, 4u);
  EXPECT_EQ((*bubst)->stats().tt, 1u);
  EXPECT_EQ((*bubst)->stats().plain, 0u);
}

TEST(EdgeCaseTest, QueryEmptyNodeOfSparseCube) {
  // Iceberg cube with most groups pruned: querying an empty node succeeds
  // with zero tuples.
  gen::Dataset ds = MakeDataset({Dimension::Flat("A", 8), Dimension::Flat("B", 8)},
                                {{0, 0}, {1, 1}, {2, 2}}, {1, 2, 3});
  CureOptions options;
  options.min_support = 2;
  FactInput input{.table = &ds.table};
  auto cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  auto engine = query::CureQueryEngine::Create(cube->get(), 1.0);
  ASSERT_TRUE(engine.ok());
  ResultSink sink;
  ASSERT_TRUE((*engine)->QueryNode(0, &sink).ok());
  EXPECT_EQ(sink.count(), 0u);
}

TEST(EdgeCaseTest, DuplicateHeavyWithTinyPoolAndDr) {
  // Duplicates + tiny pool + DR: stresses flush classification with carried
  // dims.
  std::vector<std::vector<uint32_t>> rows;
  std::vector<int64_t> ms;
  gen::Rng rng(81);
  for (int i = 0; i < 300; ++i) {
    rows.push_back({static_cast<uint32_t>(rng.NextRange(3)),
                    static_cast<uint32_t>(rng.NextRange(3))});
    ms.push_back(5);  // identical measures: CATs everywhere
  }
  gen::Dataset ds = MakeDataset({Dimension::Linear("A", {3, 2}),
                                 Dimension::Flat("B", 3)},
                                std::move(rows), std::move(ms));
  CureOptions options;
  options.signature_pool_capacity = 3;
  options.dims_in_nt = true;
  FactInput input{.table = &ds.table};
  auto cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  ExpectAllNodesMatch(**cube, ds);
}

}  // namespace
}  // namespace cure
