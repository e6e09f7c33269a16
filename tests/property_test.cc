// Randomized property tests: for seeded random schemas (random dimension
// counts, hierarchy depths, cardinalities, even complex DAG hierarchies),
// the structural invariants must hold — plans cover lattices exactly once,
// codecs round-trip, level maps compose — and small random cubes must match
// brute force.

#include <gtest/gtest.h>

#include "engine/cure.h"
#include "gen/datasets.h"
#include "gen/random.h"
#include "plan/execution_plan.h"
#include "query/node_query.h"
#include "query/reference.h"

namespace cure {
namespace {

using schema::AggFn;
using schema::CubeSchema;
using schema::Dimension;
using schema::Level;
using schema::NodeId;

Dimension RandomLinearDimension(gen::Rng* rng, const std::string& name) {
  const int depth = 1 + static_cast<int>(rng->NextRange(4));
  std::vector<uint32_t> cards(depth);
  uint32_t card = 4 + static_cast<uint32_t>(rng->NextRange(60));
  for (int l = 0; l < depth; ++l) {
    cards[l] = card;
    card = std::max<uint32_t>(2, card / (2 + static_cast<uint32_t>(rng->NextRange(3))));
  }
  return Dimension::Linear(name, cards);
}

// A random complex hierarchy: leaf with two independent parents, one of
// which rolls further up.
Dimension RandomComplexDimension(gen::Rng* rng, const std::string& name) {
  const uint32_t leaf = 12 + static_cast<uint32_t>(rng->NextRange(48));
  std::vector<Level> levels(4);
  levels[0].name = "leaf";
  levels[0].cardinality = leaf;
  levels[0].parents = {1, 2};
  levels[1].name = "p1";
  levels[1].cardinality = (leaf + 2) / 3;
  levels[1].leaf_to_code.resize(leaf);
  for (uint32_t i = 0; i < leaf; ++i) levels[1].leaf_to_code[i] = i / 3;
  levels[2].name = "p2";
  levels[2].cardinality = (leaf + 3) / 4;
  levels[2].leaf_to_code.resize(leaf);
  for (uint32_t i = 0; i < leaf; ++i) levels[2].leaf_to_code[i] = i / 4;
  levels[2].parents = {3};
  levels[3].name = "top";
  levels[3].cardinality = 2;
  levels[3].leaf_to_code.resize(leaf);
  for (uint32_t i = 0; i < leaf; ++i) {
    levels[3].leaf_to_code[i] = (i / 4) % 2;  // derived from p2
  }
  Result<Dimension> dim = Dimension::Create(name, std::move(levels));
  EXPECT_TRUE(dim.ok()) << dim.status().ToString();
  return std::move(dim).value();
}

CubeSchema RandomSchema(uint64_t seed, bool allow_complex) {
  gen::Rng rng(seed);
  const int num_dims = 1 + static_cast<int>(rng.NextRange(4));
  std::vector<Dimension> dims;
  for (int d = 0; d < num_dims; ++d) {
    const std::string name(1, static_cast<char>('A' + d));
    if (allow_complex && rng.NextRange(4) == 0) {
      dims.push_back(RandomComplexDimension(&rng, name));
    } else {
      dims.push_back(RandomLinearDimension(&rng, name));
    }
  }
  Result<CubeSchema> schema = CubeSchema::Create(
      std::move(dims), 1,
      {{AggFn::kSum, 0, "s"}, {AggFn::kCount, 0, "c"}});
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

class RandomSchemaTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomSchemaTest, CodecRoundTripsEveryNode) {
  CubeSchema schema = RandomSchema(GetParam(), /*allow_complex=*/true);
  schema::NodeIdCodec codec(schema);
  for (NodeId id = 0; id < codec.num_nodes(); ++id) {
    EXPECT_EQ(codec.Encode(codec.Decode(id)), id);
  }
}

TEST_P(RandomSchemaTest, TallPlanCoversLatticeAndValidates) {
  CubeSchema schema = RandomSchema(GetParam(), /*allow_complex=*/true);
  plan::ExecutionPlan plan =
      plan::ExecutionPlan::Build(schema, plan::ExecutionPlan::Style::kTall);
  EXPECT_EQ(plan.num_nodes(), plan.codec().num_nodes());
  EXPECT_TRUE(plan.Validate().ok()) << plan.Validate().ToString();
  // Every path ends at the queried node and starts at the root.
  for (NodeId id = 0; id < plan.codec().num_nodes(); id += 7) {
    const std::vector<NodeId> path = plan.PathFromRoot(id);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), plan.root());
    EXPECT_EQ(path.back(), id);
  }
}

TEST_P(RandomSchemaTest, ShortPlanCoversLattice) {
  CubeSchema schema = RandomSchema(GetParam(), /*allow_complex=*/false);
  plan::ExecutionPlan plan =
      plan::ExecutionPlan::Build(schema, plan::ExecutionPlan::Style::kShort);
  EXPECT_EQ(plan.num_nodes(), plan.codec().num_nodes());
}

TEST_P(RandomSchemaTest, LevelMapsCompose) {
  CubeSchema schema = RandomSchema(GetParam(), /*allow_complex=*/true);
  gen::Rng rng(GetParam() * 31);
  for (int d = 0; d < schema.num_dims(); ++d) {
    const Dimension& dim = schema.dim(d);
    for (int from = 0; from < dim.num_levels(); ++from) {
      for (int to = 0; to < dim.num_levels(); ++to) {
        if (!dim.Derives(from, to)) continue;
        auto map = dim.LevelToLevelMap(from, to);
        ASSERT_TRUE(map.ok());
        for (int i = 0; i < 20; ++i) {
          const uint32_t leaf =
              static_cast<uint32_t>(rng.NextRange(dim.leaf_cardinality()));
          EXPECT_EQ((*map)[dim.CodeAt(leaf, from)], dim.CodeAt(leaf, to));
        }
      }
    }
  }
}

TEST_P(RandomSchemaTest, RandomCubeMatchesReference) {
  CubeSchema schema = RandomSchema(GetParam(), /*allow_complex=*/true);
  gen::Rng rng(GetParam() * 17 + 1);
  schema::FactTable table(schema.num_dims(), 1);
  const uint64_t rows = 100 + rng.NextRange(400);
  std::vector<uint32_t> row(schema.num_dims());
  for (uint64_t t = 0; t < rows; ++t) {
    for (int d = 0; d < schema.num_dims(); ++d) {
      row[d] = static_cast<uint32_t>(rng.NextRange(schema.dim(d).leaf_cardinality()));
    }
    const int64_t m = static_cast<int64_t>(rng.NextRange(30));
    table.AppendRow(row.data(), &m);
  }
  gen::Dataset ds;
  ds.schema = schema;
  engine::CureOptions options;
  options.signature_pool_capacity = 256;
  engine::FactInput input{.table = &table};
  auto cube = engine::BuildCure(schema, input, options);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  auto engine = query::CureQueryEngine::Create(cube->get(), 1.0);
  ASSERT_TRUE(engine.ok());
  const schema::NodeIdCodec& codec = (*cube)->store().codec();
  for (NodeId id = 0; id < codec.num_nodes(); ++id) {
    query::ResultSink sink(true);
    ASSERT_TRUE((*engine)->QueryNode(id, &sink).ok());
    auto expected = query::ReferenceNodeResult(schema, table, id);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(query::SameResults(sink.TakeRows(), std::move(expected).value()))
        << "seed " << GetParam() << " node " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSchemaTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace cure
