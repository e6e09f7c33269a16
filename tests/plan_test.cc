#include "plan/execution_plan.h"

#include <gtest/gtest.h>

#include <functional>

#include "plan_walk.h"

namespace cure {
namespace plan {
namespace {

using schema::AggFn;
using schema::CubeSchema;
using schema::Dimension;
using schema::Level;
using schema::NodeId;

CubeSchema PaperSchema() {
  std::vector<Dimension> dims;
  dims.push_back(Dimension::Linear("A", {8, 4, 2}));
  dims.push_back(Dimension::Linear("B", {6, 2}));
  dims.push_back(Dimension::Flat("C", 4));
  Result<CubeSchema> schema =
      CubeSchema::Create(std::move(dims), 1, {{AggFn::kSum, 0, "m"}});
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

CubeSchema FlatSchema(int d) {
  std::vector<Dimension> dims;
  for (int i = 0; i < d; ++i) {
    dims.push_back(Dimension::Flat(std::string(1, static_cast<char>('A' + i)), 4));
  }
  Result<CubeSchema> schema =
      CubeSchema::Create(std::move(dims), 1, {{AggFn::kSum, 0, "m"}});
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

TEST(ExecutionPlanTest, TallPlanCoversPaperLattice) {
  CubeSchema schema = PaperSchema();
  WalkedPlan plan = WalkPlan(schema, Style::kTall);
  EXPECT_EQ(plan.order.size(), 24u);
  EXPECT_TRUE(ValidateWalk(schema, Style::kTall, plan));
  // P3 is the tallest extension: height 6 in the paper's running example
  // (Fig. 4), versus height 3 for P2 (Fig. 3).
  EXPECT_EQ(plan.height, 6);
}

TEST(ExecutionPlanTest, ShortPlanCoversPaperLattice) {
  CubeSchema schema = PaperSchema();
  WalkedPlan plan = WalkPlan(schema, Style::kShort);
  EXPECT_EQ(plan.order.size(), 24u);
  EXPECT_EQ(plan.height, 3);  // P2: one solid edge per dimension.
  EXPECT_TRUE(ValidateWalk(schema, Style::kShort, plan));
}

TEST(ExecutionPlanTest, FlatTallEqualsBucPlan) {
  CubeSchema schema = FlatSchema(3);
  WalkedPlan plan = WalkPlan(schema, Style::kTall);
  EXPECT_EQ(plan.order.size(), 8u);
  EXPECT_EQ(plan.height, 3);  // P1: flat BUC plan.
  EXPECT_TRUE(ValidateWalk(schema, Style::kTall, plan));
}

TEST(ExecutionPlanTest, RootIsAllNode) {
  CubeSchema schema = PaperSchema();
  Cursor cursor(schema, Style::kTall);
  const schema::NodeIdCodec codec(schema);
  EXPECT_EQ(cursor.node(), codec.Encode({3, 2, 1}));  // ALL everywhere.
  for (int d = 0; d < schema.num_dims(); ++d) EXPECT_FALSE(cursor.included(d));
}

TEST(ExecutionPlanTest, TallWalkVisitsInConstructionOrder) {
  // Depth first, Rule 1 before Rule 2: the order ExecutePlan (Fig. 13)
  // materializes nodes in, which fixes the order of the cube's relations.
  CubeSchema schema = PaperSchema();
  WalkedPlan plan = WalkPlan(schema, Style::kTall);
  std::vector<std::string> names;
  for (size_t i = 0; i < 10; ++i) {
    names.push_back(plan.codec.Name(plan.order[i], schema));
  }
  EXPECT_EQ(names, (std::vector<std::string>{"ALL", "A2", "A2B1", "A2B1C0",
                                             "A2B0", "A2B0C0", "A2C0", "A1",
                                             "A1B1", "A1B1C0"}));
}

TEST(ExecutionPlanTest, PathFromRootFollowsPaperChains) {
  CubeSchema schema = PaperSchema();
  const schema::NodeIdCodec codec(schema);
  // Fig. 4: the path to A0B1C0 is ALL -> A2 -> A1 -> A0 -> A0B1 -> A0B1C0.
  const NodeId target = codec.Encode({0, 1, 0});
  const std::vector<NodeId> path = PathFromRoot(schema, codec, target);
  std::vector<std::string> names;
  names.reserve(path.size());
  for (NodeId id : path) names.push_back(codec.Name(id, schema));
  EXPECT_EQ(names, (std::vector<std::string>{"ALL", "A2", "A1", "A0", "A0B1",
                                             "A0B1C0"}));
  EXPECT_EQ(PathFromRoot(schema, codec, codec.Encode({3, 2, 1})),
            std::vector<NodeId>{codec.Encode({3, 2, 1})});
}

TEST(ExecutionPlanTest, PathFromRootMatchesTheWalk) {
  CubeSchema schema = PaperSchema();
  WalkedPlan plan = WalkPlan(schema, Style::kTall);
  for (NodeId id = 0; id < plan.codec.num_nodes(); ++id) {
    const std::vector<NodeId> path = PathFromRoot(schema, plan.codec, id);
    ASSERT_EQ(static_cast<int>(path.size()), plan.nodes[id].depth + 1);
    EXPECT_EQ(path.front(), plan.root);
    EXPECT_EQ(path.back(), id);
    for (size_t i = 1; i < path.size(); ++i) {
      EXPECT_EQ(plan.nodes[path[i]].parent, path[i - 1])
          << plan.codec.Name(path[i], schema);
    }
  }
}

TEST(ExecutionPlanTest, DashedEdgesOnlyRefineRightmostDimension) {
  CubeSchema schema = PaperSchema();
  WalkedPlan plan = WalkPlan(schema, Style::kTall);
  EXPECT_TRUE(ValidateWalk(schema, Style::kTall, plan));
  // A2B1 -> A2B0 must be a dashed edge.
  const WalkedNode& a2b0 = plan.nodes[plan.codec.Encode({2, 0, 1})];
  EXPECT_EQ(a2b0.edge, EdgeType::kDashed);
  EXPECT_EQ(a2b0.parent, plan.codec.Encode({2, 1, 1}));
}

TEST(ExecutionPlanTest, BaseLevelsBoundTheWalk) {
  // Node N of a build partitioned on A1: A never goes below A2, and with A
  // at its ALL level the walk leaves A out entirely.
  CubeSchema schema = PaperSchema();
  const schema::NodeIdCodec codec(schema);
  for (int base : {2, 3}) {
    Cursor cursor(schema, Style::kTall);
    cursor.Reset({base, 0, 0});
    WalkedPlan plan;
    plan.codec = codec;
    plan.nodes.resize(codec.num_nodes());
    ASSERT_TRUE(WalkFrom(&cursor, 0, 0, &plan).ok());
    EXPECT_EQ(plan.order.size(), (base == 2 ? 2u : 1u) * 3 * 2 - 1) << base;
    for (NodeId id : plan.order) {
      EXPECT_GE(codec.Decode(id)[0], base) << codec.Name(id, schema);
    }
  }
}

TEST(ExecutionPlanTest, LargerFlatLattices) {
  for (int d = 2; d <= 8; ++d) {
    CubeSchema schema = FlatSchema(d);
    WalkedPlan plan = WalkPlan(schema, Style::kTall);
    EXPECT_EQ(plan.order.size(), uint64_t{1} << d);
    EXPECT_TRUE(ValidateWalk(schema, Style::kTall, plan)) << "d=" << d;
    EXPECT_EQ(plan.height, d);
  }
}

TEST(ExecutionPlanTest, WalksLatticesTooLargeToMaterialize) {
  // 2^28 nodes: the cursor and the path keep O(D) state. Only the path
  // to the base node is walked; the whole lattice would take minutes.
  CubeSchema schema = FlatSchema(28);
  const schema::NodeIdCodec codec(schema);
  const std::vector<NodeId> path = PathFromRoot(schema, codec, 0);
  ASSERT_EQ(path.size(), 29u);
  // P1 (flat BUC): the root-to-base path adds one dimension per edge in
  // dimension order, which is exactly the cursor's first-child chain.
  Cursor cursor(schema, Style::kTall);
  EXPECT_EQ(cursor.node(), path.front());
  std::vector<NodeId> chain = {cursor.node()};
  std::function<Status(int)> descend = [&](int next_dim) {
    bool first = true;
    return cursor.ForEachChild(next_dim, [&](int d) -> Status {
      if (!first) return Status::OK();
      first = false;
      chain.push_back(cursor.node());
      return descend(d + 1);
    });
  };
  ASSERT_TRUE(descend(0).ok());
  EXPECT_EQ(chain, path);
}

TEST(ExecutionPlanTest, DeepHierarchiesValidate) {
  std::vector<Dimension> dims;
  dims.push_back(Dimension::Linear("P", {100, 50, 25, 12, 6, 3}));
  dims.push_back(Dimension::Linear("Q", {40, 8}));
  dims.push_back(Dimension::Linear("R", {30, 10, 2}));
  Result<CubeSchema> schema =
      CubeSchema::Create(std::move(dims), 1, {{AggFn::kSum, 0, "m"}});
  ASSERT_TRUE(schema.ok());
  WalkedPlan plan = WalkPlan(*schema, Style::kTall);
  EXPECT_EQ(plan.order.size(), 7u * 3 * 4);
  EXPECT_TRUE(ValidateWalk(*schema, Style::kTall, plan));
  // Tall plan height: sum over dims of num_levels.
  EXPECT_EQ(plan.height, 6 + 2 + 3);
}

// Complex hierarchy: the paper's Fig. 5 time dimension.
Dimension MakeTimeDimension() {
  const uint32_t days = 364;
  std::vector<Level> levels(4);
  levels[0].name = "day";
  levels[0].cardinality = days;
  levels[0].parents = {1, 2};
  levels[1].name = "week";
  levels[1].cardinality = 52;
  levels[1].leaf_to_code.resize(days);
  for (uint32_t d = 0; d < days; ++d) levels[1].leaf_to_code[d] = d / 7;
  levels[2].name = "month";
  levels[2].cardinality = 13;
  levels[2].leaf_to_code.resize(days);
  for (uint32_t d = 0; d < days; ++d) levels[2].leaf_to_code[d] = d / 28;
  levels[2].parents = {3};
  levels[3].name = "year";
  levels[3].cardinality = 1;
  levels[3].leaf_to_code.assign(days, 0);
  Result<Dimension> dim = Dimension::Create("time", std::move(levels));
  EXPECT_TRUE(dim.ok());
  return std::move(dim).value();
}

TEST(ExecutionPlanTest, ComplexHierarchyOneDimensionalCube) {
  std::vector<Dimension> dims;
  dims.push_back(MakeTimeDimension());
  Result<CubeSchema> schema =
      CubeSchema::Create(std::move(dims), 1, {{AggFn::kSum, 0, "m"}});
  ASSERT_TRUE(schema.ok());
  WalkedPlan plan = WalkPlan(*schema, Style::kTall);
  // Nodes: day, week, month, year, ALL — Fig. 5b.
  EXPECT_EQ(plan.order.size(), 5u);
  EXPECT_TRUE(ValidateWalk(*schema, Style::kTall, plan));
  const schema::NodeIdCodec& codec = plan.codec;
  // day is entered from week (max cardinality sibling), not month.
  const WalkedNode& day = plan.nodes[codec.Encode({0})];
  EXPECT_EQ(day.parent, codec.Encode({1}));  // week
  EXPECT_EQ(day.edge, EdgeType::kDashed);
  EXPECT_EQ(PathFromRoot(*schema, codec, codec.Encode({0})),
            (std::vector<NodeId>{codec.Encode({4}), codec.Encode({1}),
                                 codec.Encode({0})}));
  // month is entered from year.
  const WalkedNode& month = plan.nodes[codec.Encode({2})];
  EXPECT_EQ(month.parent, codec.Encode({3}));
  EXPECT_EQ(month.edge, EdgeType::kDashed);
  // week and year enter via solid edges from ALL.
  EXPECT_EQ(plan.nodes[codec.Encode({1})].edge, EdgeType::kSolid);
  EXPECT_EQ(plan.nodes[codec.Encode({3})].edge, EdgeType::kSolid);
  EXPECT_EQ(PathFromRoot(*schema, codec, codec.Encode({2})),
            (std::vector<NodeId>{codec.Encode({4}), codec.Encode({3}),
                                 codec.Encode({2})}));
}

TEST(ExecutionPlanTest, ComplexHierarchyWithSecondDimension) {
  std::vector<Dimension> dims;
  dims.push_back(MakeTimeDimension());
  dims.push_back(Dimension::Flat("X", 10));
  Result<CubeSchema> schema =
      CubeSchema::Create(std::move(dims), 1, {{AggFn::kSum, 0, "m"}});
  ASSERT_TRUE(schema.ok());
  WalkedPlan plan = WalkPlan(*schema, Style::kTall);
  EXPECT_EQ(plan.order.size(), 5u * 2);
  EXPECT_TRUE(ValidateWalk(*schema, Style::kTall, plan));
}

}  // namespace
}  // namespace plan
}  // namespace cure
