#include "engine/incremental.h"

#include <gtest/gtest.h>

#include "gen/datasets.h"
#include "gen/random.h"
#include "query/node_query.h"
#include "query/reference.h"

namespace cure {
namespace {

using engine::ApplyDelta;
using engine::BuildCure;
using engine::CureOptions;
using engine::FactInput;
using query::ResultSink;
using schema::AggFn;
using schema::Dimension;
using schema::NodeId;

schema::CubeSchema MakeSchema() {
  std::vector<Dimension> dims;
  dims.push_back(Dimension::Linear("A", {20, 5, 2}));
  dims.push_back(Dimension::Linear("B", {10, 2}));
  dims.push_back(Dimension::Flat("C", 4));
  auto schema = schema::CubeSchema::Create(
      std::move(dims), 1, {{AggFn::kSum, 0, "s"}, {AggFn::kCount, 0, "c"}});
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

void AppendRandomRows(schema::FactTable* table, uint64_t count, uint64_t seed) {
  gen::Rng rng(seed);
  for (uint64_t i = 0; i < count; ++i) {
    const uint32_t row[3] = {static_cast<uint32_t>(rng.NextRange(20)),
                             static_cast<uint32_t>(rng.NextRange(10)),
                             static_cast<uint32_t>(rng.NextRange(4))};
    const int64_t m = static_cast<int64_t>(rng.NextRange(50));
    table->AppendRow(row, &m);
  }
}

void ExpectAllNodesMatch(const engine::CureCube& cube,
                         const schema::CubeSchema& schema,
                         const schema::FactTable& table) {
  auto engine = query::CureQueryEngine::Create(&cube, 1.0);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const schema::NodeIdCodec& codec = cube.store().codec();
  for (NodeId id = 0; id < codec.num_nodes(); ++id) {
    ResultSink sink(true);
    ASSERT_TRUE((*engine)->QueryNode(id, &sink).ok());
    auto expected = query::ReferenceNodeResult(schema, table, id);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(query::SameResults(sink.TakeRows(), std::move(expected).value()))
        << "node " << codec.Name(id, schema) << " (" << id << ")";
  }
}

struct DeltaCase {
  uint64_t base_rows;
  uint64_t delta_rows;
  bool dr;
  bool post_process_first;
  const char* label;
};

class ApplyDeltaTest : public ::testing::TestWithParam<DeltaCase> {};

TEST_P(ApplyDeltaTest, UpdatedCubeMatchesFromScratchReference) {
  const DeltaCase& p = GetParam();
  schema::CubeSchema schema = MakeSchema();
  schema::FactTable table(3, 1);
  AppendRandomRows(&table, p.base_rows, 1000 + p.base_rows);

  CureOptions options;
  options.dims_in_nt = p.dr;
  FactInput input{.table = &table};
  auto cube = BuildCure(schema, input, options);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  if (p.post_process_first) {
    ASSERT_TRUE(engine::CurePostProcess(cube->get()).ok());
  }

  const uint64_t old_rows = table.num_rows();
  AppendRandomRows(&table, p.delta_rows, 2000 + p.delta_rows);
  auto stats = ApplyDelta(cube->get(), table, old_rows);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->delta_rows, p.delta_rows);
  ExpectAllNodesMatch(**cube, schema, table);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ApplyDeltaTest,
    ::testing::Values(DeltaCase{300, 30, false, false, "small_delta"},
                      DeltaCase{300, 300, false, false, "equal_delta"},
                      DeltaCase{50, 200, false, false, "delta_dominates"},
                      DeltaCase{300, 1, false, false, "single_row_delta"},
                      DeltaCase{300, 50, true, false, "dr_mode"},
                      DeltaCase{300, 50, false, true, "after_postprocess"},
                      DeltaCase{0, 100, false, false, "empty_base"}),
    [](const ::testing::TestParamInfo<DeltaCase>& info) {
      return info.param.label;
    });

TEST(ApplyDeltaTest, RepeatedDeltas) {
  schema::CubeSchema schema = MakeSchema();
  schema::FactTable table(3, 1);
  AppendRandomRows(&table, 200, 3000);
  CureOptions options;
  FactInput input{.table = &table};
  auto cube = BuildCure(schema, input, options);
  ASSERT_TRUE(cube.ok());
  for (int round = 0; round < 5; ++round) {
    const uint64_t old_rows = table.num_rows();
    AppendRandomRows(&table, 40, 4000 + round);
    auto stats = ApplyDelta(cube->get(), table, old_rows);
    ASSERT_TRUE(stats.ok()) << "round " << round << ": "
                            << stats.status().ToString();
  }
  ExpectAllNodesMatch(**cube, schema, table);
}

TEST(ApplyDeltaTest, StatsReportTupleTransitions) {
  schema::CubeSchema schema = MakeSchema();
  schema::FactTable table(3, 1);
  // A base where every row is unique in dimension A.
  for (uint32_t i = 0; i < 10; ++i) {
    const uint32_t row[3] = {i, i % 10, i % 4};
    const int64_t m = 5;
    table.AppendRow(row, &m);
  }
  CureOptions options;
  FactInput input{.table = &table};
  auto cube = BuildCure(schema, input, options);
  ASSERT_TRUE(cube.ok());
  const uint64_t tts_before = (*cube)->stats().tt;
  EXPECT_GT(tts_before, 0u);

  // Duplicate an existing row: its TT group becomes non-trivial.
  const uint64_t old_rows = table.num_rows();
  const uint32_t dup[3] = {3, 3, 3};
  const int64_t m = 7;
  table.AppendRow(dup, &m);
  auto stats = ApplyDelta(cube->get(), table, old_rows);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->absorbed_tts, 0u);
  ExpectAllNodesMatch(**cube, schema, table);
}

TEST(ApplyDeltaTest, NoOpDelta) {
  schema::CubeSchema schema = MakeSchema();
  schema::FactTable table(3, 1);
  AppendRandomRows(&table, 100, 5000);
  CureOptions options;
  FactInput input{.table = &table};
  auto cube = BuildCure(schema, input, options);
  ASSERT_TRUE(cube.ok());
  auto stats = ApplyDelta(cube->get(), table, table.num_rows());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->delta_rows, 0u);
}

// Each unsupported-cube path must fail with kFailedPrecondition and name
// the violated requirement: the serving layer's refresh arbitration keys
// its delta-vs-rebuild decision on exactly this code, and operators read
// the message as the fallback reason. One regression test per path.
TEST(ApplyDeltaTest, IcebergCubeIsAFailedPrecondition) {
  schema::CubeSchema schema = MakeSchema();
  schema::FactTable table(3, 1);
  AppendRandomRows(&table, 100, 6000);
  CureOptions options;
  options.min_support = 2;
  FactInput input{.table = &table};
  auto cube = BuildCure(schema, input, options);
  ASSERT_TRUE(cube.ok());
  const Status status =
      ApplyDelta(cube->get(), table, table.num_rows() - 1).status();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
  EXPECT_NE(status.message().find("iceberg"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("min_support"), std::string::npos);
}

TEST(ApplyDeltaTest, SpilledCubeIsAFailedPrecondition) {
  schema::CubeSchema schema = MakeSchema();
  schema::FactTable table(3, 1);
  AppendRandomRows(&table, 100, 6001);
  CureOptions options;
  FactInput input{.table = &table};
  auto cube = BuildCure(schema, input, options);
  ASSERT_TRUE(cube.ok());
  ASSERT_TRUE((*cube)->SpillStoreToDisk("/tmp/cure_incr_spill.bin").ok());
  const Status status =
      ApplyDelta(cube->get(), table, table.num_rows()).status();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
  EXPECT_NE(status.message().find("spilled"), std::string::npos)
      << status.ToString();
  ASSERT_TRUE(storage::RemoveFile("/tmp/cure_incr_spill.bin").ok());
}

TEST(ApplyDeltaTest, ExternallyBuiltCubeIsAFailedPrecondition) {
  schema::CubeSchema schema = MakeSchema();
  schema::FactTable table(3, 1);
  AppendRandomRows(&table, 200, 6002);
  storage::Relation rel = storage::Relation::Memory(table.RecordSize());
  ASSERT_TRUE(table.WriteTo(&rel).ok());
  CureOptions options;
  options.force_external = true;  // partitioned path: partition_level >= 0
  // Both forms: the external build reads the relation, while the cube still
  // records the table pointer, so ApplyDelta reaches the partition check.
  FactInput input{.table = &table, .relation = &rel};
  auto cube = BuildCure(schema, input, options);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  ASSERT_GE((*cube)->partition_level(), 0);
  const Status status =
      ApplyDelta(cube->get(), table, table.num_rows()).status();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
  EXPECT_NE(status.message().find("partition"), std::string::npos)
      << status.ToString();
}

TEST(ApplyDeltaTest, ShortPlanCubeIsAFailedPrecondition) {
  schema::CubeSchema schema = MakeSchema();
  schema::FactTable table(3, 1);
  AppendRandomRows(&table, 100, 6003);
  CureOptions options;
  options.plan_style = plan::Style::kShort;
  FactInput input{.table = &table};
  auto cube = BuildCure(schema, input, options);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  const Status status =
      ApplyDelta(cube->get(), table, table.num_rows()).status();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
  EXPECT_NE(status.message().find("tall"), std::string::npos)
      << status.ToString();
}

// Argument errors stay kInvalidArgument — a refresh must fail loudly on a
// bad call rather than silently falling back to a rebuild.
TEST(ApplyDeltaTest, WrongTableStaysInvalidArgument) {
  schema::CubeSchema schema = MakeSchema();
  schema::FactTable table(3, 1);
  AppendRandomRows(&table, 100, 6004);
  CureOptions options;
  FactInput input{.table = &table};
  auto cube = BuildCure(schema, input, options);
  ASSERT_TRUE(cube.ok());
  schema::FactTable other(3, 1);
  EXPECT_EQ(ApplyDelta(cube->get(), other, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ApplyDelta(cube->get(), table, table.num_rows() + 1).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(ApplyDeltaTest, IncrementalIsFasterThanRebuildForSmallDeltas) {
  schema::CubeSchema schema = MakeSchema();
  schema::FactTable table(3, 1);
  AppendRandomRows(&table, 20000, 7000);
  CureOptions options;
  FactInput input{.table = &table};
  auto cube = BuildCure(schema, input, options);
  ASSERT_TRUE(cube.ok());
  const double build_seconds = (*cube)->stats().build_seconds;

  const uint64_t old_rows = table.num_rows();
  AppendRandomRows(&table, 50, 7001);
  auto stats = ApplyDelta(cube->get(), table, old_rows);
  ASSERT_TRUE(stats.ok());
  // A 0.25% delta should be far cheaper than a full rebuild; allow a very
  // generous margin to stay robust on slow CI machines.
  EXPECT_LT(stats->seconds, build_seconds);
}

}  // namespace
}  // namespace cure
