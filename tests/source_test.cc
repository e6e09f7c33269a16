#include "cube/source.h"

#include <gtest/gtest.h>

#include "storage/file_io.h"

namespace cure {
namespace cube {
namespace {

using schema::AggFn;
using schema::CubeSchema;
using schema::Dimension;
using schema::FactTable;

CubeSchema MakeSchema() {
  std::vector<Dimension> dims;
  dims.push_back(Dimension::Linear("A", {12, 4, 2}));
  dims.push_back(Dimension::Flat("B", 5));
  auto schema = CubeSchema::Create(
      std::move(dims), 1, {{AggFn::kSum, 0, "s"}, {AggFn::kCount, 0, "c"}});
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

FactTable MakeTable() {
  FactTable table(2, 1);
  for (uint32_t i = 0; i < 10; ++i) {
    const uint32_t dims[2] = {i, i % 5};
    const int64_t m = 10 * i;
    table.AppendRow(dims, &m);
  }
  return table;
}

TEST(FactTableSourceTest, LiftsMeasures) {
  CubeSchema schema = MakeSchema();
  FactTable table = MakeTable();
  FactTableSource source(&table, &schema);
  EXPECT_EQ(source.num_rows(), 10u);
  EXPECT_EQ(source.native_level(0), 0);
  uint32_t dims[2];
  int64_t aggrs[2];
  ASSERT_TRUE(source.GetRow(3, dims, aggrs).ok());
  EXPECT_EQ(dims[0], 3u);
  EXPECT_EQ(dims[1], 3u);
  EXPECT_EQ(aggrs[0], 30);  // SUM lift = raw measure
  EXPECT_EQ(aggrs[1], 1);   // COUNT lift = 1
  EXPECT_FALSE(source.GetRow(10, dims, aggrs).ok());
}

TEST(FactRelationSourceTest, ReadsThroughCache) {
  CubeSchema schema = MakeSchema();
  FactTable table = MakeTable();
  const std::string path = "/tmp/cure_source_test.bin";
  auto rel = storage::Relation::CreateFile(path, table.RecordSize());
  ASSERT_TRUE(rel.ok());
  ASSERT_TRUE(table.WriteTo(&rel.value()).ok());
  ASSERT_TRUE(rel->Seal().ok());

  auto source = FactRelationSource::Create(&rel.value(), &schema, 0.5);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  uint32_t dims[2];
  int64_t aggrs[2];
  ASSERT_TRUE((*source)->GetRow(2, dims, aggrs).ok());  // cached prefix
  EXPECT_EQ(dims[0], 2u);
  EXPECT_EQ(aggrs[0], 20);
  ASSERT_TRUE((*source)->GetRow(9, dims, aggrs).ok());  // disk
  EXPECT_EQ(dims[0], 9u);
  EXPECT_EQ(aggrs[0], 90);
  EXPECT_GE((*source)->cache().hits(), 1u);
  EXPECT_GE((*source)->cache().misses(), 1u);
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

TEST(FactRelationSourceTest, GetRowsMatchesGetRow) {
  CubeSchema schema = MakeSchema();
  FactTable table = MakeTable();
  const std::string path = "/tmp/cure_source_test_rows.bin";
  auto rel = storage::Relation::CreateFile(path, table.RecordSize());
  ASSERT_TRUE(rel.ok());
  ASSERT_TRUE(table.WriteTo(&rel.value()).ok());
  ASSERT_TRUE(rel->Seal().ok());
  auto source = FactRelationSource::Create(&rel.value(), &schema, 0.5);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  const std::vector<uint64_t> ordinals = {9, 2, 7, 2, 0};
  std::vector<uint32_t> dims(ordinals.size() * 2);
  std::vector<int64_t> aggrs(ordinals.size() * 2);
  ASSERT_TRUE((*source)
                  ->GetRows(ordinals.data(), ordinals.size(), dims.data(),
                            aggrs.data())
                  .ok());
  // Rows 0-4 are pinned: 3 hits and 2 misses, counted per row.
  EXPECT_EQ((*source)->cache().hits(), 3u);
  EXPECT_EQ((*source)->cache().misses(), 2u);
  for (size_t i = 0; i < ordinals.size(); ++i) {
    uint32_t one_dims[2];
    int64_t one_aggrs[2];
    ASSERT_TRUE((*source)->GetRow(ordinals[i], one_dims, one_aggrs).ok());
    EXPECT_EQ(dims[2 * i], one_dims[0]) << i;
    EXPECT_EQ(dims[2 * i + 1], one_dims[1]) << i;
    EXPECT_EQ(aggrs[2 * i], one_aggrs[0]) << i;
    EXPECT_EQ(aggrs[2 * i + 1], one_aggrs[1]) << i;
  }
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

TEST(FactRelationSourceTest, RejectsWrongRecordSize) {
  CubeSchema schema = MakeSchema();
  storage::Relation rel = storage::Relation::Memory(7);
  EXPECT_FALSE(FactRelationSource::Create(&rel, &schema, 1.0).ok());
}

AggTable MakeNTable() {
  // Node N with dim A at level 1, B at leaf.
  AggTable n;
  n.native_levels = {1, 0};
  n.dims = {{0, 1, 2, 3}, {0, 1, 2, 3}};
  n.aggrs = {{5, 6, 7, 8}, {2, 2, 3, 1}};
  n.num_rows = 4;
  return n;
}

TEST(AggTableSourceTest, ExposesNativeLevels) {
  AggTable n = MakeNTable();
  AggTableSource source(&n);
  EXPECT_EQ(source.num_rows(), 4u);
  EXPECT_EQ(source.native_level(0), 1);
  EXPECT_EQ(source.native_level(1), 0);
  uint32_t dims[2];
  int64_t aggrs[2];
  ASSERT_TRUE(source.GetRow(2, dims, aggrs).ok());
  EXPECT_EQ(dims[0], 2u);
  EXPECT_EQ(aggrs[0], 7);
  EXPECT_EQ(aggrs[1], 3);  // already-lifted count
}

TEST(AggTableTest, BytesAccounting) {
  AggTable n = MakeNTable();
  // 2 stored dims * 4 bytes + 2 aggrs * 8 bytes = 24 per row, 4 rows.
  EXPECT_EQ(n.bytes(), 96u);
  n.native_levels[0] = kNativeAll;  // projected out
  EXPECT_EQ(n.bytes(), 80u);
}

TEST(SourceSetTest, RoutesByNamespace) {
  CubeSchema schema = MakeSchema();
  FactTable table = MakeTable();
  AggTable n = MakeNTable();
  SourceSet sources(&schema);
  sources.Register(kSourceFact, std::make_shared<FactTableSource>(&table, &schema));
  sources.Register(kSourceNodeN, std::make_shared<AggTableSource>(&n));

  uint32_t dims[2];
  int64_t aggrs[2];
  ASSERT_TRUE(sources.GetRow(MakeRowId(kSourceFact, 4), dims, aggrs).ok());
  EXPECT_EQ(dims[0], 4u);
  ASSERT_TRUE(sources.GetRow(MakeRowId(kSourceNodeN, 1), dims, aggrs).ok());
  EXPECT_EQ(aggrs[0], 6);
  EXPECT_FALSE(sources.GetRow(MakeRowId(7, 0), dims, aggrs).ok());
}

TEST(SourceSetTest, GetRowsMatchesGetRowAcrossSources) {
  CubeSchema schema = MakeSchema();
  FactTable table = MakeTable();
  AggTable n = MakeNTable();
  SourceSet sources(&schema);
  sources.Register(kSourceFact, std::make_shared<FactTableSource>(&table, &schema));
  sources.Register(kSourceNodeN, std::make_shared<AggTableSource>(&n));
  const std::vector<RowId> rowids = {
      MakeRowId(kSourceNodeN, 1), MakeRowId(kSourceFact, 4),
      MakeRowId(kSourceFact, 0), MakeRowId(kSourceNodeN, 0),
      MakeRowId(kSourceFact, 4)};
  std::vector<uint32_t> dims(rowids.size() * 2);
  std::vector<int64_t> aggrs(rowids.size() * 2);
  ASSERT_TRUE(
      sources.GetRows(rowids.data(), rowids.size(), dims.data(), aggrs.data())
          .ok());
  for (size_t i = 0; i < rowids.size(); ++i) {
    uint32_t one_dims[2];
    int64_t one_aggrs[2];
    ASSERT_TRUE(sources.GetRow(rowids[i], one_dims, one_aggrs).ok());
    EXPECT_EQ(dims[2 * i], one_dims[0]) << i;
    EXPECT_EQ(dims[2 * i + 1], one_dims[1]) << i;
    EXPECT_EQ(aggrs[2 * i], one_aggrs[0]) << i;
    EXPECT_EQ(aggrs[2 * i + 1], one_aggrs[1]) << i;
  }
  const RowId unknown = MakeRowId(7, 0);
  EXPECT_EQ(sources.GetRows(&unknown, 1, dims.data(), aggrs.data()).code(),
            StatusCode::kNotFound);
  const RowId past_end = MakeRowId(kSourceFact, table.num_rows());
  EXPECT_EQ(sources.GetRows(&past_end, 1, dims.data(), aggrs.data()).code(),
            StatusCode::kOutOfRange);
}

TEST(SourceSetTest, ProjectsFromLeaf) {
  CubeSchema schema = MakeSchema();
  FactTable table = MakeTable();
  SourceSet sources(&schema);
  sources.Register(kSourceFact, std::make_shared<FactTableSource>(&table, &schema));
  const uint32_t native[2] = {11, 4};
  uint32_t out[2];
  Projection projection;
  // Node (A@2, B@0): project leaf 11 up two levels.
  ASSERT_TRUE(sources.ResolveProjection(kSourceFact, {2, 0}, &projection).ok());
  projection.Apply(native, out);
  EXPECT_EQ(out[0], schema.dim(0).CodeAt(11, 2));
  EXPECT_EQ(out[1], 4u);
  // Node (A@1, B@ALL): only one output code.
  ASSERT_TRUE(sources.ResolveProjection(kSourceFact, {1, 1}, &projection).ok());
  projection.Apply(native, out);
  EXPECT_EQ(out[0], schema.dim(0).CodeAt(11, 1));
}

TEST(SourceSetTest, ProjectsFromAggregatedLevels) {
  CubeSchema schema = MakeSchema();
  AggTable n = MakeNTable();
  SourceSet sources(&schema);
  sources.Register(kSourceNodeN, std::make_shared<AggTableSource>(&n));
  const uint32_t native[2] = {3, 2};  // A code at level 1
  uint32_t out[2];
  Projection projection;
  // Project from native level 1 to level 2.
  ASSERT_TRUE(sources.ResolveProjection(kSourceNodeN, {2, 0}, &projection).ok());
  projection.Apply(native, out);
  // Level-1 code 3 -> level-2 block: cardinalities 4 -> 2, block roll-up.
  auto map = schema.dim(0).LevelToLevelMap(1, 2);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(out[0], (*map)[3]);
  EXPECT_EQ(out[1], 2u);
  // Requesting a *finer* level than native must fail.
  const Status finer = sources.ResolveProjection(kSourceNodeN, {0, 0}, &projection);
  EXPECT_EQ(finer.code(), StatusCode::kInternal) << finer.ToString();
}

TEST(RowIdTest, PackAndUnpack) {
  const RowId id = MakeRowId(kSourceNodeN, 123456789);
  EXPECT_EQ(RowIdSource(id), kSourceNodeN);
  EXPECT_EQ(RowIdOrdinal(id), 123456789u);
  EXPECT_EQ(RowIdSource(MakeRowId(kSourceFact, 5)), kSourceFact);
  // Ordering within a namespace: ordinal order; across namespaces: fact
  // rows order before N rows (source tag in the top bits).
  EXPECT_LT(MakeRowId(kSourceFact, 99), MakeRowId(kSourceNodeN, 0));
}

}  // namespace
}  // namespace cube
}  // namespace cure
