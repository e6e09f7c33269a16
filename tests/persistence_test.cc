#include <gtest/gtest.h>

#include "engine/bubst.h"
#include "engine/buc.h"
#include "engine/cure.h"
#include "gen/datasets.h"
#include "gen/random.h"
#include "query/node_query.h"
#include "query/reference.h"
#include "storage/file_io.h"
#include "temp_dir.h"

namespace cure {
namespace {

using engine::BuildCure;
using engine::CureOptions;
using engine::FactInput;
using query::ResultSink;
using schema::NodeId;

gen::Dataset MakeHier(uint64_t tuples, uint64_t seed) {
  gen::Dataset ds;
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Linear("A", {25, 5}));
  dims.push_back(schema::Dimension::Linear("B", {16, 4}));
  dims.push_back(schema::Dimension::Flat("C", 7));
  auto schema = schema::CubeSchema::Create(
      std::move(dims), 1,
      {{schema::AggFn::kSum, 0, "sum"}, {schema::AggFn::kCount, 0, "cnt"}});
  EXPECT_TRUE(schema.ok());
  ds.schema = std::move(schema).value();
  ds.table = schema::FactTable(3, 1);
  gen::Rng rng(seed);
  for (uint64_t t = 0; t < tuples; ++t) {
    const uint32_t row[3] = {static_cast<uint32_t>(rng.NextRange(25)),
                             static_cast<uint32_t>(rng.NextRange(16)),
                             static_cast<uint32_t>(rng.NextRange(7))};
    const int64_t m = static_cast<int64_t>(rng.NextRange(100));
    ds.table.AppendRow(row, &m);
  }
  return ds;
}

void ExpectMatchesReference(const engine::CureCube& cube, const gen::Dataset& ds) {
  auto engine = query::CureQueryEngine::Create(&cube, 1.0);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
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

TEST(PersistenceTest, SpilledCureCubeAnswersIdentically) {
  gen::Dataset ds = MakeHier(800, 61);
  CureOptions options;
  FactInput input{.table = &ds.table};
  auto cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  const uint64_t before = (*cube)->TotalBytes();
  const auto counts_before = (*cube)->store().Counts();
  const test::ScopedTempDir tmp("persist");
  const std::string path = tmp.File("cube.bin");
  ASSERT_TRUE((*cube)->SpillStoreToDisk(path).ok());
  EXPECT_EQ((*cube)->TotalBytes(), before);  // logical size preserved
  const auto counts_after = (*cube)->store().Counts();
  EXPECT_EQ(counts_before.nt, counts_after.nt);
  EXPECT_EQ(counts_before.tt, counts_after.tt);
  EXPECT_EQ(counts_before.cat, counts_after.cat);
  EXPECT_EQ(counts_before.aggregates, counts_after.aggregates);
  ExpectMatchesReference(**cube, ds);
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

TEST(PersistenceTest, SpilledCurePlusWithBitmaps) {
  gen::Dataset ds = MakeHier(900, 62);
  CureOptions options;
  FactInput input{.table = &ds.table};
  auto cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  ASSERT_TRUE(engine::CurePostProcess(cube->get(), /*use_bitmaps=*/true).ok());
  const test::ScopedTempDir tmp("persist");
  const std::string path = tmp.File("plus.bin");
  ASSERT_TRUE((*cube)->SpillStoreToDisk(path).ok());
  ExpectMatchesReference(**cube, ds);
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

TEST(PersistenceTest, SpilledExternalCube) {
  gen::Dataset ds = MakeHier(1200, 63);
  storage::Relation rel = storage::Relation::Memory(ds.table.RecordSize());
  ASSERT_TRUE(ds.table.WriteTo(&rel).ok());
  CureOptions options;
  options.force_external = true;
  options.memory_budget_bytes = 16384;
  FactInput input{.relation = &rel};
  auto cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  ASSERT_TRUE((*cube)->stats().external);
  const test::ScopedTempDir tmp("persist");
  const std::string path = tmp.File("ext.bin");
  ASSERT_TRUE((*cube)->SpillStoreToDisk(path).ok());
  ExpectMatchesReference(**cube, ds);
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

TEST(PersistenceTest, SpilledDrCube) {
  gen::Dataset ds = MakeHier(700, 64);
  CureOptions options;
  options.dims_in_nt = true;
  FactInput input{.table = &ds.table};
  auto cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  const test::ScopedTempDir tmp("persist");
  const std::string path = tmp.File("dr.bin");
  ASSERT_TRUE((*cube)->SpillStoreToDisk(path).ok());
  ExpectMatchesReference(**cube, ds);
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

TEST(PersistenceTest, SpilledBucCube) {
  gen::Dataset ds = MakeHier(500, 65);
  auto buc = engine::BuildBuc(ds.schema, ds.table, {});
  ASSERT_TRUE(buc.ok());
  const uint64_t bytes = (*buc)->store().TotalBytes();
  const test::ScopedTempDir tmp("persist");
  const std::string path = tmp.File("buc.bin");
  ASSERT_TRUE((*buc)->SpillStoreToDisk(path).ok());
  EXPECT_EQ((*buc)->store().TotalBytes(), bytes);
  query::BucQueryEngine engine(buc->get());
  const schema::NodeIdCodec codec((*buc)->schema());
  for (NodeId id = 0; id < codec.num_nodes(); ++id) {
    ResultSink sink(true);
    ASSERT_TRUE(engine.QueryNode(id, &sink).ok());
    auto expected = query::ReferenceNodeResult((*buc)->schema(), ds.table, id);
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(query::SameResults(sink.TakeRows(), std::move(expected).value()));
  }
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

TEST(PersistenceTest, SpilledBubstCube) {
  gen::Dataset ds = MakeHier(500, 66);
  auto bubst = engine::BuildBubst(ds.schema, ds.table, {});
  ASSERT_TRUE(bubst.ok());
  const test::ScopedTempDir tmp("persist");
  const std::string path = tmp.File("bubst.bin");
  ASSERT_TRUE((*bubst)->SpillToDisk(path).ok());
  EXPECT_FALSE((*bubst)->monolithic().memory_backed());
  query::BubstQueryEngine engine(bubst->get());
  const schema::NodeIdCodec codec((*bubst)->schema());
  for (NodeId id = 0; id < codec.num_nodes(); id += 2) {
    ResultSink sink(true);
    ASSERT_TRUE(engine.QueryNode(id, &sink).ok());
    auto expected = query::ReferenceNodeResult((*bubst)->schema(), ds.table, id);
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(query::SameResults(sink.TakeRows(), std::move(expected).value()));
  }
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

TEST(PersistenceTest, OpenPackedRejectsGarbage) {
  const test::ScopedTempDir tmp("persist");
  const std::string path = tmp.File("garbage.bin");
  storage::FileWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Append("this is not a cube", 18).ok());
  ASSERT_TRUE(writer.Close().ok());
  gen::Dataset ds = MakeHier(5, 67);
  EXPECT_FALSE(cube::CubeStore::OpenPacked(path, &ds.schema).ok());
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

}  // namespace
}  // namespace cure
