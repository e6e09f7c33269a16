#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "engine/cure.h"
#include "gen/datasets.h"
#include "gen/random.h"
#include "gen/zipf.h"
#include "query/node_query.h"
#include "query/reference.h"
#include "storage/file_io.h"
#include "temp_dir.h"

namespace cure {
namespace {

using engine::BuildCure;
using engine::CureCube;
using engine::CureOptions;
using engine::FactInput;
using gen::Dataset;

// Hierarchical Zipf dataset sized so the external path picks the leaf level
// of dimension A and produces a few dozen partitions.
Dataset MakeZipfDataset(uint64_t tuples, uint64_t seed) {
  Dataset ds;
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Linear("A", {48, 4, 2}));
  dims.push_back(schema::Dimension::Linear("B", {10, 3}));
  dims.push_back(schema::Dimension::Flat("C", 5));
  Result<schema::CubeSchema> schema = schema::CubeSchema::Create(
      std::move(dims), 1,
      {{schema::AggFn::kSum, 0, "sum"}, {schema::AggFn::kCount, 0, "cnt"}});
  EXPECT_TRUE(schema.ok());
  ds.schema = std::move(schema).value();
  ds.table = schema::FactTable(3, 1);
  gen::Rng rng(seed);
  gen::ZipfSampler zipf_a(48, 0.5);
  gen::ZipfSampler zipf_b(10, 0.3);
  for (uint64_t t = 0; t < tuples; ++t) {
    const uint32_t dims_row[3] = {zipf_a.Sample(&rng), zipf_b.Sample(&rng),
                                  static_cast<uint32_t>(rng.NextRange(5))};
    const int64_t m = static_cast<int64_t>(rng.NextRange(40));
    ds.table.AppendRow(dims_row, &m);
  }
  ds.name = "parallel_zipf";
  return ds;
}

CureOptions ExternalOptions() {
  CureOptions options;
  options.force_external = true;
  options.memory_budget_bytes = 24576;
  options.signature_pool_capacity = 256;
  return options;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Builds with `options`, persists the packed store, and returns its bytes.
std::string BuildAndPack(const Dataset& ds, const storage::Relation& rel,
                         CureOptions options, int num_threads) {
  options.num_threads = num_threads;
  FactInput input{.relation = &rel};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  EXPECT_TRUE(cube.ok()) << cube.status().ToString();
  if (!cube.ok()) return "";
  EXPECT_TRUE((*cube)->stats().external);
  EXPECT_GT((*cube)->stats().num_partitions, 4u);
  const test::ScopedTempDir tmp("parallel_pack");
  const std::string path = tmp.File("t" + std::to_string(num_threads) + ".bin");
  Status s = (*cube)->store().PersistPacked(path);
  EXPECT_TRUE(s.ok()) << s.ToString();
  std::string bytes = ReadFileBytes(path);
  EXPECT_TRUE(storage::RemoveFile(path).ok());
  return bytes;
}

TEST(ParallelBuildTest, ByteIdenticalPackedStoresAcrossThreadCounts) {
  Dataset ds = MakeZipfDataset(4000, 4242);
  storage::Relation rel = storage::Relation::Memory(ds.table.RecordSize());
  ASSERT_TRUE(ds.table.WriteTo(&rel).ok());

  const std::string serial = BuildAndPack(ds, rel, ExternalOptions(), 1);
  ASSERT_FALSE(serial.empty());
  for (int threads : {2, 8}) {
    const std::string parallel = BuildAndPack(ds, rel, ExternalOptions(), threads);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    EXPECT_TRUE(parallel == serial)
        << "packed store differs from the serial reference at threads="
        << threads;
  }
}

TEST(ParallelBuildTest, ByteIdenticalOnNarrowAndMixedWidthRecords) {
  // The record widths are fixed before construction, so every shard writes
  // the same layout and the merge stays a byte copy: threads 1, 2, 4 and 8
  // agree on an all-narrow cube and on one whose SUM needs 8 bytes.
  for (const int64_t scale : {int64_t{1}, int64_t{1} << 40}) {
    Dataset ds = MakeZipfDataset(3000, 1234);
    schema::FactTable scaled(3, 1);
    for (uint64_t r = 0; r < ds.table.num_rows(); ++r) {
      const uint32_t dims_row[3] = {ds.table.dim(0, r), ds.table.dim(1, r),
                                    ds.table.dim(2, r)};
      const int64_t m = ds.table.measure(0, r) * scale;
      scaled.AppendRow(dims_row, &m);
    }
    ds.table = std::move(scaled);
    storage::Relation rel = storage::Relation::Memory(ds.table.RecordSize());
    ASSERT_TRUE(ds.table.WriteTo(&rel).ok());

    FactInput input{.relation = &rel};
    CureOptions options = ExternalOptions();
    Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    EXPECT_EQ((*cube)->store().layout().ToString(),
              scale == 1 ? "row-id 4 B, A-rowid 4 B, aggregates 4/4 B"
                         : "row-id 4 B, A-rowid 4 B, aggregates 8/4 B");

    const std::string serial = BuildAndPack(ds, rel, options, 1);
    ASSERT_FALSE(serial.empty());
    for (int threads : {2, 4, 8}) {
      EXPECT_TRUE(BuildAndPack(ds, rel, options, threads) == serial)
          << "scale=" << scale << " threads=" << threads;
    }
  }
}

TEST(ParallelBuildTest, ByteIdenticalWithDimensionsInNt) {
  Dataset ds = MakeZipfDataset(3000, 777);
  storage::Relation rel = storage::Relation::Memory(ds.table.RecordSize());
  ASSERT_TRUE(ds.table.WriteTo(&rel).ok());
  CureOptions options = ExternalOptions();
  options.dims_in_nt = true;  // CURE_DR variant.

  const std::string serial = BuildAndPack(ds, rel, options, 1);
  ASSERT_FALSE(serial.empty());
  const std::string parallel = BuildAndPack(ds, rel, options, 8);
  EXPECT_TRUE(parallel == serial);
}

TEST(ParallelBuildTest, ByteIdenticalUnderForcedCatFormats) {
  Dataset ds = MakeZipfDataset(2500, 31);
  storage::Relation rel = storage::Relation::Memory(ds.table.RecordSize());
  ASSERT_TRUE(ds.table.WriteTo(&rel).ok());
  for (cube::CatFormat format :
       {cube::CatFormat::kFormatA, cube::CatFormat::kFormatB,
        cube::CatFormat::kAsNT}) {
    CureOptions options = ExternalOptions();
    options.forced_cat_format = format;
    const std::string serial = BuildAndPack(ds, rel, options, 1);
    ASSERT_FALSE(serial.empty());
    const std::string parallel = BuildAndPack(ds, rel, options, 4);
    EXPECT_TRUE(parallel == serial)
        << "format=" << static_cast<int>(format);
  }
}

TEST(ParallelBuildTest, ParallelExternalCubeMatchesReference) {
  Dataset ds = MakeZipfDataset(2000, 909);
  storage::Relation rel = storage::Relation::Memory(ds.table.RecordSize());
  ASSERT_TRUE(ds.table.WriteTo(&rel).ok());
  CureOptions options = ExternalOptions();
  options.num_threads = 8;
  FactInput input{.relation = &rel};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  EXPECT_EQ((*cube)->stats().num_threads, 8);
  EXPECT_GE((*cube)->stats().max_in_flight_partitions, 1u);
  EXPECT_GT((*cube)->stats().construct_stage.wall_seconds, 0.0);

  Result<std::unique_ptr<query::CureQueryEngine>> engine =
      query::CureQueryEngine::Create(cube->get(), 1.0);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const schema::NodeIdCodec& codec = (*cube)->store().codec();
  for (schema::NodeId id = 0; id < codec.num_nodes(); ++id) {
    query::ResultSink sink(/*retain=*/true);
    ASSERT_TRUE((*engine)->QueryNode(id, &sink).ok());
    Result<std::vector<query::ResultSink::Row>> expected =
        query::ReferenceNodeResult((*cube)->schema(), ds.table, id, 1);
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(query::SameResults(sink.TakeRows(),
                                   std::move(expected).value()))
        << "node " << codec.Name(id, (*cube)->schema());
  }
}

TEST(ParallelBuildTest, ScratchDirectoryCleanedUpOnSuccess) {
  Dataset ds = MakeZipfDataset(2000, 11);
  storage::Relation rel = storage::Relation::Memory(ds.table.RecordSize());
  ASSERT_TRUE(ds.table.WriteTo(&rel).ok());

  const test::ScopedTempDir tmp("scratch_test");
  const std::string temp_dir = tmp.File("scratch");
  std::filesystem::create_directories(temp_dir);
  CureOptions options = ExternalOptions();
  options.temp_dir = temp_dir;
  options.num_threads = 4;
  FactInput input{.relation = &rel};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  // The per-build scratch subdirectory (and every partition / sort-run file
  // in it) must be gone.
  EXPECT_TRUE(std::filesystem::is_empty(temp_dir));
  std::filesystem::remove_all(temp_dir);
}

TEST(ParallelBuildTest, ScratchDirectoryCleanedUpOnError) {
  Dataset ds = MakeZipfDataset(500, 12);
  storage::Relation rel = storage::Relation::Memory(ds.table.RecordSize());
  ASSERT_TRUE(ds.table.WriteTo(&rel).ok());

  const test::ScopedTempDir tmp("scratch_err_test");
  const std::string temp_dir = tmp.File("scratch");
  std::filesystem::create_directories(temp_dir);
  CureOptions options = ExternalOptions();
  options.temp_dir = temp_dir;
  // kShort plans are rejected by the external path after the scratch dir has
  // been created — the error path must still remove it.
  options.plan_style = plan::Style::kShort;
  FactInput input{.relation = &rel};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  EXPECT_FALSE(cube.ok());
  EXPECT_TRUE(std::filesystem::is_empty(temp_dir));
  std::filesystem::remove_all(temp_dir);
}

TEST(ParallelBuildTest, SerialPathIgnoresThreadPool) {
  // num_threads = 1 must not spin up workers: in-flight cap stays 1 and the
  // cube matches the parallel output byte-for-byte (covered above); here we
  // check the stats contract.
  Dataset ds = MakeZipfDataset(1500, 55);
  storage::Relation rel = storage::Relation::Memory(ds.table.RecordSize());
  ASSERT_TRUE(ds.table.WriteTo(&rel).ok());
  CureOptions options = ExternalOptions();
  options.num_threads = 1;
  FactInput input{.relation = &rel};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  EXPECT_EQ((*cube)->stats().num_threads, 1);
  EXPECT_EQ((*cube)->stats().max_in_flight_partitions, 1u);
}

}  // namespace
}  // namespace cure
