#include "engine/cure.h"

#include <gtest/gtest.h>

#include "gen/datasets.h"
#include "gen/random.h"
#include "query/node_query.h"
#include "query/reference.h"
#include "schema/lattice.h"
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

// Queries every lattice node of `cube` and compares against the brute-force
// reference over `ds.table` (using the cube's own — possibly flattened —
// schema for the reference as well).
void ExpectCubeMatchesReference(const CureCube& cube, const Dataset& ds,
                                uint64_t min_support = 1,
                                double cache_fraction = 1.0) {
  Result<std::unique_ptr<query::CureQueryEngine>> engine =
      query::CureQueryEngine::Create(&cube, cache_fraction);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const schema::NodeIdCodec& codec = cube.store().codec();
  for (NodeId id = 0; id < codec.num_nodes(); ++id) {
    ResultSink sink(/*retain=*/true);
    Status s = (*engine)->QueryNode(id, &sink);
    ASSERT_TRUE(s.ok()) << s.ToString();
    Result<std::vector<ResultSink::Row>> expected =
        query::ReferenceNodeResult(cube.schema(), ds.table, id, min_support);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_TRUE(query::SameResults(sink.TakeRows(), std::move(expected).value()))
        << "node " << codec.Name(id, cube.schema()) << " (id " << id
        << ") mismatch";
  }
}

// ---------- The paper's worked example (Fig. 9) ----------

TEST(CurePaperExampleTest, ClassifiesFig9Tuples) {
  Dataset ds = gen::MakePaperExample();
  CureOptions options;
  FactInput input{.table = &ds.table};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  const engine::BuildStats& stats = (*cube)->stats();

  // Fig. 9b analysis with one aggregate (SUM):
  //  * All cube tuples with A = 2 are TTs from the single tuple
  //    <2,2,3,40>; similarly the base tuples themselves are TTs. The paper
  //    marks tuple <3,90> in node A as the only NT... with Y = 1 and
  //    coincidental CATs the rule stores CATs as NTs, so here we only check
  //    structural invariants:
  EXPECT_GT(stats.tt, 0u);
  EXPECT_GT(stats.nt + stats.cat, 0u);
  // Every cube tuple is accounted for exactly once across all classes:
  // query results match the reference on all 8 nodes.
  ExpectCubeMatchesReference(**cube, ds);
}

TEST(CurePaperExampleTest, TrivialTupleSharedAcrossSubtree) {
  Dataset ds = gen::MakePaperExample();
  CureOptions options;
  FactInput input{.table = &ds.table};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  // The single tuple <2,2,3,40> (0-based <1,1,2,40>) is trivial at node A —
  // the least detailed node with A grouped — and must be stored exactly once
  // there, covering A, AB, AC and ABC.
  const schema::NodeIdCodec& codec = (*cube)->store().codec();
  const NodeId node_a = codec.Encode({0, 1, 1});  // A grouped, B/C at ALL
  const cube::CubeStore::NodeData* a_data = (*cube)->store().node(node_a);
  ASSERT_NE(a_data, nullptr);
  ASSERT_TRUE(a_data->has_tt);
  EXPECT_EQ(a_data->tt.num_rows(), 1u);
  // The more detailed nodes must NOT duplicate it.
  const NodeId node_ab = codec.Encode({0, 0, 1});
  const cube::CubeStore::NodeData* ab_data = (*cube)->store().node(node_ab);
  if (ab_data != nullptr && ab_data->has_tt) {
    storage::Relation::Scanner scan(ab_data->tt);
    while (const uint8_t* rec = scan.Next()) {
      const cube::RowId rowid = (*cube)->store().layout().GetRowId(rec);
      EXPECT_NE(cube::RowIdOrdinal(rowid), 2u)
          << "TT for fact row 2 duplicated in node AB";
    }
  }
}

// ---------- Randomized equivalence sweeps ----------

struct SweepParam {
  int num_dims;
  uint64_t tuples;
  double zipf;
  uint32_t card;
  const char* label;
};

class CureSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CureSweepTest, FlatCubeMatchesReference) {
  const SweepParam& p = GetParam();
  gen::SyntheticSpec spec;
  spec.num_dims = p.num_dims;
  spec.num_tuples = p.tuples;
  spec.zipf = p.zipf;
  spec.cardinalities.assign(p.num_dims, p.card);
  spec.seed = 1234 + p.num_dims;
  Dataset ds = gen::MakeSynthetic(spec);
  CureOptions options;
  options.signature_pool_capacity = 4096;
  FactInput input{.table = &ds.table};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  ExpectCubeMatchesReference(**cube, ds);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CureSweepTest,
    ::testing::Values(SweepParam{2, 200, 0.0, 8, "d2"},
                      SweepParam{3, 300, 0.5, 6, "d3"},
                      SweepParam{4, 500, 1.0, 5, "d4_skew"},
                      SweepParam{5, 400, 2.0, 4, "d5_highskew"},
                      SweepParam{3, 50, 0.0, 50, "sparse_many_tts"},
                      SweepParam{2, 500, 1.5, 2, "dense_tiny_domain"}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return info.param.label;
    });

// Hierarchical schema helper.
Dataset MakeHierarchicalDataset(uint64_t tuples, uint64_t seed) {
  Dataset ds;
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Linear("A", {24, 6, 2}));
  dims.push_back(schema::Dimension::Linear("B", {10, 3}));
  dims.push_back(schema::Dimension::Flat("C", 5));
  Result<schema::CubeSchema> schema = schema::CubeSchema::Create(
      std::move(dims), 1,
      {{schema::AggFn::kSum, 0, "sum"}, {schema::AggFn::kCount, 0, "cnt"}});
  EXPECT_TRUE(schema.ok());
  ds.schema = std::move(schema).value();
  ds.table = schema::FactTable(3, 1);
  gen::Rng rng(seed);
  for (uint64_t t = 0; t < tuples; ++t) {
    const uint32_t dims_row[3] = {static_cast<uint32_t>(rng.NextRange(24)),
                                  static_cast<uint32_t>(rng.NextRange(10)),
                                  static_cast<uint32_t>(rng.NextRange(5))};
    const int64_t m = static_cast<int64_t>(rng.NextRange(100));
    ds.table.AppendRow(dims_row, &m);
  }
  ds.name = "hier_test";
  return ds;
}

TEST(CureHierarchicalTest, HierarchicalCubeMatchesReference) {
  Dataset ds = MakeHierarchicalDataset(600, 99);
  CureOptions options;
  options.signature_pool_capacity = 1024;
  FactInput input{.table = &ds.table};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  // 4 * 3 * 2 = 24 lattice nodes, all checked.
  ExpectCubeMatchesReference(**cube, ds);
}

TEST(CureHierarchicalTest, CurePlusMatchesReference) {
  Dataset ds = MakeHierarchicalDataset(600, 100);
  CureOptions options;
  FactInput input{.table = &ds.table};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  const uint64_t before = (*cube)->TotalBytes();
  ASSERT_TRUE(engine::CurePostProcess(cube->get(), /*use_bitmaps=*/true).ok());
  // Post-processing may only shrink or keep the size (bitmaps only when
  // smaller).
  EXPECT_LE((*cube)->TotalBytes(), before);
  ExpectCubeMatchesReference(**cube, ds);
}

TEST(CureHierarchicalTest, CureDrMatchesReference) {
  Dataset ds = MakeHierarchicalDataset(600, 101);
  CureOptions options;
  options.dims_in_nt = true;  // CURE_DR
  FactInput input{.table = &ds.table};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  ExpectCubeMatchesReference(**cube, ds);
}

TEST(CureHierarchicalTest, FcureFlatCubeMatchesFlattenedReference) {
  Dataset ds = MakeHierarchicalDataset(500, 102);
  CureOptions options;
  options.flat = true;  // FCURE
  FactInput input{.table = &ds.table};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube->get()->store().codec().num_nodes(), 8u);  // 2^3 flat nodes
  ExpectCubeMatchesReference(**cube, ds);
}

TEST(CureHierarchicalTest, TinyPoolStillCorrect) {
  Dataset ds = MakeHierarchicalDataset(400, 103);
  CureOptions options;
  options.signature_pool_capacity = 1;  // Degenerate: every tuple flushes.
  FactInput input{.table = &ds.table};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  EXPECT_GT((*cube)->stats().signature_flushes, 1u);
  ExpectCubeMatchesReference(**cube, ds);
}

TEST(CureHierarchicalTest, PoolSizeAffectsSizeNotCorrectness) {
  Dataset ds = MakeHierarchicalDataset(800, 104);
  uint64_t tiny_pool_bytes = 0;
  uint64_t big_pool_bytes = 0;
  for (size_t cap : {size_t{2}, size_t{1} << 20}) {
    CureOptions options;
    options.signature_pool_capacity = cap;
    FactInput input{.table = &ds.table};
    Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
    ASSERT_TRUE(cube.ok());
    ExpectCubeMatchesReference(**cube, ds);
    if (cap == 2) {
      tiny_pool_bytes = (*cube)->TotalBytes();
    } else {
      big_pool_bytes = (*cube)->TotalBytes();
    }
  }
  // An unbounded pool identifies at least as much redundancy.
  EXPECT_LE(big_pool_bytes, tiny_pool_bytes);
}

// ---------- Iceberg cubes ----------

TEST(CureIcebergTest, MinSupportPrunes) {
  Dataset ds = MakeHierarchicalDataset(600, 105);
  CureOptions options;
  options.min_support = 3;
  FactInput input{.table = &ds.table};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ((*cube)->stats().tt, 0u);  // No TTs in an iceberg cube.
  ExpectCubeMatchesReference(**cube, ds, /*min_support=*/3);
}

TEST(CureIcebergTest, IcebergSmallerThanComplete) {
  Dataset ds = MakeHierarchicalDataset(600, 106);
  uint64_t complete_bytes = 0;
  uint64_t iceberg_bytes = 0;
  for (uint64_t minsup : {uint64_t{1}, uint64_t{5}}) {
    CureOptions options;
    options.min_support = minsup;
    FactInput input{.table = &ds.table};
    Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
    ASSERT_TRUE(cube.ok());
    (minsup == 1 ? complete_bytes : iceberg_bytes) = (*cube)->TotalBytes();
  }
  EXPECT_LT(iceberg_bytes, complete_bytes);
}

// ---------- External (partitioned) construction ----------

TEST(CureExternalTest, ForcedExternalMatchesInMemory) {
  Dataset ds = MakeHierarchicalDataset(700, 107);
  storage::Relation rel = storage::Relation::Memory(ds.table.RecordSize());
  ASSERT_TRUE(ds.table.WriteTo(&rel).ok());

  CureOptions options;
  options.force_external = true;
  options.memory_budget_bytes = 12288;  // Tiny: several partitions.
  options.signature_pool_capacity = 512;
  FactInput input{.relation = &rel};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  EXPECT_TRUE((*cube)->stats().external);
  EXPECT_GE((*cube)->stats().partition_level, 0);
  EXPECT_GT((*cube)->stats().num_partitions, 1u);
  EXPECT_GT((*cube)->stats().n_rows, 0u);
  ExpectCubeMatchesReference(**cube, ds);
}

TEST(CureExternalTest, ExternalFromFileRelation) {
  Dataset ds = MakeHierarchicalDataset(900, 108);
  const test::ScopedTempDir tmp("cure_core_test");
  const std::string path = tmp.File("fact.bin");
  Result<storage::Relation> rel =
      storage::Relation::CreateFile(path, ds.table.RecordSize());
  ASSERT_TRUE(rel.ok());
  ASSERT_TRUE(ds.table.WriteTo(&rel.value()).ok());
  ASSERT_TRUE(rel->Seal().ok());

  CureOptions options;
  options.memory_budget_bytes = 8192;  // Smaller than the fact relation.
  FactInput input{.relation = &rel.value()};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  EXPECT_TRUE((*cube)->stats().external);
  // Query through the file-backed source with partial caching.
  ExpectCubeMatchesReference(**cube, ds, 1, /*cache_fraction=*/0.3);
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

TEST(CureExternalTest, ExternalPlusDrAndPostProcess) {
  Dataset ds = MakeHierarchicalDataset(800, 109);
  storage::Relation rel = storage::Relation::Memory(ds.table.RecordSize());
  ASSERT_TRUE(ds.table.WriteTo(&rel).ok());
  CureOptions options;
  options.force_external = true;
  options.memory_budget_bytes = 8192;
  options.dims_in_nt = true;
  FactInput input{.relation = &rel};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  ASSERT_TRUE(engine::CurePostProcess(cube->get()).ok());
  ExpectCubeMatchesReference(**cube, ds);
}

// ---------- Plan-style ablation ----------

TEST(CurePlanStyleTest, ShortPlanProducesSameCubeContents) {
  Dataset ds = MakeHierarchicalDataset(500, 110);
  CureOptions tall;
  CureOptions short_plan;
  short_plan.plan_style = plan::Style::kShort;
  FactInput input{.table = &ds.table};
  Result<std::unique_ptr<CureCube>> cube_tall = BuildCure(ds.schema, input, tall);
  Result<std::unique_ptr<CureCube>> cube_short =
      BuildCure(ds.schema, input, short_plan);
  ASSERT_TRUE(cube_tall.ok());
  ASSERT_TRUE(cube_short.ok());
  // Same logical cube: identical non-trivial groups. Stored TT entries can
  // only grow with the short plan (smaller shared sub-trees, Sec. 5.1).
  const engine::BuildStats& a = (*cube_tall)->stats();
  const engine::BuildStats& b = (*cube_short)->stats();
  EXPECT_EQ(a.nt + a.cat, b.nt + b.cat);
  EXPECT_LE(a.tt, b.tt);
}

// ---------- CAT format forcing ----------

TEST(CureCatFormatTest, AllFormatsAnswerQueriesCorrectly) {
  Dataset ds = MakeHierarchicalDataset(500, 111);
  for (cube::CatFormat format :
       {cube::CatFormat::kFormatA, cube::CatFormat::kFormatB,
        cube::CatFormat::kAsNT}) {
    CureOptions options;
    options.forced_cat_format = format;
    FactInput input{.table = &ds.table};
    Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    ExpectCubeMatchesReference(**cube, ds);
  }
}

}  // namespace
}  // namespace cure
