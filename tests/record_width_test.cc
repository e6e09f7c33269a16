// Record widths (DESIGN.md §5): the pure width rule at its boundaries, and
// differential answers of cubes whose records mix 4- and 8-byte fields
// against the brute-force reference, across every engine variant, build
// path, thread count and storage mode.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cube/record_layout.h"
#include "engine/buc.h"
#include "engine/bubst.h"
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

using cube::ChooseRecordLayout;
using cube::RecordLayout;
using cube::ValueRange;
using cube::WidthBounds;
using schema::AggFn;
using schema::AggregateSpec;

constexpr uint64_t kInt32Max = std::numeric_limits<int32_t>::max();
constexpr int64_t kInt32Min = std::numeric_limits<int32_t>::min();

// ---------- the width rule ----------

struct WidthCase {
  const char* label;
  AggFn fn;
  uint64_t fact_rows;
  ValueRange range;
  size_t expected;
};

TEST(RecordWidthTest, AggregateWidthBoundaries) {
  const WidthCase cases[] = {
      // SUM: fact rows x max|measure| against 2^31 - 1.
      {"sum at 2^31-1", AggFn::kSum, kInt32Max, {0, 1}, 4},
      {"sum at 2^31", AggFn::kSum, kInt32Max + 1, {0, 1}, 8},
      {"sum product at 2^31-1", AggFn::kSum, 7, {0, 306783378}, 4},
      {"sum product past 2^31-1", AggFn::kSum, 7, {0, 306783379}, 8},
      {"sum negative magnitude", AggFn::kSum, 2, {-1073741824, 0}, 8},
      {"sum negative fits", AggFn::kSum, 2, {-1073741823, 5}, 4},
      {"sum int64 min", AggFn::kSum, 1, {std::numeric_limits<int64_t>::min(), 0}, 8},
      {"sum all zero", AggFn::kSum, uint64_t{1} << 40, {0, 0}, 4},
      {"sum no rows", AggFn::kSum, 0, {}, 4},
      // COUNT: fact rows against 2^31 - 1.
      {"count at 2^31-1", AggFn::kCount, kInt32Max, {}, 4},
      {"count at 2^31", AggFn::kCount, kInt32Max + 1, {}, 8},
      // MIN/MAX: the measure's range inside int32, whatever the row count.
      {"min negative range fits", AggFn::kMin, uint64_t{1} << 40, {kInt32Min, -1}, 4},
      {"min below int32", AggFn::kMin, 1, {kInt32Min - int64_t{1}, -1}, 8},
      {"max at int32 max", AggFn::kMax, 1, {-5, int64_t{kInt32Max}}, 4},
      {"max past int32 max", AggFn::kMax, 1, {-5, int64_t{kInt32Max} + 1}, 8},
  };
  for (const WidthCase& c : cases) {
    WidthBounds bounds;
    bounds.fact_rows = c.fact_rows;
    bounds.measures = {c.range};
    const RecordLayout layout =
        ChooseRecordLayout({AggregateSpec{c.fn, 0, "a"}}, bounds);
    EXPECT_EQ(layout.aggregate_width(0), c.expected) << c.label;
  }
}

TEST(RecordWidthTest, RowIdAndArowidBoundaries) {
  const std::vector<AggregateSpec> count = {{AggFn::kCount, 0, "n"}};
  WidthBounds bounds;
  // Row-id ordinals 0 .. 2^31-1 fit beside the source tag bit; 2^31 does not.
  bounds.rowid_rows = uint64_t{1} << 31;
  EXPECT_EQ(ChooseRecordLayout(count, bounds).rowid_width(), 4u);
  bounds.rowid_rows = (uint64_t{1} << 31) + 1;
  EXPECT_EQ(ChooseRecordLayout(count, bounds).rowid_width(), 8u);
  // A-rowids are untagged: up to 2^32 AGGREGATES rows.
  bounds.aggregate_rows = uint64_t{1} << 32;
  EXPECT_EQ(ChooseRecordLayout(count, bounds).arowid_width(), 4u);
  bounds.aggregate_rows = (uint64_t{1} << 32) + 1;
  EXPECT_EQ(ChooseRecordLayout(count, bounds).arowid_width(), 8u);
}

TEST(RecordWidthTest, NarrowRowIdsKeepTheSourceTag) {
  WidthBounds bounds;
  const RecordLayout layout =
      ChooseRecordLayout({{AggFn::kCount, 0, "n"}}, bounds);
  ASSERT_EQ(layout.rowid_width(), 4u);
  uint8_t rec[8];
  for (const cube::RowId id :
       {cube::MakeRowId(cube::kSourceFact, 0),
        cube::MakeRowId(cube::kSourceFact, kInt32Max),
        cube::MakeRowId(cube::kSourceNodeN, 0),
        cube::MakeRowId(cube::kSourceNodeN, kInt32Max)}) {
    layout.PutRowId(rec, id);
    EXPECT_EQ(layout.GetRowId(rec), id);
  }
}

TEST(RecordWidthTest, WidthBitsRoundTrip) {
  WidthBounds bounds;
  bounds.fact_rows = 10;
  bounds.measures = {{0, int64_t{1} << 40}, {-3, 3}};
  const RecordLayout layout = ChooseRecordLayout(
      {{AggFn::kSum, 0, "big"}, {AggFn::kSum, 1, "small"}, {AggFn::kCount, 0, "n"}},
      bounds);
  EXPECT_EQ(layout.ToString(), "row-id 4 B, A-rowid 4 B, aggregates 8/4/4 B");
  Result<RecordLayout> back = RecordLayout::FromWidthBits(layout.WidthBits());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == layout);
  EXPECT_TRUE(RecordLayout::FromWidthBits(RecordLayout::Wide(3).WidthBits()).value() ==
              RecordLayout::Wide(3));
  // A flag for an aggregate the count does not cover is rejected.
  EXPECT_FALSE(RecordLayout::FromWidthBits((1u << 24) | (4u << 5)).ok());
}

// ---------- differential answers ----------

// Zipf data whose aggregates need different widths: SUM(big) exceeds int32
// (8 bytes) while SUM(small), COUNT, MIN(big) and MAX(small) fit 4 bytes.
gen::Dataset MakeMixedWidthDataset(uint64_t tuples, uint64_t seed) {
  gen::Dataset ds;
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Linear("A", {40, 5, 2}));
  dims.push_back(schema::Dimension::Linear("B", {12, 3}));
  dims.push_back(schema::Dimension::Flat("C", 4));
  Result<schema::CubeSchema> schema = schema::CubeSchema::Create(
      std::move(dims), 2,
      {{AggFn::kSum, 0, "sum_small"},
       {AggFn::kSum, 1, "sum_big"},
       {AggFn::kCount, 0, "cnt"},
       {AggFn::kMin, 1, "min_big"},
       {AggFn::kMax, 0, "max_small"}});
  EXPECT_TRUE(schema.ok());
  ds.schema = std::move(schema).value();
  ds.table = schema::FactTable(3, 2);
  gen::Rng rng(seed);
  gen::ZipfSampler zipf_a(40, 0.8);
  gen::ZipfSampler zipf_b(12, 0.5);
  for (uint64_t t = 0; t < tuples; ++t) {
    const uint32_t row[3] = {zipf_a.Sample(&rng), zipf_b.Sample(&rng),
                             static_cast<uint32_t>(rng.NextRange(4))};
    const int64_t measures[2] = {
        static_cast<int64_t>(rng.NextRange(50)) - 10,
        static_cast<int64_t>(rng.NextRange(4000000000ull)) - 2000000000};
    ds.table.AppendRow(row, measures);
  }
  ds.name = "mixed_width_zipf";
  return ds;
}

struct Reference {
  uint64_t count = 0;
  uint64_t checksum = 0;
};

std::vector<Reference> ReferenceAnswers(const gen::Dataset& ds) {
  const schema::NodeIdCodec codec(ds.schema);
  std::vector<Reference> out(codec.num_nodes());
  for (schema::NodeId id = 0; id < codec.num_nodes(); ++id) {
    Result<std::vector<query::ResultSink::Row>> rows =
        query::ReferenceNodeResult(ds.schema, ds.table, id);
    EXPECT_TRUE(rows.ok());
    query::ResultSink sink;
    for (const query::ResultSink::Row& row : *rows) {
      sink.Emit(row.dims.data(), static_cast<int>(row.dims.size()),
                row.aggrs.data(), static_cast<int>(row.aggrs.size()));
    }
    out[id] = {sink.count(), sink.checksum()};
  }
  return out;
}

void ExpectAnswers(const engine::CureCube& cube,
                   const std::vector<Reference>& expected,
                   const std::string& label) {
  Result<std::unique_ptr<query::CureQueryEngine>> engine =
      query::CureQueryEngine::Create(&cube, 1.0);
  ASSERT_TRUE(engine.ok()) << label << ": " << engine.status().ToString();
  for (schema::NodeId id = 0; id < expected.size(); ++id) {
    query::ResultSink sink;
    ASSERT_TRUE((*engine)->QueryNode(id, &sink).ok()) << label;
    EXPECT_EQ(sink.count(), expected[id].count) << label << " node " << id;
    EXPECT_EQ(sink.checksum(), expected[id].checksum) << label << " node " << id;
  }
}

TEST(RecordWidthTest, MixedWidthCubesMatchTheReference) {
  const gen::Dataset ds = MakeMixedWidthDataset(3000, 2718);
  const std::vector<Reference> expected = ReferenceAnswers(ds);
  storage::Relation rel = storage::Relation::Memory(ds.table.RecordSize());
  ASSERT_TRUE(ds.table.WriteTo(&rel).ok());
  const test::ScopedTempDir tmp("record_width");
  const std::string pack = tmp.File("cube.bin");

  enum class Variant { kCure, kCurePlus, kCureDr };
  for (const Variant variant : {Variant::kCure, Variant::kCurePlus, Variant::kCureDr}) {
    for (const bool external : {false, true}) {
      for (const int threads : {1, 4}) {
        if (!external && threads > 1) continue;  // in-memory builds are serial
        for (const bool packed : {false, true}) {
          const std::string label =
              std::string(variant == Variant::kCure       ? "CURE"
                          : variant == Variant::kCurePlus ? "CURE+"
                                                          : "CURE_DR") +
              (external ? " external" : " in-memory") + " threads=" +
              std::to_string(threads) + (packed ? " packed" : " memory");
          engine::CureOptions options;
          options.dims_in_nt = variant == Variant::kCureDr;
          options.num_threads = threads;
          options.force_external = external;
          options.memory_budget_bytes = external ? 65536 : 256ull << 20;
          options.signature_pool_capacity = external ? 256 : 1 << 20;
          engine::FactInput input;
          if (external) {
            input.relation = &rel;
          } else {
            input.table = &ds.table;
          }
          Result<std::unique_ptr<engine::CureCube>> cube =
              engine::BuildCure(ds.schema, input, options);
          ASSERT_TRUE(cube.ok()) << label << ": " << cube.status().ToString();
          if (external) {
            EXPECT_GT((*cube)->stats().num_partitions, 1u) << label;
          }
          EXPECT_EQ((*cube)->store().layout().ToString(),
                    "row-id 4 B, A-rowid 4 B, aggregates 4/8/4/4/4 B")
              << label;
          if (variant == Variant::kCurePlus) {
            ASSERT_TRUE(engine::CurePostProcess(cube->get()).ok()) << label;
          }
          if (packed) {
            ASSERT_TRUE((*cube)->SpillStoreToDisk(pack).ok()) << label;
            EXPECT_TRUE((*cube)->store().layout() ==
                        ChooseRecordLayout(ds.schema.aggregates(),
                                           cube::BoundsForTable(
                                               ds.table, expected.size())))
                << label;
          }
          ExpectAnswers(**cube, expected, label);
        }
      }
    }
  }
  ASSERT_TRUE(storage::RemoveFile(pack).ok());
}

TEST(RecordWidthTest, BaselinesShareTheWidthRule) {
  const gen::Dataset ds = MakeMixedWidthDataset(800, 99);
  const RecordLayout layout = ChooseRecordLayout(
      ds.schema.aggregates(),
      cube::BoundsForTable(ds.table, schema::NodeIdCodec(ds.schema.Flattened())
                                         .num_nodes()));
  Result<std::unique_ptr<engine::BucCube>> buc =
      engine::BuildBuc(ds.schema, ds.table, engine::BucOptions{});
  ASSERT_TRUE(buc.ok());
  EXPECT_TRUE((*buc)->store().layout() == layout);
  Result<std::unique_ptr<engine::BubstCube>> bubst =
      engine::BuildBubst(ds.schema, ds.table, engine::BubstOptions{});
  ASSERT_TRUE(bubst.ok());
  EXPECT_TRUE((*bubst)->layout() == layout);
  EXPECT_EQ((*bubst)->monolithic().record_size(),
            engine::BubstRecord::Size(3, layout, 4));

  // Both baselines still answer every node exactly.
  query::BucQueryEngine buc_engine(buc->get());
  query::BubstQueryEngine bubst_engine(bubst->get());
  const schema::NodeIdCodec codec((*buc)->schema());
  for (schema::NodeId id = 0; id < codec.num_nodes(); ++id) {
    query::ResultSink a(true), b(true);
    ASSERT_TRUE(buc_engine.QueryNode(id, &a).ok());
    ASSERT_TRUE(bubst_engine.QueryNode(id, &b).ok());
    Result<std::vector<query::ResultSink::Row>> expected =
        query::ReferenceNodeResult((*buc)->schema(), ds.table, id);
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(query::SameResults(a.rows(), *expected)) << "BUC node " << id;
    EXPECT_TRUE(query::SameResults(b.rows(), *expected)) << "BU-BST node " << id;
  }
}

TEST(RecordWidthTest, CurePlusBitmapsNeverExceedTheirLists) {
  // Dense data over a small fact table: many TT lists are long enough that
  // a bitmap replaces them, and every replacement must save bytes at the
  // cube's (4-byte) row-id width.
  const gen::Dataset ds = MakeMixedWidthDataset(600, 7);
  engine::FactInput input{.table = &ds.table};
  Result<std::unique_ptr<engine::CureCube>> cube =
      engine::BuildCure(ds.schema, input, engine::CureOptions{});
  ASSERT_TRUE(cube.ok());
  ASSERT_EQ((*cube)->store().TtRecordSize(), 4u);
  ASSERT_TRUE(engine::CurePostProcess(cube->get()).ok());
  const cube::CubeStore& store = (*cube)->store();
  // The fact universe is 600 rows: a bitmap stores 10 words (80 bytes).
  const uint64_t bitmap_bytes = (600 + 63) / 64 * 8;
  int bitmaps = 0;
  for (schema::NodeId id = 0; id < store.codec().num_nodes(); ++id) {
    const cube::CubeStore::NodeData* node = store.node(id);
    if (node == nullptr) continue;
    if (node->tt_bitmap != nullptr) {
      ++bitmaps;
      EXPECT_EQ(node->tt_bitmap->SerializedBytes(), bitmap_bytes);
      EXPECT_LT(node->tt_bitmap->SerializedBytes(),
                node->tt_bitmap->Count() * store.TtRecordSize())
          << "node " << id;
    } else if (node->has_tt) {
      // A list stays only when the bitmap would not be smaller.
      EXPECT_LE(node->tt.num_rows() * store.TtRecordSize(), bitmap_bytes)
          << "node " << id;
    }
  }
  EXPECT_GT(bitmaps, 0);
}

}  // namespace
}  // namespace cure
