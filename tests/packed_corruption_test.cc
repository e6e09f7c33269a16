// Adversarial tests for the v3 packed cube format: every corruption —
// truncation at arbitrary and section-aligned offsets, bit flips in the
// header, section table, and every data section, garbage magic, legacy
// headers, zero-byte files — must surface as a clean kDataLoss (or the
// legacy kInvalidArgument), never a crash or silently wrong data. Runs
// under ASan+UBSan in CI.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cube/cube_store.h"
#include "engine/cure.h"
#include "gen/datasets.h"
#include "gen/random.h"
#include "query/node_query.h"
#include "query/reference.h"
#include "storage/file_io.h"
#include "temp_dir.h"

namespace cure {
namespace {

using cube::CubeStore;
using engine::BuildCure;
using engine::CureOptions;
using engine::FactInput;

// Mirrors the on-disk layout in cube_store.cc (kept in sync by the
// ManifestChecksumLayout test below).
constexpr size_t kHeaderSize = 48;
constexpr size_t kEntrySize = 48;
constexpr size_t kNumEntriesOffset = 24;   // header field
constexpr size_t kEntryOffsetField = 24;   // PackedEntry::offset
constexpr uint64_t kMagic = 0x4342554345525543ull;

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

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

uint64_t ReadU64(const std::string& bytes, size_t offset) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + offset, 8);
  return v;
}

// A pristine packed cube plus its raw bytes and section offsets, shared by
// every corruption in one test.
struct PackedFixture {
  test::ScopedTempDir tmp{"corrupt"};
  gen::Dataset ds;
  std::string path;
  std::string pristine;
  std::vector<uint64_t> section_offsets;  // ascending, from the manifest
  uint64_t num_entries = 0;

  explicit PackedFixture(const char* tag, uint64_t tuples = 600,
                         uint64_t seed = 71) {
    ds = MakeHier(tuples, seed);
    CureOptions options;
    FactInput input{.table = &ds.table};
    auto cube = BuildCure(ds.schema, input, options);
    EXPECT_TRUE(cube.ok()) << cube.status().ToString();
    path = tmp.File(std::string(tag) + ".bin");
    Status s = (*cube)->store().PersistPacked(path);
    EXPECT_TRUE(s.ok()) << s.ToString();
    pristine = ReadBytes(path);
    num_entries = ReadU64(pristine, kNumEntriesOffset);
    EXPECT_GT(num_entries, 2u);
    for (uint64_t i = 0; i < num_entries; ++i) {
      section_offsets.push_back(
          ReadU64(pristine, kHeaderSize + i * kEntrySize + kEntryOffsetField));
    }
  }

  ~PackedFixture() { (void)storage::RemoveFile(path); }

  Status Open() const {
    return CubeStore::OpenPacked(path, &ds.schema).status();
  }
};

TEST(PackedCorruptionTest, PristineFileOpensAndVerifies) {
  PackedFixture fx("pristine");
  EXPECT_TRUE(fx.Open().ok());
  const auto report = CubeStore::VerifyPacked(fx.path);
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_TRUE(report.manifest_ok);
  EXPECT_EQ(report.version, 3u);
  // 600 rows with measures below 100: every field of this cube is narrow.
  EXPECT_EQ(report.layout.ToString(), "row-id 4 B, A-rowid 4 B, aggregates 4/4 B");
  EXPECT_EQ(report.file_size, fx.pristine.size());
  EXPECT_EQ(report.sections.size(), fx.num_entries);
  for (const auto& section : report.sections) {
    EXPECT_TRUE(section.checksum_ok) << section.kind;
  }
}

TEST(PackedCorruptionTest, ZeroByteFileIsDataLoss) {
  PackedFixture fx("zero");
  WriteBytes(fx.path, "");
  const Status s = fx.Open();
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  EXPECT_EQ(CubeStore::VerifyPacked(fx.path).status.code(),
            StatusCode::kDataLoss);
}

TEST(PackedCorruptionTest, GarbageMagicIsDataLoss) {
  PackedFixture fx("magic");
  std::string bytes = fx.pristine;
  std::memcpy(bytes.data(), "NOTACUBE", 8);
  WriteBytes(fx.path, bytes);
  const Status s = fx.Open();
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  EXPECT_NE(s.message().find("bad magic"), std::string::npos) << s.ToString();
}

TEST(PackedCorruptionTest, LegacyVersionGetsActionableError) {
  PackedFixture fx("legacy");
  std::string bytes = fx.pristine;
  const uint32_t v1 = 1;
  std::memcpy(bytes.data() + 8, &v1, 4);
  WriteBytes(fx.path, bytes);
  const Status s = fx.Open();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find("legacy"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("rebuild"), std::string::npos) << s.ToString();
}

TEST(PackedCorruptionTest, V2HeaderGetsTheRebuildMessage) {
  // A v2 file (all-8-byte records, no width word) is told apart from
  // corruption: the same legacy error as v1, naming the upgrade path.
  PackedFixture fx("v2");
  std::string bytes = fx.pristine;
  const uint32_t v2 = 2;
  std::memcpy(bytes.data() + 8, &v2, 4);
  std::memset(bytes.data() + 20, 0, 4);  // v2's zeroed reserved word
  WriteBytes(fx.path, bytes);
  for (const Status& s :
       {fx.Open(), CubeStore::VerifyPacked(fx.path).status}) {
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
    EXPECT_NE(s.message().find("legacy packed cube"), std::string::npos)
        << s.ToString();
    EXPECT_NE(s.message().find("rebuild it with `cure_tool build` to upgrade"),
              std::string::npos)
        << s.ToString();
  }
}

TEST(PackedCorruptionTest, BitFlipInWidthWordIsDataLoss) {
  PackedFixture fx("widthflip");
  for (const uint8_t mask : {0x01, 0x04, 0x80}) {
    std::string bytes = fx.pristine;
    bytes[20] = static_cast<char>(bytes[20] ^ mask);
    WriteBytes(fx.path, bytes);
    const Status s = fx.Open();
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  }
}

TEST(PackedCorruptionTest, SchemaWithOtherAggregatesIsRejected) {
  // The v3 width word records the aggregate count: a schema that does not
  // match the file cannot misread its narrow records.
  PackedFixture fx("schema");
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Linear("A", {25, 5}));
  dims.push_back(schema::Dimension::Linear("B", {16, 4}));
  dims.push_back(schema::Dimension::Flat("C", 7));
  auto other = schema::CubeSchema::Create(
      std::move(dims), 1, {{schema::AggFn::kSum, 0, "sum"}});
  ASSERT_TRUE(other.ok());
  const Status s = CubeStore::OpenPacked(fx.path, &other.value()).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

TEST(PackedCorruptionTest, UnknownFutureVersionIsDataLoss) {
  PackedFixture fx("future");
  std::string bytes = fx.pristine;
  const uint32_t v9 = 9;
  std::memcpy(bytes.data() + 8, &v9, 4);
  WriteBytes(fx.path, bytes);
  EXPECT_EQ(fx.Open().code(), StatusCode::kDataLoss);
}

TEST(PackedCorruptionTest, TruncationAtEverySectionBoundaryIsDataLoss) {
  PackedFixture fx("trunc");
  // Every section start, the manifest edges, and the last byte: a file cut
  // at any of them must be rejected, never misread.
  std::vector<uint64_t> cuts = {0, 7, kHeaderSize - 1, kHeaderSize,
                                kHeaderSize + kEntrySize,
                                fx.pristine.size() - 1};
  cuts.insert(cuts.end(), fx.section_offsets.begin(),
              fx.section_offsets.end());
  for (const uint64_t cut : cuts) {
    if (cut >= fx.pristine.size()) continue;  // trailing empty section
    WriteBytes(fx.path, fx.pristine.substr(0, cut));
    const Status s = fx.Open();
    EXPECT_FALSE(s.ok()) << "cut at " << cut;
    EXPECT_EQ(s.code(), StatusCode::kDataLoss)
        << "cut at " << cut << ": " << s.ToString();
    EXPECT_FALSE(CubeStore::VerifyPacked(fx.path).status.ok())
        << "cut at " << cut;
  }
}

TEST(PackedCorruptionTest, BitFlipInEverySectionIsDetected) {
  PackedFixture fx("flip");
  for (size_t i = 0; i < fx.section_offsets.size(); ++i) {
    // Skip empty sections (offset == next offset / end): nothing to flip.
    const uint64_t begin = fx.section_offsets[i];
    const uint64_t end = i + 1 < fx.section_offsets.size()
                             ? fx.section_offsets[i + 1]
                             : fx.pristine.size();
    if (begin >= end) continue;
    std::string bytes = fx.pristine;
    bytes[begin] = static_cast<char>(bytes[begin] ^ 0x40);
    WriteBytes(fx.path, bytes);
    const Status s = fx.Open();
    EXPECT_EQ(s.code(), StatusCode::kDataLoss)
        << "section " << i << ": " << s.ToString();
    // VerifyPacked pinpoints the damaged section and clears the rest.
    const auto report = CubeStore::VerifyPacked(fx.path);
    EXPECT_FALSE(report.status.ok()) << "section " << i;
    EXPECT_TRUE(report.manifest_ok) << "section " << i;
    ASSERT_EQ(report.sections.size(), fx.num_entries);
    for (size_t j = 0; j < report.sections.size(); ++j) {
      const bool damaged =
          fx.section_offsets[j] <= begin &&
          (j + 1 < fx.section_offsets.size()
               ? begin < fx.section_offsets[j + 1]
               : true);
      EXPECT_EQ(report.sections[j].checksum_ok, !damaged)
          << "flip in section " << i << ", report section " << j;
    }
  }
}

TEST(PackedCorruptionTest, BitFlipInHeaderIsDataLoss) {
  PackedFixture fx("hdrflip");
  for (const size_t offset : {12u, 24u, 32u, 40u}) {
    std::string bytes = fx.pristine;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x01);
    WriteBytes(fx.path, bytes);
    const Status s = fx.Open();
    EXPECT_EQ(s.code(), StatusCode::kDataLoss)
        << "header offset " << offset << ": " << s.ToString();
  }
}

TEST(PackedCorruptionTest, BitFlipInSectionTableIsDataLoss) {
  PackedFixture fx("tblflip");
  for (uint64_t i = 0; i < fx.num_entries; ++i) {
    std::string bytes = fx.pristine;
    const size_t offset = kHeaderSize + i * kEntrySize + kEntryOffsetField;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x10);
    WriteBytes(fx.path, bytes);
    EXPECT_EQ(fx.Open().code(), StatusCode::kDataLoss) << "entry " << i;
  }
}

TEST(PackedCorruptionTest, AppendedTrailingGarbageIsDataLoss) {
  PackedFixture fx("append");
  WriteBytes(fx.path, fx.pristine + std::string(64, 'J'));
  const Status s = fx.Open();
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
}

// The layout constants above must match the implementation; this guards
// against silent drift (e.g. a new header field) breaking the other tests.
TEST(PackedCorruptionTest, ManifestChecksumLayout) {
  PackedFixture fx("layout");
  EXPECT_EQ(ReadU64(fx.pristine, 0), kMagic);
  uint32_t version = 0;
  std::memcpy(&version, fx.pristine.data() + 8, 4);
  EXPECT_EQ(version, 3u);
  const uint64_t total_size = ReadU64(fx.pristine, 32);
  EXPECT_EQ(total_size, fx.pristine.size());
  // Every manifest offset lands inside the file, past the section table.
  const uint64_t manifest_end = kHeaderSize + fx.num_entries * kEntrySize;
  for (const uint64_t offset : fx.section_offsets) {
    EXPECT_GE(offset, manifest_end);
    EXPECT_LE(offset, fx.pristine.size());
  }
}

// Reopening a verified file yields a queryable cube with correct answers
// (corruption detection must not perturb the read path).
TEST(PackedCorruptionTest, VerifiedCubeAnswersCorrectly) {
  PackedFixture fx("answers", 500, 72);
  auto reopened = CubeStore::OpenPacked(fx.path, &fx.ds.schema);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // Spot-check one node against the reference aggregator through the
  // store's relations (full query coverage lives in persistence_test).
  EXPECT_GT(reopened->NumRelations(), 0u);
  EXPECT_GT(reopened->TotalBytes(), 0u);
}

// A TT row-id past the end of the fact table, persisted in a packed file
// whose checksums are valid (so only the query can catch it), fails the
// node's query with OutOfRange at block sizes 1, 7 and 1024, whether the
// fact table is in memory, file-backed, cached or not.
TEST(PackedCorruptionTest, TtRowIdPastFactTableIsOutOfRange) {
  const gen::Dataset ds = MakeHier(600, 73);
  const test::ScopedTempDir tmp("corrupt");
  const std::string fact_path = tmp.File("ttfact.bin");
  const std::string pack_path = tmp.File("ttpack.bin");
  auto rel = storage::Relation::CreateFile(fact_path, ds.table.RecordSize());
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  ASSERT_TRUE(ds.table.WriteTo(&rel.value()).ok());
  ASSERT_TRUE(rel->Seal().ok());

  for (const bool file_backed : {false, true}) {
    SCOPED_TRACE(file_backed ? "file-backed fact table" : "in-memory fact table");
    FactInput input;
    if (file_backed) {
      input.relation = &rel.value();
    } else {
      input.table = &ds.table;
    }
    auto cube = BuildCure(ds.schema, input, CureOptions{});
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    CubeStore& store = (*cube)->mutable_store();
    const schema::NodeIdCodec& codec = store.codec();
    schema::NodeId victim = codec.num_nodes();
    for (schema::NodeId id = 0; id < codec.num_nodes(); ++id) {
      const CubeStore::NodeData* node = store.node(id);
      if (node != nullptr && node->has_tt && node->tt.num_rows() > 2) {
        victim = id;
        break;
      }
    }
    ASSERT_LT(victim, codec.num_nodes());
    CubeStore::NodeData* node = store.mutable_node(victim);
    const uint64_t bad_row = ds.table.num_rows() + 5;
    storage::Relation tt = storage::Relation::Memory(store.TtRecordSize());
    {
      storage::Relation::Scanner scan(node->tt);
      while (const uint8_t* rec = scan.Next()) {
        std::vector<uint8_t> copy(rec, rec + store.TtRecordSize());
        if (scan.row() == node->tt.num_rows() / 2) {
          store.layout().PutRowId(copy.data(),
                                  cube::MakeRowId(cube::kSourceFact, bad_row));
        }
        ASSERT_TRUE(tt.Append(copy.data()).ok());
      }
      ASSERT_TRUE(scan.status().ok());
    }
    node->tt = std::move(tt);
    if (file_backed) {
      ASSERT_TRUE((*cube)->SpillStoreToDisk(pack_path).ok());
      const auto report = CubeStore::VerifyPacked(pack_path);
      EXPECT_TRUE(report.status.ok()) << report.status.ToString();
    }
    for (const double fraction : {0.0, 1.0}) {
      auto engine = query::CureQueryEngine::Create(cube->get(), fraction);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      for (const size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
        (*engine)->set_batch_rows(batch);
        query::ResultSink sink;
        const Status s = (*engine)->QueryNode(victim, &sink);
        EXPECT_EQ(s.code(), StatusCode::kOutOfRange)
            << "fraction " << fraction << " batch_rows " << batch << ": "
            << s.ToString();
      }
    }
    cube->reset();
  }
  (void)storage::RemoveFile(pack_path);
  ASSERT_TRUE(storage::RemoveFile(fact_path).ok());
}

}  // namespace
}  // namespace cure
