// Robustness tests: malformed inputs must fail cleanly (Status, never a
// crash), and randomized round-trips must be lossless.

#include <gtest/gtest.h>

#include "cube/cube_store.h"
#include "etl/csv.h"
#include "etl/dictionary.h"
#include "etl/schema_io.h"
#include "gen/random.h"
#include "storage/file_io.h"
#include "temp_dir.h"

namespace cure {
namespace {

TEST(CsvFuzzTest, RandomQuotedFieldsRoundTrip) {
  gen::Rng rng(2024);
  const std::string alphabet = "ab,\"\n x";
  for (int iter = 0; iter < 200; ++iter) {
    // Build a random row of random fields, emit as CSV, parse back.
    const int num_fields = 1 + static_cast<int>(rng.NextRange(5));
    std::vector<std::string> fields(num_fields);
    std::string line;
    for (int f = 0; f < num_fields; ++f) {
      const int len = static_cast<int>(rng.NextRange(8));
      for (int i = 0; i < len; ++i) {
        char c = alphabet[rng.NextRange(alphabet.size())];
        if (c == '\n') c = 'n';  // embedded newlines unsupported by design
        fields[f] += c;
      }
      // Quote every field (always legal) with "" escapes.
      std::string quoted = "\"";
      for (char c : fields[f]) {
        if (c == '"') quoted += "\"\"";
        else quoted += c;
      }
      quoted += "\"";
      if (f > 0) line += ",";
      line += quoted;
    }
    auto parsed = etl::ParseCsvLine(line);
    ASSERT_TRUE(parsed.ok()) << "iter " << iter << ": " << line;
    EXPECT_EQ(*parsed, fields) << "iter " << iter;
  }
}

TEST(CsvFuzzTest, RandomGarbageNeverCrashes) {
  gen::Rng rng(9);
  const std::string alphabet = "a,\"\r\n";
  for (int iter = 0; iter < 500; ++iter) {
    std::string doc;
    const int len = static_cast<int>(rng.NextRange(64));
    for (int i = 0; i < len; ++i) doc += alphabet[rng.NextRange(alphabet.size())];
    // Must either parse or return a Status — no crash, no UB.
    auto result = etl::ParseCsv(doc);
    (void)result;
  }
}

TEST(PackedCubeTest, TruncatedFileFailsCleanly) {
  // Write a valid cube, truncate it at various points, reopen.
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Flat("A", 4));
  auto schema = schema::CubeSchema::Create(std::move(dims), 1,
                                           {{schema::AggFn::kSum, 0, "s"}});
  ASSERT_TRUE(schema.ok());
  cube::CubeStore store(&schema.value(), {});
  const int64_t aggrs[1] = {5};
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.WriteNT(0, cube::MakeRowId(0, i), aggrs, nullptr).ok());
  }
  const test::ScopedTempDir tmp("robust");
  const std::string path = tmp.File("cube.bin");
  ASSERT_TRUE(store.PersistPacked(path).ok());

  storage::FileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  const uint64_t full = reader.file_size();
  ASSERT_TRUE(reader.Close().ok());
  std::string content;
  {
    auto data = etl::ReadFileToString(path);
    ASSERT_TRUE(data.ok());
    content = std::move(data).value();
  }
  for (uint64_t cut : {uint64_t{0}, uint64_t{4}, full / 2}) {
    const std::string trunc_path = tmp.File("trunc.bin");
    ASSERT_TRUE(etl::WriteStringToFile(trunc_path, content.substr(0, cut)).ok());
    auto reopened = cube::CubeStore::OpenPacked(trunc_path, &schema.value());
    if (reopened.ok()) {
      // A cut inside the data area can open but must fail on read, not crash.
      const cube::CubeStore::NodeData* node = reopened->node(0);
      if (node != nullptr && node->has_nt) {
        uint8_t rec[64];
        (void)node->nt.Read(node->nt.num_rows() - 1, rec);
      }
    }
    ASSERT_TRUE(storage::RemoveFile(trunc_path).ok());
  }
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

TEST(PackedCubeTest, EmptyStoreRoundTrips) {
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Flat("A", 4));
  auto schema = schema::CubeSchema::Create(std::move(dims), 1,
                                           {{schema::AggFn::kSum, 0, "s"}});
  ASSERT_TRUE(schema.ok());
  cube::CubeStore store(&schema.value(), {});
  const test::ScopedTempDir tmp("robust");
  const std::string path = tmp.File("empty.bin");
  ASSERT_TRUE(store.PersistPacked(path).ok());
  auto reopened = cube::CubeStore::OpenPacked(path, &schema.value());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->TotalBytes(), 0u);
  EXPECT_EQ(reopened->NumRelations(), 0u);
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

TEST(SchemaIoFuzzTest, MutatedDocumentsNeverCrash) {
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Linear("A", {10, 2}));
  auto schema = schema::CubeSchema::Create(std::move(dims), 1,
                                           {{schema::AggFn::kSum, 0, "s"}});
  ASSERT_TRUE(schema.ok());
  const std::string good = etl::SerializeSchema(*schema);
  gen::Rng rng(5);
  for (int iter = 0; iter < 200; ++iter) {
    std::string bad = good;
    // Random single-character mutation.
    const size_t pos = rng.NextRange(bad.size());
    bad[pos] = static_cast<char>('0' + rng.NextRange(75));
    auto result = etl::DeserializeSchema(bad);
    if (result.ok()) {
      // A surviving mutation must still be a structurally valid schema.
      EXPECT_GE(result->num_dims(), 1);
    }
  }
}

TEST(DictionaryEdgeTest, EmptyAndUnterminated) {
  auto empty = etl::Dictionary::Deserialize("");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->size(), 0u);
  EXPECT_FALSE(etl::Dictionary::Deserialize("no-newline").ok());
  EXPECT_FALSE(etl::Dictionary::Deserialize("dup\ndup\n").ok());
}

}  // namespace
}  // namespace cure
