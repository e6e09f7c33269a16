#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <numeric>

#include "storage/bitmap.h"
#include "storage/buffer_cache.h"
#include "storage/file_io.h"
#include "storage/relation.h"
#include "storage/row_block.h"

namespace cure {
namespace storage {
namespace {

std::string TempPath(const std::string& name) {
  return std::string("/tmp/cure_storage_test_") + name;
}

TEST(FileIoTest, WriteThenReadBack) {
  const std::string path = TempPath("rw.bin");
  FileWriter writer;
  ASSERT_TRUE(writer.Open(path, /*buffer_bytes=*/16).ok());
  const char data[] = "hello cure storage layer";
  ASSERT_TRUE(writer.Append(data, sizeof(data)).ok());
  ASSERT_TRUE(writer.Close().ok());

  FileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(reader.file_size(), sizeof(data));
  char buf[sizeof(data)];
  ASSERT_TRUE(reader.ReadAt(0, buf, sizeof(data)).ok());
  EXPECT_EQ(std::memcmp(buf, data, sizeof(data)), 0);
  char mid[5];
  ASSERT_TRUE(reader.ReadAt(6, mid, 4).ok());
  EXPECT_EQ(std::string(mid, 4), "cure");
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(FileIoTest, ReadPastEndFails) {
  const std::string path = TempPath("short.bin");
  FileWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Append("abc", 3).ok());
  ASSERT_TRUE(writer.Close().ok());
  FileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  char buf[8];
  EXPECT_FALSE(reader.ReadAt(0, buf, 8).ok());
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(FileIoTest, OpenMissingFileFails) {
  FileReader reader;
  EXPECT_FALSE(reader.Open("/tmp/cure_definitely_missing_file.bin").ok());
}

struct Rec {
  uint64_t key;
  uint32_t payload;
  uint32_t pad = 0;
};

TEST(RelationTest, MemoryAppendReadScan) {
  Relation rel = Relation::Memory(sizeof(Rec));
  for (uint64_t i = 0; i < 100; ++i) {
    Rec r{i * 3, static_cast<uint32_t>(i), 0};
    ASSERT_TRUE(rel.Append(&r).ok());
  }
  EXPECT_EQ(rel.num_rows(), 100u);
  EXPECT_EQ(rel.bytes(), 100 * sizeof(Rec));
  Rec out;
  ASSERT_TRUE(rel.Read(42, &out).ok());
  EXPECT_EQ(out.key, 42u * 3);
  EXPECT_FALSE(rel.Read(100, &out).ok());

  Relation::Scanner scan(rel);
  uint64_t i = 0;
  while (const uint8_t* rec = scan.Next()) {
    Rec r;
    std::memcpy(&r, rec, sizeof(Rec));
    EXPECT_EQ(r.key, i * 3);
    EXPECT_EQ(scan.row(), i);
    ++i;
  }
  EXPECT_EQ(i, 100u);
}

TEST(RelationTest, ScannerRowBeforeFirstNext) {
  // Regression: row() used to compute row_ - 1 before the first Next() and
  // underflow to UINT64_MAX.
  Relation rel = Relation::Memory(sizeof(Rec));
  Rec r{1, 2, 0};
  ASSERT_TRUE(rel.Append(&r).ok());
  Relation::Scanner scan(rel);
  EXPECT_EQ(scan.row(), 0u);
  ASSERT_NE(scan.Next(), nullptr);
  EXPECT_EQ(scan.row(), 0u);
  EXPECT_EQ(scan.Next(), nullptr);
}

TEST(RowBlockTest, MemoryBlockScannerIsZeroCopy) {
  Relation rel = Relation::Memory(sizeof(Rec));
  for (uint64_t i = 0; i < 100; ++i) {
    Rec r{i * 3, static_cast<uint32_t>(i), 0};
    ASSERT_TRUE(rel.Append(&r).ok());
  }
  Relation::BlockScanner scan(rel, /*block_rows=*/32);
  RowBlock block;
  uint64_t row = 0;
  std::vector<size_t> sizes;
  while (scan.Next(&block)) {
    EXPECT_EQ(block.first_row, row);
    EXPECT_EQ(block.record_size, sizeof(Rec));
    sizes.push_back(block.rows);
    for (size_t i = 0; i < block.rows; ++i) {
      Rec r;
      std::memcpy(&r, block.record(i), sizeof(Rec));
      EXPECT_EQ(r.key, (row + i) * 3);
    }
    row += block.rows;
  }
  ASSERT_TRUE(scan.status().ok());
  EXPECT_EQ(row, 100u);
  EXPECT_EQ(sizes, (std::vector<size_t>{32, 32, 32, 4}));
}

TEST(RowBlockTest, FileBlockScannerMatchesScalarScan) {
  const std::string path = TempPath("blocks.bin");
  Result<Relation> rel = Relation::CreateFile(path, sizeof(Rec));
  ASSERT_TRUE(rel.ok());
  const uint64_t n = 10000;
  for (uint64_t i = 0; i < n; ++i) {
    Rec r{i * 7 + 1, static_cast<uint32_t>(i % 13), 0};
    ASSERT_TRUE(rel->Append(&r).ok());
  }
  ASSERT_TRUE(rel->Seal().ok());

  // Odd block size: exercises partial tail blocks.
  Relation::BlockScanner scan(rel.value(), /*block_rows=*/257);
  RowBlock block;
  uint64_t row = 0;
  while (scan.Next(&block)) {
    EXPECT_EQ(block.first_row, row);
    for (size_t i = 0; i < block.rows; ++i) {
      Rec r;
      std::memcpy(&r, block.record(i), sizeof(Rec));
      ASSERT_EQ(r.key, (row + i) * 7 + 1);
    }
    row += block.rows;
  }
  ASSERT_TRUE(scan.status().ok());
  EXPECT_EQ(row, n);
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(RowBlockTest, BlockScannerRejectsUnsealedFile) {
  const std::string path = TempPath("unsealed.bin");
  Result<Relation> rel = Relation::CreateFile(path, sizeof(Rec));
  ASSERT_TRUE(rel.ok());
  Rec r{1, 1, 0};
  ASSERT_TRUE(rel->Append(&r).ok());
  Relation::BlockScanner scan(rel.value(), 8);
  RowBlock block;
  EXPECT_FALSE(scan.Next(&block));
  EXPECT_FALSE(scan.status().ok());
  ASSERT_TRUE(rel->Seal().ok());
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(RowBlockTest, ColumnViewGathersContiguousSlices) {
  Relation rel = Relation::Memory(sizeof(Rec));
  for (uint64_t i = 0; i < 50; ++i) {
    Rec r{i + 1000, static_cast<uint32_t>(i * 5), 0};
    ASSERT_TRUE(rel.Append(&r).ok());
  }
  Relation::BlockScanner scan(rel, /*block_rows=*/16);
  RowBlock block;
  ColumnView view;
  uint64_t row = 0;
  while (scan.Next(&block)) {
    const uint64_t* keys = view.GatherU64(block, offsetof(Rec, key));
    const uint32_t* payloads = view.GatherU32(block, offsetof(Rec, payload));
    for (size_t i = 0; i < block.rows; ++i) {
      EXPECT_EQ(keys[i], row + i + 1000);
      EXPECT_EQ(payloads[i], (row + i) * 5);
    }
    row += block.rows;
  }
  ASSERT_TRUE(scan.status().ok());
  EXPECT_EQ(row, 50u);
}

TEST(RowBlockTest, ZeroBlockRowsClampsToOne) {
  Relation rel = Relation::Memory(sizeof(Rec));
  for (uint64_t i = 0; i < 5; ++i) {
    Rec r{i, 0, 0};
    ASSERT_TRUE(rel.Append(&r).ok());
  }
  Relation::BlockScanner scan(rel, 0);
  RowBlock block;
  uint64_t blocks = 0;
  while (scan.Next(&block)) {
    EXPECT_EQ(block.rows, 1u);
    ++blocks;
  }
  EXPECT_EQ(blocks, 5u);
}

TEST(RelationTest, FileBackedAppendSealReadScan) {
  const std::string path = TempPath("rel.bin");
  Result<Relation> rel = Relation::CreateFile(path, sizeof(Rec));
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  for (uint64_t i = 0; i < 10000; ++i) {
    Rec r{i, static_cast<uint32_t>(i % 7), 0};
    ASSERT_TRUE(rel->Append(&r).ok());
  }
  ASSERT_TRUE(rel->Seal().ok());
  EXPECT_EQ(rel->num_rows(), 10000u);
  Rec out;
  ASSERT_TRUE(rel->Read(9999, &out).ok());
  EXPECT_EQ(out.key, 9999u);

  Relation::Scanner scan(rel.value(), /*buffer_records=*/64);
  uint64_t i = 0;
  while (const uint8_t* rec = scan.Next()) {
    Rec r;
    std::memcpy(&r, rec, sizeof(Rec));
    ASSERT_EQ(r.key, i);
    ++i;
  }
  EXPECT_EQ(i, 10000u);
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(RelationTest, ReopenExistingFile) {
  const std::string path = TempPath("reopen.bin");
  {
    Result<Relation> rel = Relation::CreateFile(path, sizeof(Rec));
    ASSERT_TRUE(rel.ok());
    Rec r{77, 1, 0};
    ASSERT_TRUE(rel->Append(&r).ok());
    ASSERT_TRUE(rel->Seal().ok());
  }
  Result<Relation> rel = Relation::OpenFile(path, sizeof(Rec));
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->num_rows(), 1u);
  Rec out;
  ASSERT_TRUE(rel->Read(0, &out).ok());
  EXPECT_EQ(out.key, 77u);
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(RelationTest, OpenFileSizeMismatchFails) {
  const std::string path = TempPath("mismatch.bin");
  FileWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  ASSERT_TRUE(w.Append("12345", 5).ok());
  ASSERT_TRUE(w.Close().ok());
  EXPECT_FALSE(Relation::OpenFile(path, 4).ok());
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(BitmapTest, SetTestCount) {
  Bitmap bm(1000);
  EXPECT_EQ(bm.Count(), 0u);
  bm.Set(0);
  bm.Set(63);
  bm.Set(64);
  bm.Set(999);
  EXPECT_TRUE(bm.Test(0));
  EXPECT_TRUE(bm.Test(63));
  EXPECT_TRUE(bm.Test(64));
  EXPECT_TRUE(bm.Test(999));
  EXPECT_FALSE(bm.Test(1));
  EXPECT_FALSE(bm.Test(998));
  EXPECT_EQ(bm.Count(), 4u);
  EXPECT_EQ(bm.SerializedBytes(), ((1000 + 63) / 64) * 8u);
}

TEST(BitmapTest, ForEachIteratesInOrder) {
  Bitmap bm(500);
  std::vector<uint64_t> expected = {3, 64, 65, 127, 128, 400, 499};
  for (uint64_t v : expected) bm.Set(v);
  std::vector<uint64_t> got;
  bm.ForEach([&](uint64_t v) { got.push_back(v); });
  EXPECT_EQ(got, expected);
}

TEST(BufferCacheTest, PinnedPrefixServesHits) {
  const std::string path = TempPath("cache.bin");
  Result<Relation> rel = Relation::CreateFile(path, sizeof(Rec));
  ASSERT_TRUE(rel.ok());
  for (uint64_t i = 0; i < 1000; ++i) {
    Rec r{i, 0, 0};
    ASSERT_TRUE(rel->Append(&r).ok());
  }
  ASSERT_TRUE(rel->Seal().ok());

  BufferCache cache;
  ASSERT_TRUE(cache.Init(&rel.value(), 0.5).ok());
  EXPECT_EQ(cache.cached_rows(), 500u);
  Rec out;
  ASSERT_TRUE(cache.Read(10, &out).ok());
  EXPECT_EQ(out.key, 10u);
  ASSERT_TRUE(cache.Read(900, &out).ok());
  EXPECT_EQ(out.key, 900u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(BufferCacheTest, MemoryRelationAlwaysHits) {
  Relation rel = Relation::Memory(sizeof(Rec));
  Rec r{5, 0, 0};
  ASSERT_TRUE(rel.Append(&r).ok());
  BufferCache cache;
  ASSERT_TRUE(cache.Init(&rel, 0.0).ok());
  Rec out;
  ASSERT_TRUE(cache.Read(0, &out).ok());
  EXPECT_EQ(out.key, 5u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(DirHelpersTest, EnsureAndRemoveTree) {
  const std::string dir = TempPath("tree/sub/dir");
  ASSERT_TRUE(EnsureDir(dir).ok());
  EXPECT_TRUE(std::filesystem::exists(dir));
  ASSERT_TRUE(RemoveDirTree(TempPath("tree")).ok());
  EXPECT_FALSE(std::filesystem::exists(TempPath("tree")));
}

}  // namespace
}  // namespace storage
}  // namespace cure
