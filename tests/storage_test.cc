#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "storage/bitmap.h"
#include "storage/buffer_cache.h"
#include "storage/file_io.h"
#include "storage/relation.h"
#include "storage/row_block.h"
#include "temp_dir.h"

namespace cure {
namespace storage {
namespace {

TEST(FileIoTest, WriteThenReadBack) {
  const test::ScopedTempDir tmp("storage_test");
  const std::string path = tmp.File("rw.bin");
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
  const test::ScopedTempDir tmp("storage_test");
  const std::string path = tmp.File("short.bin");
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
  const test::ScopedTempDir tmp("storage_test");
  const std::string path = tmp.File("blocks.bin");
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
  const test::ScopedTempDir tmp("storage_test");
  const std::string path = tmp.File("unsealed.bin");
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
  const test::ScopedTempDir tmp("storage_test");
  const std::string path = tmp.File("rel.bin");
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
  const test::ScopedTempDir tmp("storage_test");
  const std::string path = tmp.File("reopen.bin");
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
  const test::ScopedTempDir tmp("storage_test");
  const std::string path = tmp.File("mismatch.bin");
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
  const test::ScopedTempDir tmp("storage_test");
  const std::string path = tmp.File("cache.bin");
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

// ReadRows returns, in the caller's order, the bytes of one Read per row —
// duplicates, reversed order and far-apart rows included — and reads each
// run of nearby rows of a file with one pread.
TEST(RelationTest, ReadRowsMatchesReadAndCoalesces) {
  const test::ScopedTempDir tmp("storage_test");
  const std::string path = tmp.File("readrows.bin");
  Result<Relation> file = Relation::CreateFile(path, sizeof(Rec));
  ASSERT_TRUE(file.ok());
  Relation memory = Relation::Memory(sizeof(Rec));
  constexpr uint64_t kRows = 40000;  // 640 KB: longer than one run
  for (uint64_t i = 0; i < kRows; ++i) {
    Rec r{i * 7, static_cast<uint32_t>(i), 0};
    ASSERT_TRUE(file->Append(&r).ok());
    ASSERT_TRUE(memory.Append(&r).ok());
  }
  ASSERT_TRUE(file->Seal().ok());
  const std::vector<uint64_t> rows = {39999, 5, 6, 5, 200, 0, 20000, 39999, 7};
  for (const Relation* rel : {&memory, &file.value()}) {
    std::vector<Rec> batched(rows.size());
    ASSERT_TRUE(rel->ReadRows(rows.data(), rows.size(),
                              reinterpret_cast<uint8_t*>(batched.data()))
                    .ok());
    for (size_t i = 0; i < rows.size(); ++i) {
      Rec single;
      ASSERT_TRUE(rel->Read(rows[i], &single).ok());
      EXPECT_EQ(std::memcmp(&single, &batched[i], sizeof(Rec)), 0) << i;
    }
  }

  // Count the preads: {0, 5, 6, 7, 200} lie within 4 KiB of each other
  // (one read); 20000 and 39999 are far from everything (one read each).
  FaultPlan count;
  count.op = "read";
  count.target_substr = path;
  count.fail_index = UINT64_MAX;
  auto preads = [&](const std::vector<uint64_t>& request) {
    ScopedFaultInjection counting(FaultInjector::Disk(), count);
    std::vector<Rec> out(request.size());
    EXPECT_TRUE(file->ReadRows(request.data(), request.size(),
                               reinterpret_cast<uint8_t*>(out.data()))
                    .ok());
    return counting.ops_matched();
  };
  EXPECT_EQ(preads(rows), 3u);
  // A dense range longer than one run (256 KiB) splits into runs.
  std::vector<uint64_t> dense(kRows);
  std::iota(dense.begin(), dense.end(), uint64_t{0});
  EXPECT_EQ(preads(dense), (kRows * sizeof(Rec) + kCoalesceRunBytes - 1) /
                               kCoalesceRunBytes);

  // Every row is range-checked, on both backings.
  const std::vector<uint64_t> bad = {1, kRows};
  std::vector<Rec> out(bad.size());
  for (const Relation* rel : {&memory, &file.value()}) {
    const Status s = rel->ReadRows(bad.data(), bad.size(),
                                   reinterpret_cast<uint8_t*>(out.data()));
    EXPECT_EQ(s.code(), StatusCode::kOutOfRange) << s.ToString();
  }
  ASSERT_TRUE(RemoveFile(path).ok());
}

// ---- Differential checks of the row-id ordering and dereference ----

// The preads the coalescing rule of Relation::ReadRows predicts for
// `rows` of `width`-byte records, worked out from a sorted copy.
uint64_t PredictedReads(std::vector<uint64_t> rows, uint64_t width) {
  std::sort(rows.begin(), rows.end());
  uint64_t reads = 0;
  size_t i = 0;
  while (i < rows.size()) {
    const uint64_t first = rows[i];
    uint64_t last = first;
    for (++i; i < rows.size(); ++i) {
      const bool near = rows[i] - last <= kCoalesceGapBytes / width + 1;
      const bool fits = (rows[i] - first + 1) * width <= kCoalesceRunBytes;
      if (!near || !fits) break;
      last = rows[i];
    }
    ++reads;
  }
  return reads;
}

// The "read" ops of `path` that `fn` issues.
template <typename Fn>
uint64_t CountReads(const std::string& path, Fn fn) {
  FaultPlan count;
  count.op = "read";
  count.target_substr = path;
  count.fail_index = UINT64_MAX;
  ScopedFaultInjection counting(FaultInjector::Disk(), count);
  fn();
  return counting.ops_matched();
}

// `n` row-ids below `num_rows` in one of the request shapes the ordering
// must handle. "dups" draws from few distinct rows, so most repeat.
std::vector<uint64_t> RowSet(const std::string& shape, size_t n,
                             uint64_t num_rows, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> rows(n);
  const uint64_t domain = shape == "dups" ? std::min<uint64_t>(num_rows, 37)
                                          : num_rows;
  for (uint64_t& row : rows) row = rng() % domain;
  if (shape == "sorted") std::sort(rows.begin(), rows.end());
  if (shape == "reversed") std::sort(rows.rbegin(), rows.rend());
  if (shape == "equal") std::fill(rows.begin(), rows.end(), num_rows / 2);
  return rows;
}

const char* const kShapes[] = {"random", "sorted", "reversed", "equal",
                               "dups"};
const size_t kSizes[] = {0, 1, 2, 1023, 1024, 16384, 16385};

// Record of row `r` in the differential tests: distinct for every row.
uint64_t RowValue(uint64_t r) { return (r + 1) * 0x9E3779B97F4A7C15ull; }

// For every shape and size, ReadRows returns one Read per row, in the
// caller's order, on both backings, and a file-backed request issues
// exactly the preads the coalescing rule predicts.
TEST(RelationTest, ReadRowsMatchesPerRowReadForEveryShape) {
  const test::ScopedTempDir tmp("storage_test");
  const std::string path = tmp.File("shapes.bin");
  Result<Relation> file = Relation::CreateFile(path, sizeof(Rec));
  ASSERT_TRUE(file.ok());
  Relation memory = Relation::Memory(sizeof(Rec));
  constexpr uint64_t kRows = 247860;  // the APB-1 density-4 fact table
  for (uint64_t i = 0; i < kRows; ++i) {
    Rec r{RowValue(i), static_cast<uint32_t>(i), 0};
    ASSERT_TRUE(file->Append(&r).ok());
    ASSERT_TRUE(memory.Append(&r).ok());
  }
  ASSERT_TRUE(file->Seal().ok());
  for (const char* shape : kShapes) {
    for (const size_t n : kSizes) {
      const std::vector<uint64_t> rows = RowSet(shape, n, kRows, 7 * n + 1);
      std::vector<Rec> expected(n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(memory.Read(rows[i], &expected[i]).ok());
      }
      for (const Relation* rel : {&memory, &file.value()}) {
        std::vector<Rec> got(n);
        uint64_t reads = 0;
        if (rel->memory_backed()) {
          ASSERT_TRUE(rel->ReadRows(rows.data(), n,
                                    reinterpret_cast<uint8_t*>(got.data()))
                          .ok());
        } else {
          reads = CountReads(path, [&] {
            EXPECT_TRUE(rel->ReadRows(rows.data(), n,
                                      reinterpret_cast<uint8_t*>(got.data()))
                            .ok());
          });
          EXPECT_EQ(reads, PredictedReads(rows, sizeof(Rec)))
              << shape << " n=" << n;
        }
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::memcmp(&got[i], &expected[i], sizeof(Rec)), 0)
              << shape << " n=" << n << " at " << i
              << (rel->memory_backed() ? " memory" : " file");
        }
      }
    }
  }
}

// Rows at and beyond 2^32 of a sparse file, read through a file view: the
// keys span 33 bits, so the ordering takes several radix passes.
TEST(RelationTest, ReadRowsOrdersRowsBeyondFourBillion) {
  const test::ScopedTempDir tmp("storage_test");
  const std::string path = tmp.File("sparse.bin");
  constexpr uint64_t kWidth = sizeof(uint64_t);
  constexpr uint64_t kHigh = uint64_t{1} << 32;  // first row of the far region
  constexpr uint64_t kRegion = 1 << 15;          // rows written per region
  // Rows [0, kRegion) and [kHigh, kHigh + kRegion) hold data; the hole
  // between them reads as zeros and is never requested.
  auto write_region = [&](uint64_t first, FileWriter::OpenMode mode) {
    FileWriter writer;
    ASSERT_TRUE(writer.Open(path, 1 << 20, mode).ok());
    for (uint64_t r = first; r < first + kRegion; ++r) {
      const uint64_t v = RowValue(r);
      ASSERT_TRUE(writer.Append(&v, kWidth).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  };
  write_region(0, FileWriter::OpenMode::kTruncate);
  ASSERT_TRUE(TruncateFile(path, kHigh * kWidth).ok());
  write_region(kHigh, FileWriter::OpenMode::kAppend);
  auto reader = std::make_shared<FileReader>();
  ASSERT_TRUE(reader->Open(path).ok());
  ASSERT_EQ(reader->file_size(), (kHigh + kRegion) * kWidth);
  const Relation view = Relation::FileView(reader, 0, kHigh + kRegion, kWidth);

  std::mt19937_64 rng(2024);
  for (const size_t n : kSizes) {
    for (const bool dups : {false, true}) {
      std::vector<uint64_t> rows(n);
      for (uint64_t& row : rows) {
        const uint64_t offset = rng() % (dups ? 9 : kRegion);
        row = (rng() & 1) ? kHigh + offset : offset;
      }
      std::vector<uint64_t> got(n);
      const uint64_t reads = CountReads(path, [&] {
        EXPECT_TRUE(view.ReadRows(rows.data(), n,
                                  reinterpret_cast<uint8_t*>(got.data()))
                        .ok());
      });
      EXPECT_EQ(reads, PredictedReads(rows, kWidth)) << "n=" << n;
      for (size_t i = 0; i < n; ++i) {
        uint64_t single = 0;
        ASSERT_TRUE(view.Read(rows[i], &single).ok());
        ASSERT_EQ(single, RowValue(rows[i])) << "n=" << n << " at " << i;
        ASSERT_EQ(got[i], single)
            << "n=" << n << " dups=" << dups << " at " << i;
      }
    }
  }
}

// BufferCache::ReadRows counts hits and misses per row, as Read does.
TEST(BufferCacheTest, ReadRowsCountsEveryRow) {
  const test::ScopedTempDir tmp("storage_test");
  const std::string path = tmp.File("cache_rows.bin");
  Result<Relation> rel = Relation::CreateFile(path, sizeof(Rec));
  ASSERT_TRUE(rel.ok());
  for (uint64_t i = 0; i < 1000; ++i) {
    Rec r{i, 0, 0};
    ASSERT_TRUE(rel->Append(&r).ok());
  }
  ASSERT_TRUE(rel->Seal().ok());
  BufferCache cache;
  ASSERT_TRUE(cache.Init(&rel.value(), 0.5).ok());
  const std::vector<uint64_t> rows = {901, 10, 900, 499, 500, 901};
  std::vector<Rec> out(rows.size());
  ASSERT_TRUE(cache.ReadRows(rows.data(), rows.size(),
                             reinterpret_cast<uint8_t*>(out.data()))
                  .ok());
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(out[i].key, rows[i]);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 4u);
  ASSERT_TRUE(RemoveFile(path).ok());
}

// A BufferCache request mixing pinned-prefix hits and misses returns one
// Read per row, counts every row, and reads the misses alone, coalesced.
TEST(BufferCacheTest, ReadRowsMixesPinnedAndMissedRows) {
  const test::ScopedTempDir tmp("storage_test");
  const std::string path = tmp.File("cache_mixed.bin");
  Result<Relation> rel = Relation::CreateFile(path, sizeof(Rec));
  ASSERT_TRUE(rel.ok());
  constexpr uint64_t kRows = 60000;
  for (uint64_t i = 0; i < kRows; ++i) {
    Rec r{RowValue(i), static_cast<uint32_t>(i), 0};
    ASSERT_TRUE(rel->Append(&r).ok());
  }
  ASSERT_TRUE(rel->Seal().ok());
  BufferCache cache;
  ASSERT_TRUE(cache.Init(&rel.value(), 0.25).ok());
  ASSERT_EQ(cache.cached_rows(), kRows / 4);
  uint64_t hits = 0, misses = 0;
  for (const char* shape : kShapes) {
    for (const size_t n : kSizes) {
      const std::vector<uint64_t> rows = RowSet(shape, n, kRows, 3 * n + 5);
      std::vector<uint64_t> missed;
      for (const uint64_t row : rows) {
        if (row >= cache.cached_rows()) missed.push_back(row);
      }
      std::vector<Rec> got(n);
      const uint64_t reads = CountReads(path, [&] {
        EXPECT_TRUE(cache.ReadRows(rows.data(), n,
                                   reinterpret_cast<uint8_t*>(got.data()))
                        .ok());
      });
      EXPECT_EQ(reads, PredictedReads(missed, sizeof(Rec)))
          << shape << " n=" << n;
      hits += n - missed.size();
      misses += missed.size();
      EXPECT_EQ(cache.hits(), hits) << shape << " n=" << n;
      EXPECT_EQ(cache.misses(), misses) << shape << " n=" << n;
      for (size_t i = 0; i < n; ++i) {
        Rec single;
        ASSERT_TRUE(rel->Read(rows[i], &single).ok());
        ASSERT_EQ(std::memcmp(&got[i], &single, sizeof(Rec)), 0)
            << shape << " n=" << n << " at " << i;
      }
    }
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
}

TEST(DirHelpersTest, EnsureAndRemoveTree) {
  const test::ScopedTempDir tmp("storage_test");
  const std::string dir = tmp.File("tree/sub/dir");
  ASSERT_TRUE(EnsureDir(dir).ok());
  EXPECT_TRUE(std::filesystem::exists(dir));
  ASSERT_TRUE(RemoveDirTree(tmp.File("tree")).ok());
  EXPECT_FALSE(std::filesystem::exists(tmp.File("tree")));
}

}  // namespace
}  // namespace storage
}  // namespace cure
