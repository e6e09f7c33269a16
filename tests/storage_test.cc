#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "engine/cure.h"
#include "gen/datasets.h"
#include "query/node_query.h"
#include "query/reference.h"
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
// duplicates, reversed order and far-apart rows included — and a non-empty
// request of a file is one read op, however far apart its rows lie.
TEST(RelationTest, ReadRowsMatchesReadInOneView) {
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

  // Count the read ops: one view of the span covers every row, and an
  // empty request takes none.
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
  EXPECT_EQ(preads(rows), 1u);
  std::vector<uint64_t> dense(kRows);
  std::iota(dense.begin(), dense.end(), uint64_t{0});
  EXPECT_EQ(preads(dense), 1u);
  EXPECT_EQ(preads({}), 0u);

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

// ---- Differential checks of the row-id dereference ----

// The read ops a gather of `n` rows takes: one view of the span, none for
// an empty request.
uint64_t SpanReads(size_t n) { return n == 0 ? 0 : 1; }

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

// `n` row-ids below `num_rows` in one of the request shapes the gather
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
// caller's order, on both backings, and a file-backed request takes one
// read op (none when empty).
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
          EXPECT_EQ(reads, SpanReads(n)) << shape << " n=" << n;
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
// row offsets span 33 bits, and the span reaches past the hole.
TEST(RelationTest, ReadRowsGathersRowsBeyondFourBillion) {
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
      EXPECT_EQ(reads, SpanReads(n)) << "n=" << n;
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
// Read per row, counts every row, and takes one read op (none when empty).
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
      EXPECT_EQ(reads, SpanReads(n)) << shape << " n=" << n;
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

// ---- The mapped read path of sealed file relations ----

// Every read path of `file` returns the bytes of `memory`, which holds the
// same records: Read, ReadRows (unsorted, with duplicates), Scanner and
// BlockScanner at several block sizes.
void ExpectSameRecords(const Relation& file, const Relation& memory) {
  ASSERT_EQ(file.num_rows(), memory.num_rows());
  ASSERT_EQ(file.record_size(), memory.record_size());
  const size_t width = memory.record_size();
  const uint64_t rows = memory.num_rows();
  std::vector<uint8_t> got(width), want(width);
  for (uint64_t r = 0; r < rows; ++r) {
    ASSERT_TRUE(file.Read(r, got.data()).ok()) << r;
    ASSERT_TRUE(memory.Read(r, want.data()).ok()) << r;
    ASSERT_EQ(got, want) << "Read " << r;
  }
  const std::vector<uint64_t> request =
      RowSet("random", 3 * rows / 2, rows, 11);
  for (const std::vector<uint64_t>& req :
       {request, RowSet("dups", 300, rows, 12)}) {
    std::vector<uint8_t> from_file(req.size() * width);
    std::vector<uint8_t> from_memory(req.size() * width);
    ASSERT_TRUE(file.ReadRows(req.data(), req.size(), from_file.data()).ok());
    ASSERT_TRUE(
        memory.ReadRows(req.data(), req.size(), from_memory.data()).ok());
    EXPECT_EQ(from_file, from_memory) << "ReadRows";
  }
  for (const size_t buffer_records : {size_t{3}, kDefaultScanBufferRecords}) {
    Relation::Scanner fs(file, buffer_records);
    Relation::Scanner ms(memory, buffer_records);
    uint64_t r = 0;
    while (const uint8_t* rec = fs.Next()) {
      const uint8_t* expected = ms.Next();
      ASSERT_NE(expected, nullptr) << r;
      ASSERT_EQ(std::memcmp(rec, expected, width), 0) << "Scanner " << r;
      ++r;
    }
    ASSERT_TRUE(fs.status().ok()) << fs.status().ToString();
    EXPECT_EQ(r, rows);
  }
  for (const size_t block_rows : {size_t{1}, size_t{7}, size_t{1024}}) {
    Relation::BlockScanner fs(file, block_rows);
    Relation::BlockScanner ms(memory, block_rows);
    RowBlock fb, mb;
    uint64_t r = 0;
    while (fs.Next(&fb)) {
      ASSERT_TRUE(ms.Next(&mb));
      ASSERT_EQ(fb.first_row, mb.first_row);
      ASSERT_EQ(fb.rows, mb.rows);
      ASSERT_EQ(std::memcmp(fb.data, mb.data, fb.rows * width), 0)
          << "block " << block_rows << " at " << r;
      r += fb.rows;
    }
    ASSERT_TRUE(fs.status().ok()) << fs.status().ToString();
    EXPECT_FALSE(ms.Next(&mb));
    EXPECT_EQ(r, rows);
  }
}

// A view at an odd offset whose last record ends at the file's last byte
// reads the same bytes as a memory relation of the same records.
TEST(MappedReadTest, ViewAtOffsetEndingAtLastByte) {
  const test::ScopedTempDir tmp("storage_test");
  const std::string path = tmp.File("view.bin");
  constexpr uint64_t kHeader = 13;  // leaves every record unaligned
  constexpr uint64_t kRows = 5000;  // more than one Scanner refill
  Relation memory = Relation::Memory(sizeof(Rec));
  FileWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  const std::vector<uint8_t> header(kHeader, 0xAB);
  ASSERT_TRUE(writer.Append(header.data(), header.size()).ok());
  for (uint64_t i = 0; i < kRows; ++i) {
    const Rec r{RowValue(i), static_cast<uint32_t>(i), 7};
    ASSERT_TRUE(writer.Append(&r, sizeof(r)).ok());
    ASSERT_TRUE(memory.Append(&r).ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  auto reader = std::make_shared<FileReader>();
  ASSERT_TRUE(reader->Open(path).ok());
  ASSERT_EQ(reader->file_size(), kHeader + kRows * sizeof(Rec));
  const Relation view = Relation::FileView(reader, kHeader, kRows, sizeof(Rec));
  ExpectSameRecords(view, memory);
  // One record past the view's end is past the file's end too.
  EXPECT_EQ(reader->View(kHeader + kRows * sizeof(Rec), 1).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(reader->View(kHeader + (kRows - 1) * sizeof(Rec), sizeof(Rec)).ok());
}

// A sealed file relation reads like its memory twin through every path.
TEST(MappedReadTest, SealedFileRelationMatchesMemory) {
  const test::ScopedTempDir tmp("storage_test");
  const std::string path = tmp.File("sealed.bin");
  Result<Relation> file = Relation::CreateFile(path, sizeof(Rec));
  ASSERT_TRUE(file.ok());
  Relation memory = Relation::Memory(sizeof(Rec));
  for (uint64_t i = 0; i < 3000; ++i) {
    const Rec r{RowValue(i), static_cast<uint32_t>(i % 5), 0};
    ASSERT_TRUE(file->Append(&r).ok());
    ASSERT_TRUE(memory.Append(&r).ok());
  }
  ASSERT_TRUE(file->Seal().ok());
  ExpectSameRecords(file.value(), memory);
}

// An empty file has no mapping: scans end at once, an empty ReadRows is OK
// and every Read is out of range.
TEST(MappedReadTest, EmptyFileRelation) {
  const test::ScopedTempDir tmp("storage_test");
  const std::string path = tmp.File("empty.bin");
  Result<Relation> created = Relation::CreateFile(path, sizeof(Rec));
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE(created->Seal().ok());
  Result<Relation> opened = Relation::OpenFile(path, sizeof(Rec));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  for (const Relation* rel : {&created.value(), &opened.value()}) {
    EXPECT_EQ(rel->num_rows(), 0u);
    Relation::Scanner scan(*rel);
    EXPECT_EQ(scan.Next(), nullptr);
    EXPECT_TRUE(scan.status().ok());
    Relation::BlockScanner blocks(*rel, 7);
    RowBlock block;
    EXPECT_FALSE(blocks.Next(&block));
    EXPECT_TRUE(blocks.status().ok());
    Rec out;
    EXPECT_TRUE(rel->ReadRows(nullptr, 0, reinterpret_cast<uint8_t*>(&out)).ok());
    EXPECT_EQ(rel->Read(0, &out).code(), StatusCode::kOutOfRange);
  }
  FileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(reader.file_size(), 0u);
  char byte;
  EXPECT_EQ(reader.ReadAt(0, &byte, 1).code(), StatusCode::kOutOfRange);
}

// Moving a sealed relation or a reader moves the mapping: the new owner
// reads, and destroying the moved-from object unmaps nothing.
TEST(MappedReadTest, MovedRelationAndReaderKeepTheMapping) {
  const test::ScopedTempDir tmp("storage_test");
  const std::string path = tmp.File("moved.bin");
  Relation memory = Relation::Memory(sizeof(Rec));
  Relation moved;
  {
    Result<Relation> file = Relation::CreateFile(path, sizeof(Rec));
    ASSERT_TRUE(file.ok());
    for (uint64_t i = 0; i < 2000; ++i) {
      const Rec r{RowValue(i), static_cast<uint32_t>(i), 0};
      ASSERT_TRUE(file->Append(&r).ok());
      ASSERT_TRUE(memory.Append(&r).ok());
    }
    ASSERT_TRUE(file->Seal().ok());
    Relation first = std::move(file).value();
    moved = std::move(first);
  }  // both moved-from relations are destroyed here
  ExpectSameRecords(moved, memory);

  FileReader target;
  {
    FileReader source;
    ASSERT_TRUE(source.Open(path).ok());
    target = std::move(source);
    EXPECT_FALSE(source.is_open());
    EXPECT_TRUE(source.Close().ok());
  }
  ASSERT_TRUE(target.is_open());
  Rec last;
  ASSERT_TRUE(target.ReadAt(1999 * sizeof(Rec), &last, sizeof(last)).ok());
  EXPECT_EQ(last.key, RowValue(1999));
}

// EIO injected at the "read" of a mapped view fails every read path with an
// IoError that names the file.
TEST(MappedReadTest, InjectedReadErrorNamesTheFile) {
  const test::ScopedTempDir tmp("storage_test");
  const std::string path = tmp.File("eio.bin");
  Result<Relation> file = Relation::CreateFile(path, sizeof(Rec));
  ASSERT_TRUE(file.ok());
  for (uint64_t i = 0; i < 100; ++i) {
    const Rec r{i, 0, 0};
    ASSERT_TRUE(file->Append(&r).ok());
  }
  ASSERT_TRUE(file->Seal().ok());
  FaultPlan plan;
  plan.op = "read";
  plan.target_substr = path;
  plan.error = EIO;
  auto expect_eio = [&](const Status& s, const char* what) {
    EXPECT_EQ(s.code(), StatusCode::kIoError) << what << ": " << s.ToString();
    EXPECT_NE(s.message().find(path), std::string::npos)
        << what << ": " << s.ToString();
  };
  ScopedFaultInjection inject(FaultInjector::Disk(), plan);
  Rec out;
  expect_eio(file->Read(5, &out), "Read");
  const uint64_t rows[] = {9, 3, 3};
  std::vector<Rec> many(3);
  expect_eio(file->ReadRows(rows, 3, reinterpret_cast<uint8_t*>(many.data())),
             "ReadRows");
  Relation::Scanner scan(file.value());
  EXPECT_EQ(scan.Next(), nullptr);
  expect_eio(scan.status(), "Scanner");
  Relation::BlockScanner blocks(file.value(), 16);
  RowBlock block;
  EXPECT_FALSE(blocks.Next(&block));
  expect_eio(blocks.status(), "BlockScanner");
  EXPECT_GE(inject.faults_injected(), 4u);
}

// A three-dimension cube of `tuples` random rows.
gen::Dataset MakeCubeData(uint64_t tuples, uint64_t seed) {
  gen::Dataset ds;
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Linear("A", {12, 3}));
  dims.push_back(schema::Dimension::Flat("B", 9));
  dims.push_back(schema::Dimension::Flat("C", 5));
  auto schema = schema::CubeSchema::Create(
      std::move(dims), 1,
      {{schema::AggFn::kSum, 0, "sum"}, {schema::AggFn::kCount, 0, "cnt"}});
  EXPECT_TRUE(schema.ok());
  ds.schema = std::move(schema).value();
  ds.table = schema::FactTable(3, 1);
  std::mt19937_64 rng(seed);
  for (uint64_t t = 0; t < tuples; ++t) {
    const uint32_t row[3] = {static_cast<uint32_t>(rng() % 12),
                             static_cast<uint32_t>(rng() % 9),
                             static_cast<uint32_t>(rng() % 5)};
    const int64_t m = static_cast<int64_t>(rng() % 100);
    ds.table.AppendRow(row, &m);
  }
  return ds;
}

// Every node `engine` answers equals the brute-force reference over `ds`.
void ExpectCubeAnswers(const query::CureQueryEngine& engine,
                       const engine::CureCube& cube, const gen::Dataset& ds) {
  const schema::NodeIdCodec& codec = cube.store().codec();
  for (schema::NodeId id = 0; id < codec.num_nodes(); ++id) {
    query::ResultSink sink(true);
    ASSERT_TRUE(engine.QueryNode(id, &sink).ok());
    auto expected = query::ReferenceNodeResult(ds.schema, ds.table, id);
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(query::SameResults(sink.TakeRows(), std::move(expected).value()))
        << "node " << id;
  }
}

// Persisting a packed cube again to the same path publishes a new file by
// rename; an engine on the old cube keeps reading the old file's mapping.
TEST(MappedReadTest, RepersistedPackedCubeKeepsTheOldMapping) {
  const test::ScopedTempDir tmp("storage_test");
  const std::string path = tmp.File("cube.bin");
  const gen::Dataset old_data = MakeCubeData(600, 1);
  const gen::Dataset new_data = MakeCubeData(900, 2);
  engine::FactInput old_input{.table = &old_data.table};
  auto old_cube = engine::BuildCure(old_data.schema, old_input, {});
  ASSERT_TRUE(old_cube.ok());
  ASSERT_TRUE((*old_cube)->SpillStoreToDisk(path).ok());
  auto old_engine = query::CureQueryEngine::Create(old_cube->get(), 1.0);
  ASSERT_TRUE(old_engine.ok()) << old_engine.status().ToString();
  ExpectCubeAnswers(**old_engine, **old_cube, old_data);

  engine::FactInput new_input{.table = &new_data.table};
  auto new_cube = engine::BuildCure(new_data.schema, new_input, {});
  ASSERT_TRUE(new_cube.ok());
  ASSERT_TRUE((*new_cube)->SpillStoreToDisk(path).ok());
  ExpectCubeAnswers(**old_engine, **old_cube, old_data);
  auto new_engine = query::CureQueryEngine::Create(new_cube->get(), 1.0);
  ASSERT_TRUE(new_engine.ok()) << new_engine.status().ToString();
  ExpectCubeAnswers(**new_engine, **new_cube, new_data);
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
