// Crash-safety tests for the delta WAL: round-trip replay, shape checks,
// torn-header recreation, and the byte-granular truncation sweep — the WAL
// is truncated at *every* byte offset inside the final frame and replay
// must recover exactly the committed prefix (kill -9 at any byte).
#include "maintain/delta_wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "storage/file_io.h"
#include "temp_dir.h"

namespace cure {
namespace {

using maintain::DeltaWal;
using maintain::RowBatch;
using maintain::WalRecoveryStats;

constexpr int kDims = 3;
constexpr int kMeasures = 1;
constexpr size_t kRecord = 4 * kDims + 8 * kMeasures;

// The WALs of this process's tests, removed at exit.
std::string TestPath(const std::string& name) {
  static const test::ScopedTempDir dir("maintain_recovery_test");
  return dir.File(name + ".bin");
}

void RemoveIfPresent(const std::string& path) { std::remove(path.c_str()); }

/// A deterministic batch of `rows` records seeded by `seed`.
RowBatch MakeBatch(uint64_t rows, uint32_t seed) {
  RowBatch batch(kDims, kMeasures);
  for (uint64_t r = 0; r < rows; ++r) {
    const uint32_t dims[kDims] = {seed + static_cast<uint32_t>(r),
                                  seed * 7 + static_cast<uint32_t>(r) % 5,
                                  static_cast<uint32_t>(r) % 3};
    const int64_t measure = static_cast<int64_t>(seed) * 1000 + r;
    batch.Add(dims, &measure);
  }
  return batch;
}

/// Collects replayed records as packed byte strings.
struct Collector {
  std::vector<std::string> records;
  DeltaWal::RowCallback Callback() {
    return [this](const uint8_t* record) {
      records.emplace_back(reinterpret_cast<const char*>(record), kRecord);
    };
  }
};

std::vector<std::string> BatchRecords(const RowBatch& batch) {
  std::vector<std::string> records;
  for (uint64_t r = 0; r < batch.rows(); ++r) {
    records.emplace_back(
        reinterpret_cast<const char*>(batch.data() + r * kRecord), kRecord);
  }
  return records;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST(DeltaWalTest, RoundTripReplaysCommittedRowsInOrder) {
  const std::string path = TestPath("roundtrip");
  RemoveIfPresent(path);

  std::vector<std::string> expected;
  {
    auto wal = DeltaWal::Open(path, kDims, kMeasures, nullptr);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_EQ((*wal)->recovery().rows, 0u);
    for (uint32_t b = 0; b < 3; ++b) {
      const RowBatch batch = MakeBatch(4 + b, 100 + b);
      const std::vector<std::string> records = BatchRecords(batch);
      expected.insert(expected.end(), records.begin(), records.end());
      ASSERT_TRUE((*wal)->AppendBatch(batch).ok());
    }
    EXPECT_EQ((*wal)->total_batches(), 3u);
    EXPECT_EQ((*wal)->total_rows(), 4u + 5u + 6u);
  }

  Collector collector;
  WalRecoveryStats stats;
  auto wal = DeltaWal::Open(path, kDims, kMeasures, collector.Callback(), &stats);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.rows, expected.size());
  EXPECT_EQ(stats.truncated_bytes, 0u);
  EXPECT_EQ(collector.records, expected);
  // The reopened WAL appends after the recovered frames.
  ASSERT_TRUE((*wal)->AppendBatch(MakeBatch(2, 999)).ok());
  EXPECT_EQ((*wal)->total_rows(), expected.size() + 2);
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

TEST(DeltaWalTest, EmptyBatchIsANoop) {
  const std::string path = TestPath("empty");
  RemoveIfPresent(path);
  auto wal = DeltaWal::Open(path, kDims, kMeasures, nullptr);
  ASSERT_TRUE(wal.ok());
  const uint64_t bytes = (*wal)->file_bytes();
  ASSERT_TRUE((*wal)->AppendBatch(RowBatch(kDims, kMeasures)).ok());
  EXPECT_EQ((*wal)->file_bytes(), bytes);
  EXPECT_EQ((*wal)->total_batches(), 0u);
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

TEST(DeltaWalTest, RejectsShapeMismatch) {
  const std::string path = TestPath("shape");
  RemoveIfPresent(path);
  {
    auto wal = DeltaWal::Open(path, kDims, kMeasures, nullptr);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendBatch(MakeBatch(3, 1)).ok());
  }
  EXPECT_FALSE(DeltaWal::Open(path, kDims + 1, kMeasures, nullptr).ok());
  EXPECT_FALSE(DeltaWal::Open(path, kDims, kMeasures + 1, nullptr).ok());
  // A batch of the wrong shape is rejected before touching the file.
  auto wal = DeltaWal::Open(path, kDims, kMeasures, nullptr);
  ASSERT_TRUE(wal.ok());
  EXPECT_FALSE((*wal)->AppendBatch(RowBatch(kDims + 1, kMeasures)).ok());
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

TEST(DeltaWalTest, TornHeaderIsRecreated) {
  const std::string path = TestPath("torn_header");
  RemoveIfPresent(path);
  // A crash before the 16-byte file header committed: any shorter file.
  WriteFile(path, std::string("CURE"));
  Collector collector;
  WalRecoveryStats stats;
  auto wal = DeltaWal::Open(path, kDims, kMeasures, collector.Callback(), &stats);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(stats.rows, 0u);
  EXPECT_EQ(stats.truncated_bytes, 4u);
  EXPECT_TRUE(collector.records.empty());
  ASSERT_TRUE((*wal)->AppendBatch(MakeBatch(2, 7)).ok());
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

TEST(DeltaWalTest, CorruptChecksumDropsOnlyTheCorruptTail) {
  const std::string path = TestPath("corrupt");
  RemoveIfPresent(path);
  uint64_t prefix_bytes = 0;
  std::vector<std::string> committed;
  {
    auto wal = DeltaWal::Open(path, kDims, kMeasures, nullptr);
    ASSERT_TRUE(wal.ok());
    const RowBatch first = MakeBatch(5, 11);
    committed = BatchRecords(first);
    ASSERT_TRUE((*wal)->AppendBatch(first).ok());
    prefix_bytes = (*wal)->file_bytes();
    ASSERT_TRUE((*wal)->AppendBatch(MakeBatch(5, 12)).ok());
  }
  // Flip one payload byte in the final frame: its checksum no longer
  // matches, so replay must stop at the first batch.
  std::string bytes = ReadFile(path);
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x5A);
  WriteFile(path, bytes);

  Collector collector;
  WalRecoveryStats stats;
  auto wal = DeltaWal::Open(path, kDims, kMeasures, collector.Callback(), &stats);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(collector.records, committed);
  EXPECT_EQ(stats.truncated_bytes, bytes.size() - prefix_bytes);
  EXPECT_EQ((*wal)->file_bytes(), prefix_bytes);
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

// The satellite acceptance test: truncate the WAL at every byte offset of
// the final frame (simulating kill -9 mid-append at each possible point)
// and assert replay recovers exactly the committed prefix — never a partial
// batch, never a lost committed batch.
TEST(DeltaWalTest, TruncationAtEveryFinalFrameOffsetRecoversCommittedPrefix) {
  const std::string path = TestPath("sweep_master");
  const std::string copy = TestPath("sweep_copy");
  RemoveIfPresent(path);

  std::vector<std::string> committed;  // records of batches 1..2
  uint64_t prefix_bytes = 0;
  {
    auto wal = DeltaWal::Open(path, kDims, kMeasures, nullptr);
    ASSERT_TRUE(wal.ok());
    for (uint32_t b = 0; b < 2; ++b) {
      const RowBatch batch = MakeBatch(3 + b, 40 + b);
      const std::vector<std::string> records = BatchRecords(batch);
      committed.insert(committed.end(), records.begin(), records.end());
      ASSERT_TRUE((*wal)->AppendBatch(batch).ok());
    }
    prefix_bytes = (*wal)->file_bytes();
    ASSERT_TRUE((*wal)->AppendBatch(MakeBatch(4, 50)).ok());
  }
  const std::string full = ReadFile(path);
  ASSERT_GT(full.size(), prefix_bytes);

  for (size_t len = prefix_bytes; len < full.size(); ++len) {
    WriteFile(copy, full.substr(0, len));
    Collector collector;
    WalRecoveryStats stats;
    auto wal =
        DeltaWal::Open(copy, kDims, kMeasures, collector.Callback(), &stats);
    ASSERT_TRUE(wal.ok()) << "len=" << len << ": " << wal.status().ToString();
    EXPECT_EQ(collector.records, committed) << "len=" << len;
    EXPECT_EQ(stats.batches, 2u) << "len=" << len;
    EXPECT_EQ(stats.truncated_bytes, len - prefix_bytes) << "len=" << len;
    // Post-recovery the file is exactly the committed prefix and the WAL
    // accepts new appends.
    EXPECT_EQ((*wal)->file_bytes(), prefix_bytes) << "len=" << len;
    ASSERT_TRUE((*wal)->AppendBatch(MakeBatch(1, 60)).ok()) << "len=" << len;
  }
  ASSERT_TRUE(storage::RemoveFile(path).ok());
  ASSERT_TRUE(storage::RemoveFile(copy).ok());
}

TEST(DeltaWalTest, ChecksumIsFnv1a) {
  const uint8_t data[] = {'a', 'b', 'c'};
  // Independently computed FNV-1a 64-bit of "abc".
  EXPECT_EQ(DeltaWal::Checksum(data, 3), 0xe71fa2190541574bull);
  EXPECT_EQ(DeltaWal::Checksum(data, 0), 0xcbf29ce484222325ull);
}

}  // namespace
}  // namespace cure
