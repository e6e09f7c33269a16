// Fault-sweep torture tests: enumerate every I/O operation in a
// build→persist→open workload (and the WAL append/refresh path), then
// re-run the workload once per operation with that operation failing.
// Every run must either fail cleanly — correct status code, no partial
// cube published at the target path, scratch directory removed — or
// succeed with a byte-identical cube. Serial (num_threads = 1) so the op
// ordering, and therefore the sweep, is deterministic.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "cube/cube_store.h"
#include "engine/cure.h"
#include "gen/datasets.h"
#include "gen/random.h"
#include "maintain/live_cube.h"
#include "storage/file_io.h"
#include "temp_dir.h"

namespace cure {
namespace {

using cube::CubeStore;
using engine::BuildCure;
using engine::CureCube;
using engine::CureOptions;
using engine::FactInput;
using maintain::LiveCube;
using maintain::MaintainOptions;
using maintain::RowBatch;

gen::Dataset MakeDataset(uint64_t tuples, uint64_t seed) {
  gen::Dataset ds;
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Linear("A", {20, 4, 2}));
  dims.push_back(schema::Dimension::Linear("B", {8, 2}));
  dims.push_back(schema::Dimension::Flat("C", 4));
  auto schema = schema::CubeSchema::Create(
      std::move(dims), 1,
      {{schema::AggFn::kSum, 0, "sum"}, {schema::AggFn::kCount, 0, "cnt"}});
  EXPECT_TRUE(schema.ok());
  ds.schema = std::move(schema).value();
  ds.table = schema::FactTable(3, 1);
  gen::Rng rng(seed);
  for (uint64_t t = 0; t < tuples; ++t) {
    const uint32_t row[3] = {static_cast<uint32_t>(rng.NextRange(20)),
                             static_cast<uint32_t>(rng.NextRange(8)),
                             static_cast<uint32_t>(rng.NextRange(4))};
    const int64_t m = static_cast<int64_t>(rng.NextRange(30));
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

// The swept workload: external serial build into `temp_dir` scratch,
// persist packed to `out_path`, reopen + verify. Everything it touches
// lives under a cure_fault_sweep_* temp directory, so the sweep's
// path_substr scopes faults away from unrelated test I/O.
Status BuildPersistOpen(const gen::Dataset& ds, const storage::Relation& rel,
                        const std::string& temp_dir,
                        const std::string& out_path) {
  CureOptions options;
  options.force_external = true;
  options.memory_budget_bytes = 16384;
  options.signature_pool_capacity = 256;
  options.num_threads = 1;
  options.temp_dir = temp_dir;
  FactInput input{.relation = &rel};
  CURE_ASSIGN_OR_RETURN(std::unique_ptr<CureCube> cube,
                        BuildCure(ds.schema, input, options));
  CURE_RETURN_IF_ERROR(cube->store().PersistPacked(out_path));
  CURE_ASSIGN_OR_RETURN(CubeStore reopened,
                        CubeStore::OpenPacked(out_path, &ds.schema));
  return Status::OK();
}

// Clean-failure invariants shared by every sweep iteration: the scratch
// base holds no leftover build directories, and the published path either
// does not exist or contains a complete, verifiable cube (the atomic
// rename guarantee — a reader never sees a torn file).
void ExpectCleanOutcome(const Status& status, const std::string& temp_dir,
                        const std::string& out_path,
                        const std::string& reference, uint64_t index) {
  std::error_code ec;
  EXPECT_TRUE(std::filesystem::is_empty(temp_dir, ec))
      << "scratch leak at op " << index;
  const bool exists = std::filesystem::exists(out_path, ec);
  if (status.ok()) {
    ASSERT_TRUE(exists) << "op " << index;
    EXPECT_EQ(ReadBytes(out_path), reference)
        << "published cube differs at op " << index;
  } else if (exists) {
    // A failure after the rename is allowed; the published file must then
    // be the complete image, never a torn one.
    EXPECT_EQ(ReadBytes(out_path), reference)
        << "torn cube published at op " << index << ": "
        << status.ToString();
  }
  (void)storage::RemoveFile(out_path);
}

class FaultSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_dir_ = tmp_.File("scratch");
    ASSERT_TRUE(storage::EnsureDir(temp_dir_).ok());
    ds_ = MakeDataset(500, 4711);
    rel_ = storage::Relation::Memory(ds_.table.RecordSize());
    ASSERT_TRUE(ds_.table.WriteTo(&rel_).ok());
    reference_path_ = tmp_.File("ref.bin");
    const Status ref_status = BuildPersistOpen(ds_, rel_, temp_dir_, reference_path_);
    ASSERT_TRUE(ref_status.ok()) << ref_status.ToString();
    reference_ = ReadBytes(reference_path_);
    ASSERT_FALSE(reference_.empty());

    // Enumerate the workload's I/O points (counting mode never fires).
    FaultPlan counter;
    counter.target_substr = "cure_fault_sweep_";
    counter.fail_index = UINT64_MAX;
    {
      ScopedFaultInjection count(FaultInjector::Disk(), counter);
      const std::string path = tmp_.File("count.bin");
      ASSERT_TRUE(BuildPersistOpen(ds_, rel_, temp_dir_, path).ok());
      num_ops_ = count.ops_matched();
      ASSERT_TRUE(storage::RemoveFile(path).ok());
    }
    ASSERT_GT(num_ops_, 20u) << "workload shrank; the sweep lost coverage";
  }

  void TearDown() override {
    (void)storage::RemoveFile(reference_path_);
    std::error_code ec;
    std::filesystem::remove_all(temp_dir_, ec);
  }

  // Sweeps a sticky `error` across every I/O index of the workload.
  void SweepErrno(int error, const char* tag) {
    const std::string out_path = tmp_.File(std::string(tag) + ".bin");
    uint64_t failures = 0;
    for (uint64_t i = 0; i < num_ops_; ++i) {
      FaultPlan plan;
      plan.target_substr = "cure_fault_sweep_";
      plan.fail_index = i;
      plan.error = error;
      Status status;
      {
        ScopedFaultInjection fault(FaultInjector::Disk(), plan);
        status = BuildPersistOpen(ds_, rel_, temp_dir_, out_path);
      }
      if (!status.ok()) {
        ++failures;
        EXPECT_TRUE(status.code() == StatusCode::kIoError ||
                    status.code() == StatusCode::kDataLoss)
            << "op " << i << ": " << status.ToString();
      }
      ExpectCleanOutcome(status, temp_dir_, out_path, reference_, i);
    }
    // A sticky fault at index 0 kills the very first open: the sweep must
    // actually have been failing runs, not sliding past them.
    EXPECT_GT(failures, num_ops_ / 2) << "sweep failed to inject";
  }

  test::ScopedTempDir tmp_{"fault_sweep"};
  gen::Dataset ds_;
  storage::Relation rel_;
  std::string temp_dir_;
  std::string reference_path_;
  std::string reference_;
  uint64_t num_ops_ = 0;
};

TEST_F(FaultSweepTest, SweptCubeHasNarrowRecords) {
  // The sweep runs on the paper-width records (format v3): every field of
  // this 500-row cube fits 4 bytes.
  const CubeStore::PackedVerifyReport report =
      CubeStore::VerifyPacked(reference_path_);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(report.version, 3u);
  EXPECT_EQ(report.layout.ToString(), "row-id 4 B, A-rowid 4 B, aggregates 4/4 B");
}

TEST_F(FaultSweepTest, StickyEioAtEveryOpFailsCleanOrByteIdentical) {
  SweepErrno(EIO, "eio");
}

TEST_F(FaultSweepTest, StickyEnospcAtEveryOpFailsCleanOrByteIdentical) {
  SweepErrno(ENOSPC, "enospc");
}

TEST_F(FaultSweepTest, ShortWritesAtEveryIndexStayByteIdentical) {
  // Count the write ops, then shorten every write from index i on: short
  // writes are not errors, so every run must succeed byte-identically.
  FaultPlan counter;
  counter.op = "write";
  counter.target_substr = "cure_fault_sweep_";
  counter.fail_index = UINT64_MAX;
  uint64_t num_writes = 0;
  {
    ScopedFaultInjection count(FaultInjector::Disk(), counter);
    const std::string path = tmp_.File("wcount.bin");
    ASSERT_TRUE(BuildPersistOpen(ds_, rel_, temp_dir_, path).ok());
    num_writes = count.ops_matched();
    ASSERT_TRUE(storage::RemoveFile(path).ok());
  }
  // The writers buffer 64 KB, so a small cube needs only a handful of
  // write() calls; the sweep still covers every one of them.
  ASSERT_GE(num_writes, 2u);
  const std::string out_path = tmp_.File("short.bin");
  for (uint64_t i = 0; i < num_writes; ++i) {
    FaultPlan plan;
    plan.op = "write";
    plan.target_substr = "cure_fault_sweep_";
    plan.fail_index = i;
    plan.short_fraction = 0.3;
    Status status;
    {
      ScopedFaultInjection fault(FaultInjector::Disk(), plan);
      status = BuildPersistOpen(ds_, rel_, temp_dir_, out_path);
    }
    ASSERT_TRUE(status.ok()) << "op " << i << ": " << status.ToString();
    EXPECT_EQ(ReadBytes(out_path), reference_) << "op " << i;
    ASSERT_TRUE(storage::RemoveFile(out_path).ok());
  }
}

TEST_F(FaultSweepTest, TransientFaultAtEveryOpRecoversOnRetry) {
  // `once` faults model a transient hiccup: the run fails (or survives, if
  // the op's caller retries), and the very next run must always succeed.
  const std::string out_path = tmp_.File("transient.bin");
  for (uint64_t i = 0; i < num_ops_; i += 7) {
    FaultPlan plan;
    plan.target_substr = "cure_fault_sweep_";
    plan.fail_index = i;
    plan.error = EIO;
    plan.once = true;
    {
      ScopedFaultInjection fault(FaultInjector::Disk(), plan);
      const Status status = BuildPersistOpen(ds_, rel_, temp_dir_, out_path);
      ExpectCleanOutcome(status, temp_dir_, out_path, reference_, i);
    }
    const Status retry = BuildPersistOpen(ds_, rel_, temp_dir_, out_path);
    ASSERT_TRUE(retry.ok()) << "op " << i << ": " << retry.ToString();
    EXPECT_EQ(ReadBytes(out_path), reference_) << "op " << i;
    ASSERT_TRUE(storage::RemoveFile(out_path).ok());
  }
}

TEST_F(FaultSweepTest, BuildPersistOpenNeverReachesTheNetInjector) {
  // Counting plans on both injectors, every op name: the build's file I/O
  // lands on Disk() only, even though "read" and "write" are net ops too.
  FaultPlan counter;
  counter.fail_index = UINT64_MAX;
  const std::string out_path = tmp_.File("domains.bin");
  uint64_t disk_ops = 0;
  {
    ScopedFaultInjection net(FaultInjector::Net(), counter);
    ScopedFaultInjection disk(FaultInjector::Disk(), counter);
    ASSERT_TRUE(BuildPersistOpen(ds_, rel_, temp_dir_, out_path).ok());
    disk_ops = disk.ops_matched();
    EXPECT_EQ(net.ops_matched(), 0u);
  }
  EXPECT_GE(disk_ops, num_ops_);
  EXPECT_EQ(ReadBytes(out_path), reference_);
  ASSERT_TRUE(storage::RemoveFile(out_path).ok());
}

// ------------------------------------------------------ WAL / refresh sweep

constexpr int kDims = 3;
constexpr int kMeasures = 1;

RowBatch MakeBatch(uint64_t count, uint64_t seed) {
  RowBatch batch(kDims, kMeasures);
  gen::Rng rng(seed);
  for (uint64_t i = 0; i < count; ++i) {
    const uint32_t row[kDims] = {static_cast<uint32_t>(rng.NextRange(20)),
                                 static_cast<uint32_t>(rng.NextRange(8)),
                                 static_cast<uint32_t>(rng.NextRange(4))};
    const int64_t m = static_cast<int64_t>(rng.NextRange(30));
    batch.Add(row, &m);
  }
  return batch;
}

// Open → Append×2 → Flush against a WAL under the sweep prefix. Appends
// that fail must not corrupt the log; a failed Flush must leave the
// published snapshot serving.
TEST(FaultSweepWalTest, StickyEioAtEveryWalOpFailsCleanly) {
  gen::Dataset ds = MakeDataset(300, 4712);
  const test::ScopedTempDir tmp("fault_sweep");
  const std::string wal_path = tmp.File("wal.wal");

  MaintainOptions options;
  options.wal_path = wal_path;
  options.refresh_rows = ~0ull;
  options.refresh_bytes = ~0ull;
  options.io_retry_attempts = 1;  // the sweep wants raw failures

  auto workload = [&]() -> Status {
    schema::FactTable base = ds.table;  // copy; LiveCube consumes it
    CURE_ASSIGN_OR_RETURN(std::unique_ptr<LiveCube> live,
                          LiveCube::Open(ds.schema, std::move(base), options));
    CURE_RETURN_IF_ERROR(live->Append(MakeBatch(40, 1)));
    CURE_RETURN_IF_ERROR(live->Append(MakeBatch(40, 2)));
    CURE_ASSIGN_OR_RETURN(maintain::RefreshStats stats, live->Flush());
    if (!stats.refreshed) return Status::Internal("refresh did not publish");
    // The published snapshot answers after the refresh.
    const auto snapshot = live->snapshot();
    query::ResultSink sink;
    CURE_RETURN_IF_ERROR(snapshot->engine->QueryNode(0, &sink));
    return Status::OK();
  };

  // Enumerate, then sweep.
  uint64_t num_ops = 0;
  {
    FaultPlan counter;
    counter.target_substr = "cure_fault_sweep_";
    counter.fail_index = UINT64_MAX;
    ScopedFaultInjection count(FaultInjector::Disk(), counter);
    (void)storage::RemoveFile(wal_path);
    ASSERT_TRUE(workload().ok());
    num_ops = count.ops_matched();
  }
  ASSERT_GT(num_ops, 4u);

  uint64_t failures = 0;
  for (uint64_t i = 0; i < num_ops; ++i) {
    FaultPlan plan;
    plan.target_substr = "cure_fault_sweep_";
    plan.fail_index = i;
    plan.error = EIO;
    (void)storage::RemoveFile(wal_path);
    Status status;
    {
      ScopedFaultInjection fault(FaultInjector::Disk(), plan);
      status = workload();
    }
    if (!status.ok()) {
      ++failures;
      EXPECT_EQ(status.code(), StatusCode::kIoError)
          << "op " << i << ": " << status.ToString();
      // After a mid-run fault the WAL must still be recoverable: a clean
      // reopen replays the committed prefix and can take new appends.
      schema::FactTable base = ds.table;
      auto live = LiveCube::Open(ds.schema, std::move(base), options);
      ASSERT_TRUE(live.ok()) << "op " << i << ": " << live.status().ToString();
      EXPECT_TRUE((*live)->Append(MakeBatch(10, 3)).ok()) << "op " << i;
    }
  }
  EXPECT_GT(failures, 0u) << "sweep failed to inject";
  (void)storage::RemoveFile(wal_path);
}

// ----------------------------------------------------- refresh retry policy

TEST(RefreshRetryTest, TransientIoErrorIsRetriedAndSucceeds) {
  gen::Dataset ds = MakeDataset(300, 4713);
  const test::ScopedTempDir tmp("fault_sweep");
  MaintainOptions options;
  options.wal_path = tmp.File("retry_ok.wal");
  (void)storage::RemoveFile(options.wal_path);
  options.refresh_rows = ~0ull;
  options.refresh_bytes = ~0ull;
  options.io_retry_attempts = 3;
  options.io_retry_backoff_ms = 1;

  schema::FactTable base = ds.table;
  auto live = LiveCube::Open(ds.schema, std::move(base), options);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  int calls = 0;
  (*live)->set_refresh_hook([&calls]() -> Status {
    return ++calls <= 2 ? Status::IoError("transient disk hiccup")
                        : Status::OK();
  });
  ASSERT_TRUE((*live)->Append(MakeBatch(30, 5)).ok());
  auto stats = (*live)->Flush();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->refreshed);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ((*live)->counters().refresh_failed, 2u);
  EXPECT_EQ((*live)->snapshot()->version, 2u);
  ASSERT_TRUE(storage::RemoveFile(options.wal_path).ok());
}

TEST(RefreshRetryTest, PersistentIoErrorLeavesSnapshotUntouched) {
  gen::Dataset ds = MakeDataset(300, 4714);
  const test::ScopedTempDir tmp("fault_sweep");
  MaintainOptions options;
  options.wal_path = tmp.File("retry_fail.wal");
  (void)storage::RemoveFile(options.wal_path);
  options.refresh_rows = ~0ull;
  options.refresh_bytes = ~0ull;
  options.io_retry_attempts = 3;
  options.io_retry_backoff_ms = 1;

  schema::FactTable base = ds.table;
  auto live = LiveCube::Open(ds.schema, std::move(base), options);
  ASSERT_TRUE(live.ok());
  int calls = 0;
  (*live)->set_refresh_hook([&calls]() -> Status {
    ++calls;
    return Status::IoError("disk is gone");
  });
  ASSERT_TRUE((*live)->Append(MakeBatch(30, 6)).ok());
  auto stats = (*live)->Flush();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kIoError);
  EXPECT_EQ(calls, 3);  // attempts exhausted
  EXPECT_EQ((*live)->counters().refresh_failed, 3u);

  // Degradation, not an outage: the published snapshot still serves, and
  // once the fault clears the same pending rows flush successfully.
  const auto snapshot = (*live)->snapshot();
  EXPECT_EQ(snapshot->version, 1u);
  query::ResultSink sink;
  EXPECT_TRUE(snapshot->engine->QueryNode(0, &sink).ok());
  (*live)->set_refresh_hook(nullptr);
  auto retry = (*live)->Flush();
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE(retry->refreshed);
  EXPECT_EQ((*live)->snapshot()->version, 2u);
  ASSERT_TRUE(storage::RemoveFile(options.wal_path).ok());
}

TEST(RefreshRetryTest, NonIoErrorsNeverRetry) {
  gen::Dataset ds = MakeDataset(300, 4715);
  const test::ScopedTempDir tmp("fault_sweep");
  MaintainOptions options;
  options.wal_path = tmp.File("retry_nonio.wal");
  (void)storage::RemoveFile(options.wal_path);
  options.refresh_rows = ~0ull;
  options.refresh_bytes = ~0ull;
  options.io_retry_attempts = 5;
  options.io_retry_backoff_ms = 1;

  schema::FactTable base = ds.table;
  auto live = LiveCube::Open(ds.schema, std::move(base), options);
  ASSERT_TRUE(live.ok());
  int calls = 0;
  (*live)->set_refresh_hook([&calls]() -> Status {
    ++calls;
    return Status::Internal("logic bug, not a disk fault");
  });
  ASSERT_TRUE((*live)->Append(MakeBatch(30, 7)).ok());
  auto stats = (*live)->Flush();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInternal);
  EXPECT_EQ(calls, 1);  // no retry for non-I/O failures
  ASSERT_TRUE(storage::RemoveFile(options.wal_path).ok());
}

}  // namespace
}  // namespace cure
