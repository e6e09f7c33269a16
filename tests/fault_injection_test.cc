#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "storage/file_io.h"

namespace cure {
namespace {

using storage::FileReader;
using storage::FileWriter;

std::string TestPath(const char* tag) {
  return "/tmp/cure_fault_injection_" + std::to_string(::getpid()) + "_" +
         tag + ".bin";
}

// Writes `payload` with a small buffer so multiple write() calls happen.
Status WriteFile(const std::string& path, const std::string& payload,
                 size_t buffer = 16) {
  FileWriter writer;
  CURE_RETURN_IF_ERROR(writer.Open(path, buffer));
  CURE_RETURN_IF_ERROR(writer.Append(payload.data(), payload.size()));
  CURE_RETURN_IF_ERROR(writer.Sync());
  return writer.Close();
}

Result<std::string> ReadFileBack(const std::string& path, size_t len) {
  FileReader reader;
  CURE_RETURN_IF_ERROR(reader.Open(path));
  std::string out(len, '\0');
  CURE_RETURN_IF_ERROR(reader.ReadAt(0, out.data(), len));
  CURE_RETURN_IF_ERROR(reader.Close());
  return out;
}

TEST(FaultInjectionTest, DisarmedInjectorIsInert) {
  const std::string path = TestPath("inert");
  ASSERT_FALSE(FaultInjector::Disk().armed());
  ASSERT_TRUE(WriteFile(path, "hello fault world").ok());
  auto back = ReadFileBack(path, 17);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "hello fault world");
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

TEST(FaultInjectionTest, CountingModeCountsWithoutFiring) {
  const std::string path = TestPath("count");
  FaultPlan plan;
  plan.op = "write";
  plan.fail_index = UINT64_MAX;  // Pure counter.
  {
    ScopedFaultInjection fault(FaultInjector::Disk(), plan);
    ASSERT_TRUE(WriteFile(path, std::string(100, 'x')).ok());
    EXPECT_GE(fault.ops_matched(), 1u);
    EXPECT_EQ(fault.faults_injected(), 0u);
  }
  EXPECT_FALSE(FaultInjector::Disk().armed());
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

TEST(FaultInjectionTest, StickyWriteFaultFailsTheWorkload) {
  const std::string path = TestPath("sticky");
  FaultPlan plan;
  plan.op = "write";
  plan.target_substr = path;
  plan.error = EIO;
  ScopedFaultInjection fault(FaultInjector::Disk(), plan);
  const Status s = WriteFile(path, std::string(64, 'y'));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_GE(fault.faults_injected(), 1u);
  (void)storage::RemoveFile(path);
}

TEST(FaultInjectionTest, OnceFaultFailsThenRecovers) {
  const std::string path = TestPath("once");
  FaultPlan plan;
  plan.op = "open";
  plan.target_substr = path;
  plan.error = EACCES;
  plan.once = true;
  ScopedFaultInjection fault(FaultInjector::Disk(), plan);
  FileWriter writer;
  const Status first = writer.Open(path);
  EXPECT_FALSE(first.ok());
  // The same call retried succeeds: the fault was transient.
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Append("ok", 2).ok());
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(fault.faults_injected(), 1u);
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

TEST(FaultInjectionTest, FailIndexSkipsEarlierOps) {
  const std::string path = TestPath("index");
  FaultPlan plan;
  plan.op = "fsync";
  plan.target_substr = path;
  plan.fail_index = 1;  // First fsync succeeds, second fails.
  plan.error = EIO;
  ScopedFaultInjection fault(FaultInjector::Disk(), plan);
  FileWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Append("a", 1).ok());
  EXPECT_TRUE(writer.Sync().ok());
  ASSERT_TRUE(writer.Append("b", 1).ok());
  EXPECT_FALSE(writer.Sync().ok());
  (void)writer.Close();
  EXPECT_EQ(fault.ops_matched(), 2u);
  EXPECT_EQ(fault.faults_injected(), 1u);
  (void)storage::RemoveFile(path);
}

TEST(FaultInjectionTest, ShortWritesSucceedByteIdentically) {
  const std::string reference_path = TestPath("short_ref");
  const std::string path = TestPath("short");
  std::string payload;
  for (int i = 0; i < 997; ++i) payload.push_back(static_cast<char>(i % 251));
  ASSERT_TRUE(WriteFile(reference_path, payload).ok());
  {
    // Every write truncated to half its length, no errno: the kernel-style
    // short write the Flush loop must absorb.
    FaultPlan plan;
    plan.op = "write";
    plan.target_substr = path;
    plan.short_fraction = 0.5;
    ScopedFaultInjection fault(FaultInjector::Disk(), plan);
    ASSERT_TRUE(WriteFile(path, payload).ok());
    EXPECT_GE(fault.faults_injected(), 2u);
  }
  auto got = ReadFileBack(path, payload.size());
  auto want = ReadFileBack(reference_path, payload.size());
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*got, *want);
  ASSERT_TRUE(storage::RemoveFile(path).ok());
  ASSERT_TRUE(storage::RemoveFile(reference_path).ok());
}

TEST(FaultInjectionTest, EnospcGetsActionableMessage) {
  const std::string path = TestPath("enospc");
  FaultPlan plan;
  plan.op = "write";
  plan.target_substr = path;
  plan.error = ENOSPC;
  ScopedFaultInjection fault(FaultInjector::Disk(), plan);
  const Status s = WriteFile(path, std::string(64, 'z'));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find("device out of space"), std::string::npos)
      << s.ToString();
  (void)storage::RemoveFile(path);
}

TEST(FaultInjectionTest, PathSubstringScopesTheFault) {
  const std::string victim = TestPath("scoped_victim");
  const std::string bystander = TestPath("scoped_bystander");
  FaultPlan plan;
  plan.op = "write";
  plan.target_substr = "scoped_victim";
  plan.error = EIO;
  ScopedFaultInjection fault(FaultInjector::Disk(), plan);
  EXPECT_FALSE(WriteFile(victim, "doomed").ok());
  EXPECT_TRUE(WriteFile(bystander, "fine").ok());
  (void)storage::RemoveFile(victim);
  ASSERT_TRUE(storage::RemoveFile(bystander).ok());
}

// Exercised under TSan in CI: pool threads hammer the armed injector while
// the main thread reads counters and re-arms.
TEST(FaultInjectionTest, ConcurrentConsultsAreRaceFree) {
  FaultPlan plan;
  plan.op = "write";
  plan.fail_index = UINT64_MAX;
  FaultInjector::Disk().Arm(plan);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      const std::string path = "/tmp/thread_" + std::to_string(t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        size_t len = 64;
        FaultInjector::Disk().Consult("write", path, &len);
        FaultInjector::Disk().Consult("read", path);
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    (void)FaultInjector::Disk().ops_matched();
    (void)FaultInjector::Disk().armed();
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(FaultInjector::Disk().ops_matched(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(FaultInjector::Disk().faults_injected(), 0u);
  FaultInjector::Disk().Disarm();
}

// CURE_NET_FAULT specs map onto plan fields through the kind table:
// refused/reset/stall set the errno, shortwrite the fraction, delay/stall
// the sleep (defaults 20 ms and 0.5).
TEST(FaultInjectionTest, NetworkSpecMapsToPlanFields) {
  struct Case {
    const char* spec;
    int error;
    double short_fraction;
    double delay_seconds;
  };
  const Case cases[] = {
      {"", ECONNRESET, 0, 0},
      {"kind=refused", ECONNREFUSED, 0, 0},
      {"kind=reset", ECONNRESET, 0, 0},
      {"kind=shortwrite", 0, 0.5, 0},
      {"kind=shortwrite;frac=0.25", 0, 0.25, 0},
      {"kind=delay", 0, 0, 0.02},
      {"op=read;kind=delay;delay_ms=120", 0, 0, 0.12},
      {"delay_ms=120;kind=delay;", 0, 0, 0.12},
      {"kind=stall;delay_ms=5", ETIMEDOUT, 0, 0.005},
      {"kind=reset;delay_ms=50;frac=0.3", ECONNRESET, 0, 0},
  };
  for (const Case& c : cases) {
    Result<FaultPlan> plan = ParseNetFaultSpec(c.spec);
    ASSERT_TRUE(plan.ok()) << c.spec << ": " << plan.status().ToString();
    EXPECT_EQ(plan->error, c.error) << c.spec;
    EXPECT_DOUBLE_EQ(plan->short_fraction, c.short_fraction) << c.spec;
    EXPECT_DOUBLE_EQ(plan->delay_seconds, c.delay_seconds) << c.spec;
    EXPECT_EQ(plan->fail_index, 0u) << c.spec;
    EXPECT_FALSE(plan->once) << c.spec;
  }

  Result<FaultPlan> full =
      ParseNetFaultSpec("op=connect;endpoint=:7101;index=3;once=1");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->op, "connect");
  EXPECT_EQ(full->target_substr, ":7101");
  EXPECT_EQ(full->fail_index, 3u);
  EXPECT_TRUE(full->once);
}

TEST(FaultInjectionTest, MalformedNetworkSpecIsRejected) {
  const struct {
    const char* spec;
    const char* bad_pair;
  } cases[] = {
      {"kind=dealy", "kind=dealy"},
      {"ops=read;kind=delay", "ops=read"},
      {"op=read;kind", "kind"},
      {"op=raed", "op=raed"},
      {"kind=delay;delay_ms=fast", "delay_ms=fast"},
      {"delay_ms=-5", "delay_ms=-5"},
      {"kind=shortwrite;frac=half", "frac=half"},
      {"frac=1.5", "frac=1.5"},
      {"index=abc", "index=abc"},
      {"index=-1", "index=-1"},
      {"index=", "index="},
      {"once=yes", "once=yes"},
  };
  for (const auto& c : cases) {
    Result<FaultPlan> plan = ParseNetFaultSpec(c.spec);
    ASSERT_FALSE(plan.ok()) << c.spec;
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument) << c.spec;
    EXPECT_NE(plan.status().message().find("'" + std::string(c.bad_pair) +
                                           "'"),
              std::string::npos)
        << c.spec << ": " << plan.status().ToString();
  }
}

}  // namespace
}  // namespace cure
