// Network fault sweep — the cluster sibling of fault_sweep_test (which
// sweeps storage I/O). A 3-shard loopback cluster of real CubeServers runs
// a scatter query once in COUNTING mode to enumerate every socket operation
// the session performs (connect/write/read on the client side, accept/read/
// write on the server side), then replays the query failing each operation
// with each fault kind and asserts the only observable outcomes are
//
//   - a response bit-identical to the single-node server (the fault was
//     healed by a write-loop retry, a failover, or landed after the
//     exchange), or
//   - a clean ERR whose status is failover-class (IOError or
//     DeadlineExceeded) — never a hang, a crash, or a garbled relation.
//
// Transient faults (once=true) must ALWAYS heal: one socket-level glitch
// against a 2-replica shard never reaches the client. Sticky faults model
// dead peers and may exhaust replicas into a clean ERR.
//
// The PARTIAL phase drops whole shards (sticky faults keyed to the shard's
// endpoint) under --allow-partial semantics and proves the degraded answer
// "OK ... PARTIAL shards=2/3" equals the exact merge of the surviving
// shards — precomputed as leave-one-out references over submaps.
//
// Runs under TSan in CI: the sweep doubles as a race hunt over the hedged
// scatter machinery's failure paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "engine/cure.h"
#include "gen/datasets.h"
#include "gen/random.h"
#include "gen/zipf.h"
#include "router/router.h"
#include "router/shard_map.h"
#include "serve/cube_server.h"
#include "serve/tcp_server.h"

namespace cure {
namespace {

using engine::BuildCure;
using engine::CureOptions;
using engine::FactInput;
using router::BackendAddress;
using router::CureRouter;
using router::RouterOptions;
using router::ShardMap;
using serve::CubeServer;
using serve::CubeServerOptions;
using serve::TcpLineServer;
using serve::TcpServerOptions;

// Zipf-skewed hierarchical dataset with all four distributive aggregates —
// identical in shape to router_test's so per-shard partials genuinely
// overlap on hot groups and a garbled merge cannot checksum-collide.
gen::Dataset MakeZipfHier(uint64_t tuples, uint64_t seed) {
  gen::Dataset ds;
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Linear("A", {24, 6, 2}));
  dims.push_back(schema::Dimension::Linear("B", {9, 3}));
  dims.push_back(schema::Dimension::Flat("C", 5));
  auto schema = schema::CubeSchema::Create(
      std::move(dims), 1,
      {{schema::AggFn::kSum, 0, "s"},
       {schema::AggFn::kCount, 0, "c"},
       {schema::AggFn::kMin, 0, "lo"},
       {schema::AggFn::kMax, 0, "hi"}});
  EXPECT_TRUE(schema.ok());
  ds.schema = std::move(schema).value();
  ds.table = schema::FactTable(3, 1);
  gen::Rng rng(seed);
  gen::ZipfSampler za(24, 1.1), zb(9, 0.9), zc(5, 0.7);
  for (uint64_t t = 0; t < tuples; ++t) {
    const uint32_t row[3] = {za.Sample(&rng), zb.Sample(&rng), zc.Sample(&rng)};
    const int64_t m = static_cast<int64_t>(rng.NextRange(1000));
    ds.table.AppendRow(row, &m);
  }
  return ds;
}

std::vector<schema::FactTable> SplitTable(const schema::FactTable& table,
                                          int parts) {
  std::vector<schema::FactTable> out;
  const uint64_t rows = table.num_rows();
  std::vector<uint32_t> dims(table.num_dims());
  std::vector<int64_t> measures(table.num_measures());
  for (int k = 0; k < parts; ++k) {
    schema::FactTable part(table.num_dims(), table.num_measures());
    const uint64_t begin = rows * k / parts;
    const uint64_t end = rows * (k + 1) / parts;
    for (uint64_t row = begin; row < end; ++row) {
      for (int d = 0; d < table.num_dims(); ++d) dims[d] = table.dim(d, row);
      for (int m = 0; m < table.num_measures(); ++m) {
        measures[m] = table.measure(m, row);
      }
      part.AppendRow(dims.data(), measures.data());
    }
    out.push_back(std::move(part));
  }
  return out;
}

std::unique_ptr<engine::CureCube> BuildCubeFor(
    const schema::CubeSchema& schema, const schema::FactTable& table) {
  FactInput input{.table = &table};
  auto built = BuildCure(schema, input, CureOptions{});
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

/// A response reduced to its provenance-free identity: verdict, row count,
/// checksum token and sorted body rows (trace ids and cache tokens differ
/// legitimately between routers).
struct Fingerprint {
  bool ok = false;
  uint64_t count = 0;
  std::string checksum;
  std::string err_code;  // first token after "ERR"
  std::vector<std::string> rows;

  bool operator==(const Fingerprint& other) const {
    return ok == other.ok && count == other.count &&
           checksum == other.checksum && rows == other.rows;
  }
};

Fingerprint FingerprintOf(const std::string& response) {
  Fingerprint out;
  std::istringstream in(response);
  std::string header;
  EXPECT_TRUE(static_cast<bool>(std::getline(in, header))) << response;
  std::istringstream fields(header);
  std::string verdict;
  fields >> verdict;
  out.ok = verdict == "OK";
  if (!out.ok) {
    fields >> out.err_code;
    return out;
  }
  fields >> out.count >> out.checksum;
  std::string row;
  while (std::getline(in, row)) {
    if (row == ".") break;
    out.rows.push_back(row);
  }
  std::sort(out.rows.begin(), out.rows.end());
  return out;
}

/// Three shards, two replica server stacks each, plus the single-node
/// reference server. Routers are minted FRESH per fault case so breaker and
/// pool state never leaks between sweep points.
struct SweepCluster {
  gen::Dataset ds;
  std::vector<schema::FactTable> parts;
  std::unique_ptr<engine::CureCube> whole_cube;
  std::unique_ptr<CubeServer> whole_server;
  std::unique_ptr<TcpLineServer> whole_tcp;
  std::vector<std::unique_ptr<engine::CureCube>> shard_cubes;
  std::vector<std::vector<std::unique_ptr<CubeServer>>> servers;
  std::vector<std::vector<std::unique_ptr<TcpLineServer>>> tcps;
  ShardMap map;

  explicit SweepCluster(uint64_t tuples = 900, uint64_t seed = 41) {
    ds = MakeZipfHier(tuples, seed);
    whole_cube = BuildCubeFor(ds.schema, ds.table);
    whole_server = MakeServer(whole_cube.get());
    whole_tcp = MakeTcp(whole_server.get());
    parts = SplitTable(ds.table, 3);
    for (const auto& part : parts) {
      shard_cubes.push_back(BuildCubeFor(ds.schema, part));
      servers.emplace_back();
      tcps.emplace_back();
      std::vector<BackendAddress> replicas;
      for (int r = 0; r < 2; ++r) {
        servers.back().push_back(MakeServer(shard_cubes.back().get()));
        tcps.back().push_back(MakeTcp(servers.back().back().get()));
        replicas.push_back({"127.0.0.1", tcps.back().back()->port()});
      }
      map.shards.push_back(std::move(replicas));
    }
  }

  static std::unique_ptr<CubeServer> MakeServer(const engine::CureCube* cube) {
    CubeServerOptions options;
    options.num_threads = 2;
    auto server = CubeServer::Create(cube, options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return std::move(server).value();
  }

  static std::unique_ptr<TcpLineServer> MakeTcp(CubeServer* server) {
    auto tcp = TcpLineServer::Start(server, TcpServerOptions{});
    EXPECT_TRUE(tcp.ok()) << tcp.status().ToString();
    return std::move(tcp).value();
  }

  /// Sweep-tuned options: fast backoff, short timeouts so sticky stalls
  /// fail in milliseconds.
  static RouterOptions SweepOptions() {
    RouterOptions options;
    options.backend_timeout_seconds = 2.0;
    options.backoff_initial_seconds = 0.001;
    options.backoff_cap_seconds = 0.01;
    options.retry_budget = 3;
    return options;
  }

  std::unique_ptr<CureRouter> MakeRouter(const ShardMap& use_map,
                                         const RouterOptions& options) {
    auto router = CureRouter::Create(&ds.schema, use_map, options);
    EXPECT_TRUE(router.ok()) << router.status().ToString();
    return std::move(router).value();
  }
};

const char kSweepQuery[] = "QUERY A_L1,B_L1";

// Every network fault kind as plan fields (DESIGN.md §11), with sleeps
// shrunk so a sweep of hundreds of cases stays inside a CI-friendly budget.
struct FaultKind {
  const char* name;
  int error;
  double short_fraction;
  double delay_seconds;
};
const FaultKind kRefused = {"refused", ECONNREFUSED, 0, 0};
const FaultKind kReset = {"reset", ECONNRESET, 0, 0};
const FaultKind kShortWrite = {"shortwrite", 0, 0.5, 0};
const FaultKind kDelay = {"delay", 0, 0, 0.001};
const FaultKind kStall = {"stall", ETIMEDOUT, 0, 0.001};

FaultPlan PlanFor(const FaultKind& kind, uint64_t index, bool once) {
  FaultPlan plan;
  plan.fail_index = index;
  plan.once = once;
  plan.error = kind.error;
  plan.short_fraction = kind.short_fraction;
  plan.delay_seconds = kind.delay_seconds;
  return plan;
}

TEST(RouterFaultSweepTest, EveryNetworkOpFailsCleanOrHeals) {
  SweepCluster fx;
  const Fingerprint reference =
      FingerprintOf(fx.whole_tcp->HandleLine(kSweepQuery));
  ASSERT_TRUE(reference.ok);
  ASSERT_GT(reference.count, 0u);

  // Phase 0 — counting mode: fail_index = UINT64_MAX never fires, it only
  // counts the session's matching socket operations.
  uint64_t total_ops = 0;
  {
    ScopedFaultInjection scoped(FaultInjector::Net(),
                                PlanFor(kReset, UINT64_MAX, /*once=*/false));
    auto router = fx.MakeRouter(fx.map, SweepCluster::SweepOptions());
    const Fingerprint counted = FingerprintOf(router->HandleLine(kSweepQuery));
    EXPECT_EQ(counted, reference);
    router.reset();  // drain in-flight attempts before reading the count
    total_ops = scoped.ops_matched();
  }
  ASSERT_GT(total_ops, 6u) << "expected at least connect+write+read per shard";
  SCOPED_TRACE("session performs " + std::to_string(total_ops) +
               " network ops");

  // Phase 1 — transient glitches (once=true). A single socket-level fault
  // against 2-replica shards must NEVER surface: short writes heal in the
  // write loop, delays just slow the exchange, refused/reset/stall fail
  // over to the sibling replica. Bit-identical result required every time.
  const FaultKind all_kinds[] = {kRefused, kReset, kShortWrite, kDelay,
                                 kStall};
  for (size_t k = 0; k < 5; ++k) {
    for (uint64_t index = 0; index < total_ops; ++index) {
      ScopedFaultInjection scoped(
          FaultInjector::Net(), PlanFor(all_kinds[k], index, /*once=*/true));
      auto router = fx.MakeRouter(fx.map, SweepCluster::SweepOptions());
      const Fingerprint got = FingerprintOf(router->HandleLine(kSweepQuery));
      EXPECT_EQ(got, reference)
          << "transient " << all_kinds[k].name << " at op " << index
          << (got.ok ? " garbled the relation" : " leaked an ERR to the client");
    }
  }

  // Phase 2 — sticky dead-peer faults. From the failing index on, every
  // matching op fails; the router either dodges it entirely (the index lay
  // beyond this run's op stream) or reports a clean failover-class ERR.
  // Sticky shortwrite/delay never break an exchange, so they must stay
  // bit-identical even when applied forever.
  for (size_t k = 0; k < 5; ++k) {
    const bool lossless = all_kinds[k].error == 0;
    for (uint64_t index = 0; index < total_ops; ++index) {
      ScopedFaultInjection scoped(
          FaultInjector::Net(), PlanFor(all_kinds[k], index, /*once=*/false));
      auto router = fx.MakeRouter(fx.map, SweepCluster::SweepOptions());
      const Fingerprint got = FingerprintOf(router->HandleLine(kSweepQuery));
      if (lossless || got.ok) {
        EXPECT_EQ(got, reference)
            << "sticky " << all_kinds[k].name << " at op " << index;
      } else {
        EXPECT_TRUE(got.err_code == "IOError" ||
                    got.err_code == "DeadlineExceeded")
            << "sticky " << all_kinds[k].name << " at op " << index
            << " produced unclean failure: " << got.err_code;
      }
    }
  }
}

TEST(RouterFaultSweepTest, RoutedQueryNeverReachesTheDiskInjector) {
  // Counting plans on both injectors, every op name: a routed query's
  // socket ops land on Net() only, even though "read" and "write" are disk
  // ops too.
  SweepCluster fx;
  FaultPlan counter;
  counter.fail_index = UINT64_MAX;
  ScopedFaultInjection disk(FaultInjector::Disk(), counter);
  ScopedFaultInjection net(FaultInjector::Net(), counter);
  auto router = fx.MakeRouter(fx.map, SweepCluster::SweepOptions());
  const Fingerprint got = FingerprintOf(router->HandleLine(kSweepQuery));
  EXPECT_TRUE(got.ok);
  router.reset();
  EXPECT_GT(net.ops_matched(), 6u);
  EXPECT_EQ(disk.ops_matched(), 0u);
}

TEST(RouterFaultSweepTest, PartialAnswersEqualSurvivingShardsMerge) {
  SweepCluster fx;
  // One replica per shard: a sticky fault keyed to the replica's port kills
  // the whole shard, which is exactly what PARTIAL is for.
  ShardMap solo;
  for (const auto& shard : fx.map.shards) solo.shards.push_back({shard[0]});

  const std::vector<std::string> workload = {
      "QUERY ALL",
      "QUERY A_L1,B_L1",
      "ICEBERG A_L0,B_L0 3",
      "SLICE A_L0,B_L0 A_L2=0",
  };

  // Leave-one-out references: a fresh fault-free router over the two
  // surviving shards IS the exact degraded answer.
  std::vector<std::vector<Fingerprint>> leave_one_out(solo.num_shards());
  for (int down = 0; down < solo.num_shards(); ++down) {
    ShardMap submap;
    for (int s = 0; s < solo.num_shards(); ++s) {
      if (s != down) submap.shards.push_back(solo.shards[s]);
    }
    auto router = fx.MakeRouter(submap, SweepCluster::SweepOptions());
    for (const std::string& line : workload) {
      leave_one_out[down].push_back(FingerprintOf(router->HandleLine(line)));
      ASSERT_TRUE(leave_one_out[down].back().ok);
    }
  }

  const FaultKind shard_killers[] = {kRefused, kReset, kStall};
  RouterOptions partial_options = SweepCluster::SweepOptions();
  partial_options.allow_partial = true;
  partial_options.retry_budget = 1;
  for (int down = 0; down < solo.num_shards(); ++down) {
    for (size_t k = 0; k < 3; ++k) {
      FaultPlan plan = PlanFor(shard_killers[k], 0, /*once=*/false);
      plan.target_substr = ":" + std::to_string(solo.shards[down][0].port);
      ScopedFaultInjection scoped(FaultInjector::Net(), plan);
      auto router = fx.MakeRouter(solo, partial_options);
      for (size_t q = 0; q < workload.size(); ++q) {
        const std::string response = router->HandleLine(workload[q]);
        EXPECT_NE(response.find(" PARTIAL shards=2/3"), std::string::npos)
            << "shard " << down << " down via " << shard_killers[k].name << ": "
            << response;
        EXPECT_EQ(FingerprintOf(response), leave_one_out[down][q])
            << "degraded answer drifted from the surviving shards' merge "
            << "(shard " << down << " down via " << shard_killers[k].name << ", "
            << workload[q] << ")";
      }
      EXPECT_GT(router->metrics()->counter("partial_total")->value(), 0u);
    }
  }

  // Strict mode (the default) refuses to degrade: same dead shard, ERR.
  {
    FaultPlan plan = PlanFor(kRefused, 0, /*once=*/false);
    plan.target_substr = ":" + std::to_string(solo.shards[1][0].port);
    ScopedFaultInjection scoped(FaultInjector::Net(), plan);
    auto router = fx.MakeRouter(solo, SweepCluster::SweepOptions());
    const Fingerprint got = FingerprintOf(router->HandleLine("QUERY ALL"));
    EXPECT_FALSE(got.ok);
    EXPECT_EQ(got.err_code, "IOError");
  }
}

}  // namespace
}  // namespace cure
