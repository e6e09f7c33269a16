// Concurrent node queries over a disk-resident cube: threads sharing one
// CureQueryEngine over a packed, reopened cube whose row-ids resolve into a
// fact file must each get the serial (count, checksum) of every node. Every
// query then runs the file-backed row-id dereference (the span gather of
// the buffer cache, pinned rows and misses mixed) at once on several
// threads. The largest nodes span several dereference chunks, so the
// threads share the engine's dereference pool, whose workers dereference
// and emit chunks into chunk-local sinks, and handle chunks on their own
// thread when it is busy. Built with -fsanitize=thread
// in the CI tsan job, this proves that dereference keeps its scratch per
// call and per chunk.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "engine/cure.h"
#include "gen/datasets.h"
#include "gen/random.h"
#include "gen/zipf.h"
#include "query/node_query.h"
#include "schema/node_id.h"
#include "temp_dir.h"

namespace cure {
namespace {

using query::CureQueryEngine;
using query::ResultSink;
using schema::NodeId;

// Hierarchical Zipf data: skewed dimensions, so node relations hold NTs,
// TTs and CATs whose row-ids reach all over the fact table; the wide,
// long-tailed first dimension makes most leaf cells singletons.
gen::Dataset MakeZipfDataset(uint64_t tuples, uint64_t seed) {
  gen::Dataset ds;
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Linear("A", {30000, 300, 3}));
  dims.push_back(schema::Dimension::Linear("B", {40, 5}));
  dims.push_back(schema::Dimension::Flat("C", 7));
  Result<schema::CubeSchema> schema = schema::CubeSchema::Create(
      std::move(dims), 1,
      {{schema::AggFn::kSum, 0, "sum"}, {schema::AggFn::kCount, 0, "cnt"}});
  EXPECT_TRUE(schema.ok());
  ds.schema = std::move(schema).value();
  ds.table = schema::FactTable(3, 1);
  gen::Rng rng(seed);
  gen::ZipfSampler zipf_a(30000, 0.8);
  gen::ZipfSampler zipf_b(40, 0.5);
  for (uint64_t t = 0; t < tuples; ++t) {
    const uint32_t row[3] = {zipf_a.Sample(&rng), zipf_b.Sample(&rng),
                             static_cast<uint32_t>(rng.NextRange(7))};
    const int64_t m = static_cast<int64_t>(rng.NextRange(100));
    ds.table.AppendRow(row, &m);
  }
  return ds;
}

struct Answer {
  uint64_t count = 0;
  uint64_t checksum = 0;
  uint64_t iceberg_count = 0;
  uint64_t iceberg_checksum = 0;
  bool operator==(const Answer& o) const {
    return count == o.count && checksum == o.checksum &&
           iceberg_count == o.iceberg_count &&
           iceberg_checksum == o.iceberg_checksum;
  }
};

// The plain and the COUNT >= 2 iceberg answer of node `id`.
Answer Ask(const CureQueryEngine& engine, NodeId id) {
  Answer a;
  ResultSink sink;
  EXPECT_TRUE(engine.QueryNode(id, &sink).ok()) << "node " << id;
  a.count = sink.count();
  a.checksum = sink.checksum();
  sink.Reset();
  EXPECT_TRUE(engine.QueryNodeCountIceberg(id, 1, 2, &sink).ok())
      << "node " << id;
  a.iceberg_count = sink.count();
  a.iceberg_checksum = sink.checksum();
  return a;
}

TEST(ConcurrentQueryTest, FileBackedCubeAnswersMatchSerial) {
  const test::ScopedTempDir tmp("concurrent_query");
  const gen::Dataset ds = MakeZipfDataset(100000, 4242);
  Result<storage::Relation> fact = storage::Relation::CreateFile(
      tmp.File("fact.bin"), ds.table.RecordSize());
  ASSERT_TRUE(fact.ok()) << fact.status().ToString();
  ASSERT_TRUE(ds.table.WriteTo(&fact.value()).ok());
  ASSERT_TRUE(fact->Seal().ok());

  const std::string packed = tmp.File("cube.bin");
  {
    engine::FactInput input{.relation = &fact.value()};
    Result<std::unique_ptr<engine::CureCube>> built =
        engine::BuildCure(ds.schema, input, engine::CureOptions{});
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_TRUE((*built)->mutable_store().PersistPacked(packed).ok());
  }
  Result<std::unique_ptr<engine::CureCube>> cube =
      engine::CureCube::OpenPersisted(ds.schema, packed, &fact.value());
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  // A quarter of the fact table pinned: requests mix cache hits with
  // gathers from the mapped file.
  Result<std::unique_ptr<CureQueryEngine>> engine =
      CureQueryEngine::Create(cube->get(), 0.25);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE((*engine)->sources().reads_files());

  const NodeId num_nodes = (*cube)->store().codec().num_nodes();
  std::vector<Answer> serial(num_nodes);
  for (NodeId id = 0; id < num_nodes; ++id) serial[id] = Ask(**engine, id);
  // The base node (every dimension at its leaf) spans several chunks.
  ASSERT_GT(serial[0].count, 3 * query::kDereferenceChunkRows);

  // Each thread walks every node twice from its own starting point, so
  // different nodes' dereferences overlap, and counts its wrong answers.
  constexpr int kThreads = 4;
  std::vector<std::vector<int>> wrong(kThreads, std::vector<int>(num_nodes));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (NodeId k = 0; k < 2 * num_nodes; ++k) {
        const NodeId id = (k + t * num_nodes / kThreads) % num_nodes;
        if (!(Ask(**engine, id) == serial[id])) ++wrong[t][id];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (NodeId id = 0; id < num_nodes; ++id) {
      EXPECT_EQ(wrong[t][id], 0) << "thread " << t << " node " << id;
    }
  }
}

}  // namespace
}  // namespace cure
