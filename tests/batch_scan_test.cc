// Differential property tests of the columnar block scan path (DESIGN.md
// §13), checked against the brute-force reference of query/reference.h.
// Over memory- and file-backed fact relations of skewed (Zipf) data, the
// build's block loads, level histograms and edge sorts must yield cubes
// whose every node query matches the reference as a set, for CURE (in
// memory and external), BUC and BU-BST. The query block size is a pure
// performance knob: at block sizes 1, 7 and 1024 the readers retain the
// same rows in the same order. The sorted, coalesced row-id dereference
// must keep that order and surface read faults as errors.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "engine/buc.h"
#include "engine/bubst.h"
#include "engine/cure.h"
#include "engine/partition.h"
#include "gen/datasets.h"
#include "gen/random.h"
#include "gen/zipf.h"
#include "query/node_query.h"
#include "query/reference.h"
#include "schema/node_id.h"
#include "storage/file_io.h"
#include "temp_dir.h"

namespace cure {
namespace {

using engine::BuildCure;
using engine::CureCube;
using engine::CureOptions;
using engine::FactInput;
using gen::Dataset;
using query::CureQueryEngine;
using query::ResultSink;
using schema::NodeId;

// Query block sizes: the default first, then one-row blocks and a small odd
// size whose blocks end mid-relation. Rows at the others are compared, in
// order, with the default's.
const size_t kBlockSizes[] = {1024, 1, 7};

// Hierarchical Zipf dataset: skewed first dimension (exercises the counting
// sort under skew), one SUM and one COUNT aggregate.
Dataset MakeZipfDataset(uint64_t tuples, uint64_t seed) {
  Dataset ds;
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Linear("A", {48, 4, 2}));
  dims.push_back(schema::Dimension::Linear("B", {10, 3}));
  dims.push_back(schema::Dimension::Flat("C", 5));
  Result<schema::CubeSchema> schema = schema::CubeSchema::Create(
      std::move(dims), 1,
      {{schema::AggFn::kSum, 0, "sum"}, {schema::AggFn::kCount, 0, "cnt"}});
  EXPECT_TRUE(schema.ok());
  ds.schema = std::move(schema).value();
  ds.table = schema::FactTable(3, 1);
  gen::Rng rng(seed);
  gen::ZipfSampler zipf_a(48, 0.9);
  gen::ZipfSampler zipf_b(10, 0.5);
  for (uint64_t t = 0; t < tuples; ++t) {
    const uint32_t dims_row[3] = {zipf_a.Sample(&rng), zipf_b.Sample(&rng),
                                  static_cast<uint32_t>(rng.NextRange(5))};
    const int64_t m = static_cast<int64_t>(rng.NextRange(40));
    ds.table.AppendRow(dims_row, &m);
  }
  return ds;
}

Result<storage::Relation> MakeFileRelation(const Dataset& ds,
                                           const std::string& path) {
  CURE_ASSIGN_OR_RETURN(storage::Relation rel, storage::Relation::CreateFile(
                                                   path, ds.table.RecordSize()));
  CURE_RETURN_IF_ERROR(ds.table.WriteTo(&rel));
  CURE_RETURN_IF_ERROR(rel.Seal());
  return rel;
}

// Wide, skewed leaf cardinalities: most base-node cells are singletons, so
// the base node's trivial tuples outnumber one dereference chunk, while the
// Zipf head still yields NTs and CATs.
Dataset MakeWideZipfDataset(uint64_t tuples, uint64_t seed,
                            uint32_t a_leaf = 4000) {
  Dataset ds;
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Linear("A", {a_leaf, 40, 4}));
  dims.push_back(schema::Dimension::Linear("B", {60, 6}));
  dims.push_back(schema::Dimension::Flat("C", 7));
  Result<schema::CubeSchema> schema = schema::CubeSchema::Create(
      std::move(dims), 1,
      {{schema::AggFn::kSum, 0, "sum"}, {schema::AggFn::kCount, 0, "cnt"}});
  EXPECT_TRUE(schema.ok());
  ds.schema = std::move(schema).value();
  ds.table = schema::FactTable(3, 1);
  gen::Rng rng(seed);
  gen::ZipfSampler zipf_a(a_leaf, 0.9);
  gen::ZipfSampler zipf_b(60, 0.6);
  for (uint64_t t = 0; t < tuples; ++t) {
    const uint32_t dims_row[3] = {zipf_a.Sample(&rng), zipf_b.Sample(&rng),
                                  static_cast<uint32_t>(rng.NextRange(7))};
    const int64_t m = static_cast<int64_t>(rng.NextRange(50));
    ds.table.AppendRow(dims_row, &m);
  }
  return ds;
}

// One query shape: slices plus a COUNT (aggregate 1) iceberg threshold.
struct QueryShape {
  const char* name;
  std::vector<CureQueryEngine::Slice> slices;
  int64_t min_count;
};

std::vector<QueryShape> DerefShapes(const schema::CubeSchema& schema) {
  // Slice values from the Zipf head, so the slices keep rows.
  const uint32_t a1 = schema.dim(0).CodeAt(0, 1);
  const uint32_t b1 = schema.dim(1).CodeAt(0, 1);
  return {{"plain", {}, 0},
          {"iceberg", {}, 3},
          {"slice", {{0, 1, a1}}, 0},
          {"slice2+iceberg", {{0, 1, a1}, {1, 1, b1}}, 2}};
}

// The reference answer of `shape` at node `id`: brute-force aggregation,
// then the iceberg and slice filters. Empty when a slice is coarser than
// the node's level (the engine rejects that query).
std::vector<ResultSink::Row> ReferenceRows(const Dataset& ds, NodeId id,
                                           const QueryShape& shape) {
  const std::vector<int> levels = schema::NodeIdCodec(ds.schema).Decode(id);
  for (const CureQueryEngine::Slice& slice : shape.slices) {
    if (levels[slice.dim] > slice.level) return {};
  }
  Result<std::vector<ResultSink::Row>> rows =
      query::ReferenceNodeResult(ds.schema, ds.table, id);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<ResultSink::Row> kept;
  for (ResultSink::Row& row : rows.value()) {
    bool keep = row.aggrs[1] >= shape.min_count;
    for (const CureQueryEngine::Slice& slice : shape.slices) {
      int pos = 0;
      for (int d = 0; d < slice.dim; ++d) {
        if (levels[d] != ds.schema.dim(d).all_level()) ++pos;
      }
      const int level = levels[slice.dim];
      uint32_t code = row.dims[pos];
      if (level != slice.level) {
        code = ds.schema.dim(slice.dim).LevelToLevelMap(level, slice.level)
                   .value()[code];
      }
      keep = keep && code == slice.code;
    }
    if (keep) kept.push_back(std::move(row));
  }
  return kept;
}

bool SameRowsInOrder(const std::vector<ResultSink::Row>& a,
                     const std::vector<ResultSink::Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].dims != b[i].dims || a[i].aggrs != b[i].aggrs) return false;
  }
  return true;
}

// Reference answers of every node ([node][shape], shapes of DerefShapes).
using Answers = std::vector<std::vector<std::vector<ResultSink::Row>>>;

Answers ReferenceAnswers(const Dataset& ds) {
  const schema::NodeIdCodec codec(ds.schema);
  const std::vector<QueryShape> shapes = DerefShapes(ds.schema);
  Answers reference(codec.num_nodes());
  for (NodeId id = 0; id < codec.num_nodes(); ++id) {
    for (const QueryShape& shape : shapes) {
      reference[id].push_back(ReferenceRows(ds, id, shape));
    }
  }
  return reference;
}

// Every node's answer to every query shape, at every block size: the same
// rows in the same order as at the default block size, and the reference
// as a set. Returns the largest answer's row count.
size_t ExpectBlockSizesAgreeWithReference(CureQueryEngine* eng,
                                          const Dataset& ds,
                                          const Answers& reference) {
  const std::vector<QueryShape> shapes = DerefShapes(ds.schema);
  size_t max_rows = 0;
  for (NodeId id = 0; id < reference.size(); ++id) {
    for (size_t s = 0; s < shapes.size(); ++s) {
      const QueryShape& shape = shapes[s];
      SCOPED_TRACE("node " + std::to_string(id) + " " + shape.name);
      std::optional<Status> first_status;
      std::vector<ResultSink::Row> first;
      for (size_t block_rows : kBlockSizes) {
        SCOPED_TRACE("block rows " + std::to_string(block_rows));
        eng->set_batch_rows(block_rows);
        ResultSink sink(/*retain=*/true);
        const Status status = eng->QueryNodeSlicedIceberg(
            id, shape.slices, 1, shape.min_count, &sink);
        if (!first_status) {
          first_status = status;
          if (!status.ok()) continue;  // slice on a coarser node
          EXPECT_TRUE(query::SameResults(sink.rows(), reference[id][s]))
              << sink.rows().size() << " rows, reference "
              << reference[id][s].size();
          max_rows = std::max(max_rows, sink.rows().size());
          first = sink.TakeRows();
          continue;
        }
        EXPECT_EQ(status.ok(), first_status->ok()) << status.ToString();
        if (status.ok() && first_status->ok()) {
          EXPECT_TRUE(SameRowsInOrder(sink.rows(), first));
        }
      }
    }
  }
  return max_rows;
}

TEST(BatchScanBuildTest, MemoryRelationBuildMatchesReference) {
  Dataset ds = MakeZipfDataset(3000, 101);
  storage::Relation rel = storage::Relation::Memory(ds.table.RecordSize());
  ASSERT_TRUE(ds.table.WriteTo(&rel).ok());
  for (bool dims_in_nt : {false, true}) {
    SCOPED_TRACE(dims_in_nt ? "dims_in_nt" : "row-ids");
    CureOptions options;
    options.dims_in_nt = dims_in_nt;
    FactInput input{.relation = &rel};
    Result<std::unique_ptr<CureCube>> cube =
        BuildCure(ds.schema, input, options);
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    ASSERT_FALSE((*cube)->stats().external);
    Result<std::unique_ptr<CureQueryEngine>> eng =
        CureQueryEngine::Create(cube->get(), 1.0);
    ASSERT_TRUE(eng.ok()) << eng.status().ToString();
    ExpectBlockSizesAgreeWithReference(eng->get(), ds, ReferenceAnswers(ds));
  }
}

TEST(BatchScanBuildTest, ExternalFileBuildMatchesReference) {
  const test::ScopedTempDir tmp("batch_scan");
  Dataset ds = MakeZipfDataset(4000, 202);
  Result<storage::Relation> rel = MakeFileRelation(ds, tmp.File("fact.bin"));
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  CureOptions options;
  options.force_external = true;  // partition + per-partition + node-N path
  // Large enough for the Zipf-skewed heaviest leaf partition to fit, small
  // enough that the build still splits into several partitions.
  options.memory_budget_bytes = 96 * 1024;
  options.signature_pool_capacity = 256;
  FactInput input{.relation = &rel.value()};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  ASSERT_TRUE((*cube)->stats().external);
  ASSERT_GT((*cube)->stats().num_partitions, 1u);
  ASSERT_TRUE((*cube)->SpillStoreToDisk(tmp.File("pack.bin")).ok());
  Result<std::unique_ptr<CureQueryEngine>> eng =
      CureQueryEngine::Create(cube->get(), 0.5);
  ASSERT_TRUE(eng.ok()) << eng.status().ToString();
  ExpectBlockSizesAgreeWithReference(eng->get(), ds, ReferenceAnswers(ds));
}

TEST(BatchScanBuildTest, LevelHistogramsMatchFactTable) {
  const test::ScopedTempDir tmp("batch_scan");
  Dataset ds = MakeZipfDataset(2500, 303);
  Result<storage::Relation> rel = MakeFileRelation(ds, tmp.File("hist.bin"));
  ASSERT_TRUE(rel.ok());
  std::vector<cube::ValueRange> ranges;
  Result<std::vector<std::vector<uint64_t>>> hist =
      engine::ComputeLevelHistograms(rel.value(), ds.schema, &ranges);
  ASSERT_TRUE(hist.ok()) << hist.status().ToString();
  const schema::Dimension& a = ds.schema.dim(0);
  std::vector<std::vector<uint64_t>> expected(a.num_levels());
  for (int l = 0; l < a.num_levels(); ++l) expected[l].assign(a.cardinality(l), 0);
  for (uint64_t r = 0; r < ds.table.num_rows(); ++r) {
    for (int l = 0; l < a.num_levels(); ++l) {
      ++expected[l][a.CodeAt(ds.table.dim(0, r), l)];
    }
  }
  EXPECT_EQ(hist.value(), expected);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].lo, ds.table.measure_min(0));
  EXPECT_EQ(ranges[0].hi, ds.table.measure_max(0));
}

TEST(BatchScanQueryTest, BlockSizesAgreeWithReferenceInMemory) {
  Dataset ds = MakeZipfDataset(3000, 404);
  for (bool dims_in_nt : {false, true}) {
    SCOPED_TRACE(dims_in_nt ? "dims_in_nt" : "row-ids");
    CureOptions options;
    options.dims_in_nt = dims_in_nt;
    FactInput input{.table = &ds.table};
    Result<std::unique_ptr<CureCube>> cube =
        BuildCure(ds.schema, input, options);
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    Result<std::unique_ptr<CureQueryEngine>> eng =
        CureQueryEngine::Create(cube->get(), 1.0);
    ASSERT_TRUE(eng.ok());
    ExpectBlockSizesAgreeWithReference(eng->get(), ds, ReferenceAnswers(ds));
  }
}

TEST(BatchScanQueryTest, BlockSizesAgreeWithReferenceFileBacked) {
  const test::ScopedTempDir tmp("batch_scan");
  Dataset ds = MakeZipfDataset(3000, 505);
  Result<storage::Relation> rel = MakeFileRelation(ds, tmp.File("qfact.bin"));
  ASSERT_TRUE(rel.ok());
  FactInput input{.relation = &rel.value()};
  Result<std::unique_ptr<CureCube>> cube =
      BuildCure(ds.schema, input, CureOptions{});
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  // Spill the store so the block scanners really read files.
  ASSERT_TRUE((*cube)->SpillStoreToDisk(tmp.File("qpack.bin")).ok());
  Result<std::unique_ptr<CureQueryEngine>> eng =
      CureQueryEngine::Create(cube->get(), 0.5);
  ASSERT_TRUE(eng.ok());
  ExpectBlockSizesAgreeWithReference(eng->get(), ds, ReferenceAnswers(ds));
}

// ---- Sorted, coalesced row-id dereference (DESIGN.md §13) ----

struct DerefCase {
  const char* name;
  CureOptions options;
  bool cure_plus = false;
};

std::vector<DerefCase> DerefCases() {
  std::vector<DerefCase> cases(4);
  cases[0].name = "format_a";
  cases[0].options.forced_cat_format = cube::CatFormat::kFormatA;
  cases[1].name = "format_b";
  cases[1].options.forced_cat_format = cube::CatFormat::kFormatB;
  cases[2].name = "cure_plus_bitmaps";
  cases[2].cure_plus = true;
  cases[3].name = "external";
  cases[3].options.force_external = true;  // NTs reference R and node N
  cases[3].options.memory_budget_bytes = 192 * 1024;
  return cases;
}

// Per node and query shape, the retained rows at every block size must
// equal the default block size's, in order, at every fact-cache fraction,
// and match the brute-force reference as a set.
TEST(BatchScanDerefTest, CoalescedDereferenceKeepsRowsAndOrder) {
  const test::ScopedTempDir tmp("batch_scan");
  Dataset ds = MakeWideZipfDataset(30000, 808);
  const std::string rel_path = tmp.File("deref_fact.bin");
  Result<storage::Relation> rel = MakeFileRelation(ds, rel_path);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  const schema::NodeIdCodec codec(ds.schema);
  const Answers reference = ReferenceAnswers(ds);
  for (const DerefCase& c : DerefCases()) {
    SCOPED_TRACE(c.name);
    FactInput input{.relation = &rel.value()};
    Result<std::unique_ptr<CureCube>> cube =
        BuildCure(ds.schema, input, c.options);
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    if (c.cure_plus) {
      ASSERT_TRUE(engine::CurePostProcess(cube->get()).ok());
    }
    const std::string pack_path = tmp.File(std::string("deref_") + c.name);
    ASSERT_TRUE((*cube)->SpillStoreToDisk(pack_path).ok());

    // The case really exercises what it names.
    const cube::CubeStore& store = (*cube)->store();
    bool has_cat = false, has_bitmap = false, nt_fact = false, nt_n = false;
    for (NodeId id = 0; id < codec.num_nodes(); ++id) {
      const cube::CubeStore::NodeData* node = store.node(id);
      if (node == nullptr) continue;
      has_cat = has_cat || node->has_cat;
      has_bitmap = has_bitmap || node->tt_bitmap != nullptr;
      if (!node->has_nt) continue;
      storage::Relation::Scanner scan(node->nt);
      while (const uint8_t* rec = scan.Next()) {
        const uint32_t tag = cube::RowIdSource(store.layout().GetRowId(rec));
        nt_fact = nt_fact || tag == cube::kSourceFact;
        nt_n = nt_n || tag == cube::kSourceNodeN;
      }
      ASSERT_TRUE(scan.status().ok());
    }
    EXPECT_TRUE(has_cat);
    if (c.options.forced_cat_format != cube::CatFormat::kUndecided) {
      EXPECT_EQ(store.cat_format(), c.options.forced_cat_format);
    }
    if (c.cure_plus) {
      EXPECT_TRUE(has_bitmap);
    }
    if (c.options.force_external) {
      EXPECT_TRUE(nt_fact && nt_n);
    }

    bool crossed_chunk = false;
    for (double fraction : {0.0, 0.5, 1.0}) {
      SCOPED_TRACE("fact cache fraction " + std::to_string(fraction));
      Result<std::unique_ptr<CureQueryEngine>> eng =
          CureQueryEngine::Create(cube->get(), fraction);
      ASSERT_TRUE(eng.ok()) << eng.status().ToString();
      const size_t max_rows =
          ExpectBlockSizesAgreeWithReference(eng->get(), ds, reference);
      crossed_chunk = crossed_chunk || max_rows > query::kDereferenceChunkRows;
    }
    EXPECT_TRUE(crossed_chunk);
    cube->reset();
    ASSERT_TRUE(storage::RemoveFile(pack_path).ok());
  }
  ASSERT_TRUE(storage::RemoveFile(rel_path).ok());
}

// A read fault in the middle of a query's reads of the fact file or of the
// packed cube — coalesced dereference reads included — fails the query with
// that error at every block size.
TEST(BatchScanDerefTest, ReadFaultsFailTheQuery) {
  const test::ScopedTempDir tmp("batch_scan");
  Dataset ds = MakeWideZipfDataset(30000, 909);
  const std::string rel_path = tmp.File("fault_fact.bin");
  Result<storage::Relation> rel = MakeFileRelation(ds, rel_path);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  FactInput input{.relation = &rel.value()};
  Result<std::unique_ptr<CureCube>> cube =
      BuildCure(ds.schema, input, CureOptions{});
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  const std::string pack_path = tmp.File("fault_pack.bin");
  ASSERT_TRUE((*cube)->SpillStoreToDisk(pack_path).ok());
  Result<std::unique_ptr<CureQueryEngine>> eng =
      CureQueryEngine::Create(cube->get(), 0.0);
  ASSERT_TRUE(eng.ok()) << eng.status().ToString();
  const NodeId base = 0;  // every dimension at its leaf: the largest node

  for (const std::string& target : {rel_path, pack_path}) {
    for (size_t block_rows : kBlockSizes) {
      SCOPED_TRACE(target + " block rows " + std::to_string(block_rows));
      (*eng)->set_batch_rows(block_rows);
      uint64_t reads = 0;
      uint64_t rows = 0;
      {
        FaultPlan count;
        count.op = "read";
        count.target_substr = target;
        count.fail_index = UINT64_MAX;
        ScopedFaultInjection counting(FaultInjector::Disk(), count);
        ResultSink sink;
        ASSERT_TRUE((*eng)->QueryNode(base, &sink).ok());
        reads = counting.ops_matched();
        rows = sink.count();
      }
      ASSERT_GT(reads, 0u);
      if (target == rel_path) {
        // Coalesced: far fewer fact-file reads than dereferenced rows.
        EXPECT_LT(reads * 20, rows) << reads << " reads for " << rows << " rows";
      }
      for (uint64_t index : {uint64_t{0}, reads / 2, reads - 1}) {
        FaultPlan plan;
        plan.op = "read";
        plan.target_substr = target;
        plan.fail_index = index;
        plan.error = EIO;
        ScopedFaultInjection fault(FaultInjector::Disk(), plan);
        ResultSink sink;
        const Status s = (*eng)->QueryNode(base, &sink);
        EXPECT_EQ(s.code(), StatusCode::kIoError) << "read " << index << ": "
                                                  << s.ToString();
        EXPECT_NE(s.message().find(target), std::string::npos) << s.ToString();
        EXPECT_EQ(fault.faults_injected(), 1u);
      }
    }
  }
  cube->reset();
  ASSERT_TRUE(storage::RemoveFile(pack_path).ok());
  ASSERT_TRUE(storage::RemoveFile(rel_path).ok());
}

// ---- Pipelined dereference (DESIGN.md §13) ----

// Sets CURE_THREADS for a scope; a query engine reads it at Create.
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) {
    if (const char* old = std::getenv("CURE_THREADS")) old_ = old;
    setenv("CURE_THREADS", std::to_string(threads).c_str(), 1);
  }
  ~ScopedThreads() {
    if (old_) {
      setenv("CURE_THREADS", old_->c_str(), 1);
    } else {
      unsetenv("CURE_THREADS");
    }
  }

 private:
  std::optional<std::string> old_;
};

// A base node whose trivial tuples fill more dereference chunks than the
// largest pool here has workers, so full chunks are read on workers, wait
// in the queue at its bound and go inline when no worker is idle. At every
// worker count (none, one, seven) each node's rows must equal those of
// one-row blocks with no pool, in order, and the reference as a set. A read fault on the fact file
// at the first, a middle and the last read — the middle one sticky, failing
// every read after it on every thread — and a fault on the packed cube
// while fact chunks are in flight must each fail the query with IoError,
// and the engine must answer the next query correctly.
TEST(BatchScanDerefTest, PipelinedDereferenceKeepsRowsOrderAndErrors) {
  const test::ScopedTempDir tmp("batch_scan");
  const Dataset ds = MakeWideZipfDataset(260000, 1212, /*a_leaf=*/40000);
  const std::string rel_path = tmp.File("pipe_fact.bin");
  Result<storage::Relation> rel = MakeFileRelation(ds, rel_path);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  FactInput input{.relation = &rel.value()};
  Result<std::unique_ptr<CureCube>> cube =
      BuildCure(ds.schema, input, CureOptions{});
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  const std::string pack_path = tmp.File("pipe_pack.bin");
  ASSERT_TRUE((*cube)->SpillStoreToDisk(pack_path).ok());
  const schema::NodeIdCodec codec(ds.schema);
  const NodeId base = 0;

  std::vector<std::vector<ResultSink::Row>> one_row(codec.num_nodes());
  {
    const ScopedThreads env(1);
    Result<std::unique_ptr<CureQueryEngine>> eng =
        CureQueryEngine::Create(cube->get(), 0.0);
    ASSERT_TRUE(eng.ok()) << eng.status().ToString();
    (*eng)->set_batch_rows(1);
    for (NodeId id = 0; id < codec.num_nodes(); ++id) {
      ResultSink sink(/*retain=*/true);
      ASSERT_TRUE((*eng)->QueryNode(id, &sink).ok()) << "node " << id;
      one_row[id] = sink.TakeRows();
      Result<std::vector<ResultSink::Row>> reference =
          query::ReferenceNodeResult(ds.schema, ds.table, id);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      EXPECT_TRUE(query::SameResults(one_row[id], reference.value()))
          << "node " << id;
    }
  }
  // The base node fills more than ten chunks, most of them with the trivial
  // tuples of one part: more than seven workers' chunks plus the queue
  // bound's one chunk of slack.
  ASSERT_GT(one_row[base].size(), 10 * query::kDereferenceChunkRows);

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("CURE_THREADS=" + std::to_string(threads));
    const ScopedThreads env(threads);
    Result<std::unique_ptr<CureQueryEngine>> eng =
        CureQueryEngine::Create(cube->get(), 0.0);
    ASSERT_TRUE(eng.ok()) << eng.status().ToString();
    auto answers_base = [&] {
      ResultSink sink(/*retain=*/true);
      return (*eng)->QueryNode(base, &sink).ok() &&
             SameRowsInOrder(sink.rows(), one_row[base]);
    };
    for (NodeId id = 0; id < codec.num_nodes(); ++id) {
      ResultSink block(/*retain=*/true);
      ASSERT_TRUE((*eng)->QueryNode(id, &block).ok()) << "node " << id;
      EXPECT_TRUE(SameRowsInOrder(block.rows(), one_row[id])) << "node " << id;
    }

    auto count_reads = [&](const std::string& target) -> uint64_t {
      FaultPlan count;
      count.op = "read";
      count.target_substr = target;
      count.fail_index = UINT64_MAX;
      ScopedFaultInjection counting(FaultInjector::Disk(), count);
      ResultSink sink;
      EXPECT_TRUE((*eng)->QueryNode(base, &sink).ok());
      return counting.ops_matched();
    };
    const uint64_t reads = count_reads(rel_path);
    const uint64_t pack_reads = count_reads(pack_path);
    ASSERT_GT(reads, 9u);
    ASSERT_GT(pack_reads, 0u);
    struct Fault {
      const std::string* target;
      uint64_t index;
      bool once;
    };
    // The packed cube's last read belongs to the TT scan, which hands full
    // fact chunks to the pool as it goes: the scan fails with chunks in
    // flight.
    for (const Fault& f : {Fault{&rel_path, 0, true},
                           Fault{&rel_path, reads / 2, false},
                           Fault{&rel_path, reads - 1, true},
                           Fault{&pack_path, pack_reads - 1, true}}) {
      SCOPED_TRACE(*f.target + " read " + std::to_string(f.index));
      {
        FaultPlan plan;
        plan.op = "read";
        plan.target_substr = *f.target;
        plan.fail_index = f.index;
        plan.once = f.once;
        plan.error = EIO;
        ScopedFaultInjection fault(FaultInjector::Disk(), plan);
        ResultSink sink;
        const Status s = (*eng)->QueryNode(base, &sink);
        EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
        EXPECT_NE(s.message().find(*f.target), std::string::npos)
            << s.ToString();
        if (f.once) EXPECT_EQ(fault.faults_injected(), 1u);
      }
      EXPECT_TRUE(answers_base());
    }
  }
  cube->reset();
}

// The baselines' node queries scan in blocks of the default size: every
// node of BUC's per-node relations and of BU-BST's monolithic relation
// (spilled, so the scan reads a file) matches the reference.
TEST(BatchScanBaselineTest, BucMatchesReference) {
  Dataset ds = MakeZipfDataset(1200, 606);
  Result<std::unique_ptr<engine::BucCube>> cube =
      engine::BuildBuc(ds.schema, ds.table, {});
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  const query::BucQueryEngine eng(cube->get());
  const schema::NodeIdCodec codec((*cube)->schema());
  for (NodeId id = 0; id < codec.num_nodes(); ++id) {
    ResultSink sink(/*retain=*/true);
    ASSERT_TRUE(eng.QueryNode(id, &sink).ok());
    Result<std::vector<ResultSink::Row>> reference =
        query::ReferenceNodeResult((*cube)->schema(), ds.table, id);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_TRUE(query::SameResults(sink.rows(), reference.value()))
        << "node " << id;
  }
}

TEST(BatchScanBaselineTest, BubstMatchesReference) {
  const test::ScopedTempDir tmp("batch_scan");
  Dataset ds = MakeZipfDataset(1200, 707);
  Result<std::unique_ptr<engine::BubstCube>> cube =
      engine::BuildBubst(ds.schema, ds.table, {});
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  ASSERT_TRUE((*cube)->SpillToDisk(tmp.File("bubst.bin")).ok());
  // More than one block, the last one partial.
  ASSERT_GT((*cube)->monolithic().num_rows(), storage::kDefaultBlockRows);
  const query::BubstQueryEngine eng(cube->get());
  const schema::NodeIdCodec codec((*cube)->schema());
  for (NodeId id = 0; id < codec.num_nodes(); ++id) {
    ResultSink sink(/*retain=*/true);
    ASSERT_TRUE(eng.QueryNode(id, &sink).ok());
    Result<std::vector<ResultSink::Row>> reference =
        query::ReferenceNodeResult((*cube)->schema(), ds.table, id);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_TRUE(query::SameResults(sink.rows(), reference.value()))
        << "node " << id;
  }
}

}  // namespace
}  // namespace cure
