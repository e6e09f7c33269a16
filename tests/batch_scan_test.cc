// Differential property tests of the columnar batch scan path (DESIGN.md
// §13): the block size is a pure performance knob. For every batch_rows
// setting — scalar reference (1), a tiny odd size (3), and realistic block
// sizes (64, 1024) — over memory- and file-backed fact relations of skewed
// (Zipf) data, the build must produce byte-identical packed cubes and the
// readers identical (count, checksum) query results. The block path's
// sorted, coalesced row-id dereference must return the scalar path's rows
// in the scalar path's order, and surface read faults as errors.

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <fstream>
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

const size_t kBatchMatrix[] = {1, 3, 64, 1024};

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

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

Result<storage::Relation> MakeFileRelation(const Dataset& ds,
                                           const std::string& path) {
  CURE_ASSIGN_OR_RETURN(storage::Relation rel, storage::Relation::CreateFile(
                                                   path, ds.table.RecordSize()));
  CURE_RETURN_IF_ERROR(ds.table.WriteTo(&rel));
  CURE_RETURN_IF_ERROR(rel.Seal());
  return rel;
}

// Builds with the given batch_rows, persists the packed store, returns its
// bytes.
std::string BuildAndPack(const test::ScopedTempDir& tmp, const Dataset& ds,
                         const storage::Relation& rel, CureOptions options,
                         size_t batch_rows) {
  options.batch_rows = batch_rows;
  FactInput input{.relation = &rel};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  EXPECT_TRUE(cube.ok()) << cube.status().ToString();
  if (!cube.ok()) return "";
  const std::string path =
      tmp.File("pack_b" + std::to_string(batch_rows) + ".bin");
  Status s = (*cube)->store().PersistPacked(path);
  EXPECT_TRUE(s.ok()) << s.ToString();
  std::string bytes = ReadFileBytes(path);
  EXPECT_TRUE(storage::RemoveFile(path).ok());
  return bytes;
}

TEST(BatchScanBuildTest, ByteIdenticalPackedCubesMemoryBacked) {
  const test::ScopedTempDir tmp("batch_scan");
  Dataset ds = MakeZipfDataset(3000, 101);
  storage::Relation rel = storage::Relation::Memory(ds.table.RecordSize());
  ASSERT_TRUE(ds.table.WriteTo(&rel).ok());
  for (bool dims_in_nt : {false, true}) {
    CureOptions options;
    options.dims_in_nt = dims_in_nt;
    const std::string reference = BuildAndPack(tmp, ds, rel, options, 1);
    ASSERT_FALSE(reference.empty());
    for (size_t batch : kBatchMatrix) {
      if (batch == 1) continue;
      const std::string packed = BuildAndPack(tmp, ds, rel, options, batch);
      ASSERT_EQ(packed.size(), reference.size())
          << "batch_rows=" << batch << " dims_in_nt=" << dims_in_nt;
      EXPECT_TRUE(packed == reference)
          << "packed cube differs from the scalar reference at batch_rows="
          << batch << " dims_in_nt=" << dims_in_nt;
    }
  }
}

TEST(BatchScanBuildTest, ByteIdenticalPackedCubesFileBackedExternal) {
  const test::ScopedTempDir tmp("batch_scan");
  Dataset ds = MakeZipfDataset(4000, 202);
  const std::string rel_path = tmp.File("fact.bin");
  Result<storage::Relation> rel = MakeFileRelation(ds, rel_path);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();

  CureOptions options;
  options.force_external = true;  // partition + per-partition + node-N path
  // Large enough for the Zipf-skewed heaviest leaf partition to fit, small
  // enough that the build still splits into several partitions.
  options.memory_budget_bytes = 96 * 1024;
  options.signature_pool_capacity = 256;
  const std::string reference =
      BuildAndPack(tmp, ds, rel.value(), options, 1);
  ASSERT_FALSE(reference.empty());
  for (size_t batch : kBatchMatrix) {
    if (batch == 1) continue;
    const std::string packed =
        BuildAndPack(tmp, ds, rel.value(), options, batch);
    ASSERT_EQ(packed.size(), reference.size()) << "batch_rows=" << batch;
    EXPECT_TRUE(packed == reference)
        << "packed cube differs from the scalar reference at batch_rows="
        << batch;
  }
  ASSERT_TRUE(storage::RemoveFile(rel_path).ok());
}

TEST(BatchScanBuildTest, LevelHistogramsIdenticalAcrossBatchRows) {
  const test::ScopedTempDir tmp("batch_scan");
  Dataset ds = MakeZipfDataset(2500, 303);
  const std::string rel_path = tmp.File("hist.bin");
  Result<storage::Relation> rel = MakeFileRelation(ds, rel_path);
  ASSERT_TRUE(rel.ok());
  Result<std::vector<std::vector<uint64_t>>> reference =
      engine::ComputeLevelHistograms(rel.value(), ds.schema, 1);
  ASSERT_TRUE(reference.ok());
  for (size_t batch : kBatchMatrix) {
    if (batch == 1) continue;
    Result<std::vector<std::vector<uint64_t>>> hist =
        engine::ComputeLevelHistograms(rel.value(), ds.schema, batch);
    ASSERT_TRUE(hist.ok());
    EXPECT_EQ(hist.value(), reference.value()) << "batch_rows=" << batch;
  }
  ASSERT_TRUE(storage::RemoveFile(rel_path).ok());
}

// Runs plain, iceberg, sliced, and sliced-iceberg queries over every lattice
// node and folds (count, checksum) of each into one digest.
std::pair<uint64_t, uint64_t> QueryDigest(const CureQueryEngine& eng,
                                          const schema::CubeSchema& schema) {
  const schema::NodeIdCodec codec(schema);
  uint64_t count = 0, checksum = 0;
  ResultSink sink;
  const std::vector<CureQueryEngine::Slice> slices = {{0, 1, 1}};
  for (NodeId id = 0; id < codec.num_nodes(); ++id) {
    sink.Reset();
    EXPECT_TRUE(eng.QueryNode(id, &sink).ok());
    count += sink.count();
    checksum ^= sink.checksum();
    sink.Reset();
    EXPECT_TRUE(eng.QueryNodeCountIceberg(id, 1, 3, &sink).ok());
    count += sink.count();
    checksum ^= sink.checksum();
    // Slices are only valid on nodes grouping dim 0 at level <= 1; both
    // engines must agree on the rejection too.
    sink.Reset();
    Status s = eng.QueryNodeSliced(id, slices, &sink);
    if (s.ok()) {
      count += sink.count();
      checksum ^= sink.checksum();
    }
    sink.Reset();
    Status si = eng.QueryNodeSlicedIceberg(id, slices, 1, 2, &sink);
    EXPECT_EQ(s.ok(), si.ok());
    if (si.ok()) {
      count += sink.count();
      checksum ^= sink.checksum();
    }
  }
  return {count, checksum};
}

TEST(BatchScanQueryTest, IdenticalResultsAcrossBatchRowsInMemory) {
  Dataset ds = MakeZipfDataset(3000, 404);
  for (bool dims_in_nt : {false, true}) {
    CureOptions options;
    options.dims_in_nt = dims_in_nt;
    FactInput input{.table = &ds.table};
    Result<std::unique_ptr<CureCube>> cube =
        BuildCure(ds.schema, input, options);
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    Result<std::unique_ptr<CureQueryEngine>> eng =
        CureQueryEngine::Create(cube->get(), 1.0);
    ASSERT_TRUE(eng.ok());
    (*eng)->set_batch_rows(1);
    const auto reference = QueryDigest(**eng, (*cube)->schema());
    ASSERT_GT(reference.first, 0u);
    for (size_t batch : kBatchMatrix) {
      if (batch == 1) continue;
      (*eng)->set_batch_rows(batch);
      EXPECT_EQ(QueryDigest(**eng, (*cube)->schema()), reference)
          << "batch_rows=" << batch << " dims_in_nt=" << dims_in_nt;
    }
  }
}

TEST(BatchScanQueryTest, IdenticalResultsAcrossBatchRowsFileBacked) {
  const test::ScopedTempDir tmp("batch_scan");
  Dataset ds = MakeZipfDataset(3000, 505);
  const std::string rel_path = tmp.File("qfact.bin");
  Result<storage::Relation> rel = MakeFileRelation(ds, rel_path);
  ASSERT_TRUE(rel.ok());
  CureOptions options;
  FactInput input{.relation = &rel.value()};
  Result<std::unique_ptr<CureCube>> cube = BuildCure(ds.schema, input, options);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  // Spill the store so the block scanners really read files.
  const std::string pack_path = tmp.File("qpack.bin");
  ASSERT_TRUE((*cube)->SpillStoreToDisk(pack_path).ok());
  Result<std::unique_ptr<CureQueryEngine>> eng =
      CureQueryEngine::Create(cube->get(), 0.5);
  ASSERT_TRUE(eng.ok());
  (*eng)->set_batch_rows(1);
  const auto reference = QueryDigest(**eng, (*cube)->schema());
  ASSERT_GT(reference.first, 0u);
  for (size_t batch : kBatchMatrix) {
    if (batch == 1) continue;
    (*eng)->set_batch_rows(batch);
    EXPECT_EQ(QueryDigest(**eng, (*cube)->schema()), reference)
        << "batch_rows=" << batch;
  }
  cube->reset();  // Close the packed store before unlinking.
  ASSERT_TRUE(storage::RemoveFile(pack_path).ok());
  ASSERT_TRUE(storage::RemoveFile(rel_path).ok());
}

// ---- Sorted, coalesced row-id dereference (DESIGN.md §13) ----

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

// Per node and query shape, the retained rows of the default block path
// must equal the scalar path's, in order, at every fact-cache fraction, and
// match the brute-force reference as a set.
TEST(BatchScanDerefTest, CoalescedDereferenceKeepsRowsAndOrder) {
  const test::ScopedTempDir tmp("batch_scan");
  Dataset ds = MakeWideZipfDataset(30000, 808);
  const std::string rel_path = tmp.File("deref_fact.bin");
  Result<storage::Relation> rel = MakeFileRelation(ds, rel_path);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  const schema::NodeIdCodec codec(ds.schema);
  const std::vector<QueryShape> shapes = DerefShapes(ds.schema);
  std::vector<std::vector<std::vector<ResultSink::Row>>> reference(
      codec.num_nodes());
  for (NodeId id = 0; id < codec.num_nodes(); ++id) {
    for (const QueryShape& shape : shapes) {
      reference[id].push_back(ReferenceRows(ds, id, shape));
    }
  }
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
      for (NodeId id = 0; id < codec.num_nodes(); ++id) {
        for (size_t s = 0; s < shapes.size(); ++s) {
          const QueryShape& shape = shapes[s];
          ResultSink scalar(/*retain=*/true);
          ResultSink block(/*retain=*/true);
          (*eng)->set_batch_rows(1);
          const Status scalar_status = (*eng)->QueryNodeSlicedIceberg(
              id, shape.slices, 1, shape.min_count, &scalar);
          (*eng)->set_batch_rows(0);
          const Status block_status = (*eng)->QueryNodeSlicedIceberg(
              id, shape.slices, 1, shape.min_count, &block);
          ASSERT_EQ(scalar_status.ok(), block_status.ok())
              << "node " << id << " " << shape.name;
          if (!scalar_status.ok()) continue;  // slice on a coarser node
          EXPECT_TRUE(SameRowsInOrder(scalar.rows(), block.rows()))
              << "node " << id << " " << shape.name;
          EXPECT_TRUE(query::SameResults(block.rows(), reference[id][s]))
              << "node " << id << " " << shape.name << ": "
              << block.rows().size() << " rows, reference "
              << reference[id][s].size();
          crossed_chunk =
              crossed_chunk || block.count() > query::kDereferenceChunkRows;
        }
      }
    }
    EXPECT_TRUE(crossed_chunk);
    cube->reset();
    ASSERT_TRUE(storage::RemoveFile(pack_path).ok());
  }
  ASSERT_TRUE(storage::RemoveFile(rel_path).ok());
}

// A read fault in the middle of a query's reads of the fact file or of the
// packed cube — coalesced dereference reads included — fails the query with
// that error at every batch size.
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
    for (size_t batch : {size_t{1}, size_t{0}}) {
      SCOPED_TRACE(target + " batch_rows=" + std::to_string(batch));
      (*eng)->set_batch_rows(batch);
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
      if (batch == 0 && target == rel_path) {
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
// worker count (none, one, seven) each node's rows must equal the scalar
// path's in order and the reference as a set. A read fault on the fact file
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

  std::vector<std::vector<ResultSink::Row>> scalar(codec.num_nodes());
  {
    Result<std::unique_ptr<CureQueryEngine>> eng =
        CureQueryEngine::Create(cube->get(), 0.0);
    ASSERT_TRUE(eng.ok()) << eng.status().ToString();
    (*eng)->set_batch_rows(1);
    for (NodeId id = 0; id < codec.num_nodes(); ++id) {
      ResultSink sink(/*retain=*/true);
      ASSERT_TRUE((*eng)->QueryNode(id, &sink).ok()) << "node " << id;
      scalar[id] = sink.TakeRows();
      Result<std::vector<ResultSink::Row>> reference =
          query::ReferenceNodeResult(ds.schema, ds.table, id);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      EXPECT_TRUE(query::SameResults(scalar[id], reference.value()))
          << "node " << id;
    }
  }
  // The base node fills more than ten chunks, most of them with the trivial
  // tuples of one part: more than seven workers' chunks plus the queue
  // bound's one chunk of slack.
  ASSERT_GT(scalar[base].size(), 10 * query::kDereferenceChunkRows);

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("CURE_THREADS=" + std::to_string(threads));
    const ScopedThreads env(threads);
    Result<std::unique_ptr<CureQueryEngine>> eng =
        CureQueryEngine::Create(cube->get(), 0.0);
    ASSERT_TRUE(eng.ok()) << eng.status().ToString();
    auto answers_base = [&] {
      ResultSink sink(/*retain=*/true);
      return (*eng)->QueryNode(base, &sink).ok() &&
             SameRowsInOrder(sink.rows(), scalar[base]);
    };
    for (NodeId id = 0; id < codec.num_nodes(); ++id) {
      ResultSink block(/*retain=*/true);
      ASSERT_TRUE((*eng)->QueryNode(id, &block).ok()) << "node " << id;
      EXPECT_TRUE(SameRowsInOrder(block.rows(), scalar[id])) << "node " << id;
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

TEST(BatchScanBaselineTest, BucIdenticalAcrossBatchRows) {
  Dataset ds = MakeZipfDataset(1200, 606);
  const schema::CubeSchema flat = ds.schema.Flattened();
  const schema::NodeIdCodec codec(flat);

  auto digest = [&](size_t batch) -> std::pair<uint64_t, uint64_t> {
    engine::BucOptions options;
    options.batch_rows = batch;
    Result<std::unique_ptr<engine::BucCube>> cube =
        engine::BuildBuc(ds.schema, ds.table, options);
    EXPECT_TRUE(cube.ok()) << cube.status().ToString();
    query::BucQueryEngine eng(cube->get());
    eng.set_batch_rows(batch);
    uint64_t count = 0, checksum = 0;
    ResultSink sink;
    for (NodeId id = 0; id < codec.num_nodes(); ++id) {
      sink.Reset();
      EXPECT_TRUE(eng.QueryNode(id, &sink).ok());
      count += sink.count();
      checksum ^= sink.checksum();
    }
    return {count, checksum};
  };
  const auto reference = digest(1);
  ASSERT_GT(reference.first, 0u);
  for (size_t batch : kBatchMatrix) {
    if (batch == 1) continue;
    EXPECT_EQ(digest(batch), reference) << "batch_rows=" << batch;
  }
}

TEST(BatchScanBaselineTest, BubstIdenticalAcrossBatchRows) {
  const test::ScopedTempDir tmp("batch_scan");
  Dataset ds = MakeZipfDataset(1200, 707);
  const schema::CubeSchema flat = ds.schema.Flattened();
  const schema::NodeIdCodec codec(flat);

  auto digest = [&](size_t batch,
                    std::string* monolithic) -> std::pair<uint64_t, uint64_t> {
    engine::BubstOptions options;
    options.batch_rows = batch;
    Result<std::unique_ptr<engine::BubstCube>> cube =
        engine::BuildBubst(ds.schema, ds.table, options);
    EXPECT_TRUE(cube.ok()) << cube.status().ToString();
    // The monolithic relation must be byte-identical across batch sizes.
    const std::string path =
        tmp.File("bubst_b" + std::to_string(batch) + ".bin");
    EXPECT_TRUE((*cube)->SpillToDisk(path).ok());
    *monolithic = ReadFileBytes(path);
    query::BubstQueryEngine eng(cube->get());
    eng.set_batch_rows(batch);
    uint64_t count = 0, checksum = 0;
    ResultSink sink;
    for (NodeId id = 0; id < codec.num_nodes(); ++id) {
      sink.Reset();
      EXPECT_TRUE(eng.QueryNode(id, &sink).ok());
      count += sink.count();
      checksum ^= sink.checksum();
    }
    cube->reset();  // Close before unlinking.
    EXPECT_TRUE(storage::RemoveFile(path).ok());
    return {count, checksum};
  };
  std::string reference_bytes;
  const auto reference = digest(1, &reference_bytes);
  ASSERT_GT(reference.first, 0u);
  for (size_t batch : kBatchMatrix) {
    if (batch == 1) continue;
    std::string bytes;
    EXPECT_EQ(digest(batch, &bytes), reference) << "batch_rows=" << batch;
    EXPECT_TRUE(bytes == reference_bytes)
        << "monolithic relation differs at batch_rows=" << batch;
  }
}

}  // namespace
}  // namespace cure
