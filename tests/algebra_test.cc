#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "algebra/query_desc.h"
#include "algebra/result_cache.h"
#include "algebra/rollup.h"
#include "algebra/semantic_cache.h"
#include "engine/cure.h"
#include "gen/datasets.h"
#include "gen/random.h"
#include "gen/zipf.h"
#include "query/fold.h"
#include "query/node_query.h"
#include "query/reference.h"
#include "query/workload.h"
#include "schema/lattice.h"

namespace cure {
namespace {

using algebra::Classify;
using algebra::Containment;
using algebra::QueryDesc;
using algebra::QueryKey;
using algebra::QueryResult;
using algebra::SelectTopK;
using algebra::SemanticCache;
using engine::BuildCure;
using engine::CureOptions;
using engine::FactInput;
using query::CureQueryEngine;
using query::ResultSink;
using schema::NodeId;

/// Same shape as the serve tests: A is a 3-level linear hierarchy
/// (24 -> 6 -> 2), B a 2-level one (9 -> 3), C flat with 5 members; SUM and
/// COUNT aggregates. Dim values are Zipf-skewed so roll-ups genuinely merge
/// groups of different support.
gen::Dataset MakeHier(uint64_t tuples, uint64_t seed) {
  gen::Dataset ds;
  std::vector<schema::Dimension> dims;
  dims.push_back(schema::Dimension::Linear("A", {24, 6, 2}));
  dims.push_back(schema::Dimension::Linear("B", {9, 3}));
  dims.push_back(schema::Dimension::Flat("C", 5));
  auto schema = schema::CubeSchema::Create(
      std::move(dims), 1,
      {{schema::AggFn::kSum, 0, "s"}, {schema::AggFn::kCount, 0, "c"}});
  EXPECT_TRUE(schema.ok());
  ds.schema = std::move(schema).value();
  ds.table = schema::FactTable(3, 1);
  gen::Rng rng(seed);
  const gen::ZipfSampler za(24, 1.1), zb(9, 1.1), zc(5, 1.1);
  for (uint64_t t = 0; t < tuples; ++t) {
    const uint32_t row[3] = {za.Sample(&rng), zb.Sample(&rng), zc.Sample(&rng)};
    const int64_t m = static_cast<int64_t>(rng.NextRange(100));
    ds.table.AppendRow(row, &m);
  }
  return ds;
}

/// The paper's Fig. 5 complex time hierarchy, day -> {week, month} -> year
/// (28-day months, as in complex_hierarchy_test), next to a linear and a
/// flat dimension, under all four distributive aggregates.
gen::Dataset MakeComplex(uint64_t tuples, uint64_t seed) {
  constexpr uint32_t kDays = 112;
  std::vector<schema::Level> levels(4);
  levels[0].name = "day";
  levels[0].cardinality = kDays;
  levels[0].parents = {1, 2};
  levels[1].name = "week";
  levels[1].cardinality = kDays / 7;
  levels[2].name = "month";
  levels[2].cardinality = kDays / 28;
  levels[2].parents = {3};
  levels[3].name = "year";
  levels[3].cardinality = 1;
  for (uint32_t d = 0; d < kDays; ++d) {
    levels[1].leaf_to_code.push_back(d / 7);
    levels[2].leaf_to_code.push_back(d / 28);
    levels[3].leaf_to_code.push_back(0);
  }
  auto time = schema::Dimension::Create("time", std::move(levels));
  EXPECT_TRUE(time.ok()) << time.status().ToString();
  std::vector<schema::Dimension> dims;
  dims.push_back(std::move(time).value());
  dims.push_back(schema::Dimension::Linear("P", {12, 3}));
  dims.push_back(schema::Dimension::Flat("C", 4));
  auto schema = schema::CubeSchema::Create(
      std::move(dims), 1,
      {{schema::AggFn::kSum, 0, "s"},
       {schema::AggFn::kCount, 0, "c"},
       {schema::AggFn::kMin, 0, "lo"},
       {schema::AggFn::kMax, 0, "hi"}});
  EXPECT_TRUE(schema.ok());
  gen::Dataset ds;
  ds.schema = std::move(schema).value();
  ds.table = schema::FactTable(3, 1);
  gen::Rng rng(seed);
  const gen::ZipfSampler zt(kDays, 0.8), zp(12, 1.1), zc(4, 1.1);
  for (uint64_t t = 0; t < tuples; ++t) {
    const uint32_t row[3] = {zt.Sample(&rng), zp.Sample(&rng), zc.Sample(&rng)};
    const int64_t m = static_cast<int64_t>(rng.NextRange(1000)) - 500;
    ds.table.AppendRow(row, &m);
  }
  return ds;
}

struct AlgebraFixture {
  gen::Dataset ds;
  std::unique_ptr<engine::CureCube> cube;
  std::unique_ptr<CureQueryEngine> engine;
  std::unique_ptr<schema::Lattice> lattice;

  explicit AlgebraFixture(uint64_t tuples = 600, uint64_t seed = 77)
      : AlgebraFixture(MakeHier(tuples, seed)) {}

  explicit AlgebraFixture(gen::Dataset data) : ds(std::move(data)) {
    CureOptions options;
    FactInput input{.table = &ds.table};
    auto built = BuildCure(ds.schema, input, options);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    cube = std::move(built).value();
    auto direct = CureQueryEngine::Create(cube.get(), 1.0);
    EXPECT_TRUE(direct.ok());
    engine = std::move(direct).value();
    lattice = std::make_unique<schema::Lattice>(&ds.schema);
  }

  const schema::NodeIdCodec& codec() const { return lattice->codec(); }
  NodeId Node(std::vector<int> levels) const { return codec().Encode(levels); }
};

// -------------------------------------------------------- containment rules

TEST(ContainmentTest, TruthTable) {
  AlgebraFixture fx(100, 3);
  const schema::CubeSchema& schema = fx.ds.schema;
  const schema::Lattice& lattice = *fx.lattice;
  const int all_a = fx.codec().all_level(0);
  const int all_b = fx.codec().all_level(1);
  const int all_c = fx.codec().all_level(2);

  auto desc = [](NodeId node) {
    QueryDesc d;
    d.node = node;
    d.Canonicalize();
    return d;
  };

  const QueryDesc fine = desc(fx.Node({0, 0, 0}));
  const QueryDesc mid = desc(fx.Node({1, 1, 0}));
  const QueryDesc coarse = desc(fx.Node({2, all_b, all_c}));
  const QueryDesc apex = desc(fx.Node({all_a, all_b, all_c}));

  // Rule 1: node containment (ancestor = MORE detailed, paper terminology).
  EXPECT_EQ(Classify(schema, lattice, fine, fine), Containment::kIdentical);
  EXPECT_EQ(Classify(schema, lattice, fine, mid), Containment::kDerivable);
  EXPECT_EQ(Classify(schema, lattice, fine, coarse), Containment::kDerivable);
  EXPECT_EQ(Classify(schema, lattice, fine, apex), Containment::kDerivable);
  EXPECT_EQ(Classify(schema, lattice, mid, fine), Containment::kNo);
  EXPECT_EQ(Classify(schema, lattice, coarse, mid), Containment::kNo);
  // Incomparable nodes: {0, all, 0} vs {all, 0, 0}.
  EXPECT_EQ(Classify(schema, lattice, desc(fx.Node({0, all_b, 0})),
                     desc(fx.Node({all_a, 0, 0}))),
            Containment::kNo);

  // Rule 2a: every cached slice must be implied by a request slice.
  QueryDesc cached_sliced = fine;
  cached_sliced.slices.push_back({0, 1, 2});  // A at level 1 == 2
  cached_sliced.Canonicalize();
  QueryDesc request_same = mid;
  request_same.slices.push_back({0, 1, 2});
  request_same.Canonicalize();
  EXPECT_EQ(Classify(schema, lattice, cached_sliced, request_same),
            Containment::kDerivable);
  // A finer request slice whose code rolls up onto the cached one implies it.
  const uint32_t leaf_code = 9;  // A level 0
  const uint32_t mid_code = schema.dim(0).LevelToLevelMap(0, 1).value()[leaf_code];
  QueryDesc cached_mid_slice = fine;
  cached_mid_slice.slices.push_back({0, 1, mid_code});
  cached_mid_slice.Canonicalize();
  QueryDesc request_leaf_slice = fine;
  request_leaf_slice.slices.push_back({0, 0, leaf_code});
  request_leaf_slice.Canonicalize();
  EXPECT_EQ(Classify(schema, lattice, cached_mid_slice, request_leaf_slice),
            Containment::kDerivable);
  // The request dropping the cached slice widens the result: not contained.
  EXPECT_EQ(Classify(schema, lattice, cached_sliced, mid), Containment::kNo);
  // A request slice the cached relation was NOT restricted by is fine (it is
  // re-applied as a filter during derivation).
  QueryDesc request_extra = mid;
  request_extra.slices.push_back({1, 1, 1});
  request_extra.Canonicalize();
  EXPECT_EQ(Classify(schema, lattice, fine, request_extra),
            Containment::kDerivable);

  // Rule 2b: a request slice finer than the cached node's grouping on that
  // dimension cannot be checked on the cached rows.
  QueryDesc request_too_fine = coarse;
  request_too_fine.slices.push_back({0, 0, 3});  // A leaf; cached groups at 2
  request_too_fine.Canonicalize();
  QueryDesc cached_coarse_a = desc(fx.Node({2, 0, 0}));
  EXPECT_EQ(Classify(schema, lattice, cached_coarse_a, request_too_fine),
            Containment::kNo);

  // Rule 3: iceberg truncation.
  QueryDesc cached_trunc = fine;
  cached_trunc.count_aggregate = 1;
  cached_trunc.min_count = 3;
  cached_trunc.Canonicalize();
  QueryDesc request_iceberg = fine;
  request_iceberg.count_aggregate = 1;
  request_iceberg.min_count = 5;
  request_iceberg.Canonicalize();
  // Same node, same count aggregate, request threshold >= cached: reusable.
  EXPECT_EQ(Classify(schema, lattice, cached_trunc, request_iceberg),
            Containment::kDerivable);
  // A lower request threshold needs groups the truncation dropped.
  QueryDesc request_lower = fine;
  request_lower.count_aggregate = 1;
  request_lower.min_count = 2;
  request_lower.Canonicalize();
  EXPECT_EQ(Classify(schema, lattice, cached_trunc, request_lower),
            Containment::kNo);
  // A truncated relation must not be rolled up to a coarser node at all.
  QueryDesc request_coarse_iceberg = mid;
  request_coarse_iceberg.count_aggregate = 1;
  request_coarse_iceberg.min_count = 3;
  request_coarse_iceberg.Canonicalize();
  EXPECT_EQ(Classify(schema, lattice, cached_trunc, request_coarse_iceberg),
            Containment::kNo);
  // An untruncated cached result answers any threshold, even post-rollup.
  EXPECT_EQ(Classify(schema, lattice, fine, request_coarse_iceberg),
            Containment::kDerivable);
  // A non-iceberg request is also answerable from a truncated relation only
  // when nothing was actually truncated (min_count <= 1 canonicalizes away).
  EXPECT_EQ(Classify(schema, lattice, cached_trunc, mid), Containment::kNo);
}

// ------------------------------------------------- whole-lattice derivation

/// Derives every strictly derivable (detailed, coarse) pair of `fx`'s
/// lattice from the detailed node's rows and checks it against the direct
/// engine query of the coarse node.
void ExpectWholeLatticeRollup(const AlgebraFixture& fx) {
  const std::vector<NodeId> nodes = fx.lattice->AllNodes();
  size_t derivable_pairs = 0;
  for (const NodeId detailed : nodes) {
    QueryDesc cached;
    cached.node = detailed;
    cached.Canonicalize();
    ResultSink cached_rows(/*retain=*/true);
    ASSERT_TRUE(fx.engine->QueryNode(detailed, &cached_rows).ok());
    for (const NodeId coarse : nodes) {
      if (coarse == detailed) continue;
      if (!fx.lattice->IsAncestorOf(detailed, coarse)) continue;
      QueryDesc request;
      request.node = coarse;
      request.Canonicalize();
      ASSERT_EQ(Classify(fx.ds.schema, *fx.lattice, cached, request),
                Containment::kDerivable);
      ResultSink derived(/*retain=*/true);
      ASSERT_TRUE(query::RollUp(fx.ds.schema, cached.node, cached_rows.rows(),
                                request.node, request.slices,
                                request.count_aggregate, request.min_count,
                                &derived)
                      .ok());
      ResultSink expected(/*retain=*/true);
      ASSERT_TRUE(fx.engine->QueryNode(coarse, &expected).ok());
      EXPECT_EQ(derived.count(), expected.count())
          << "derive " << detailed << " -> " << coarse;
      EXPECT_EQ(derived.checksum(), expected.checksum())
          << "derive " << detailed << " -> " << coarse;
      EXPECT_TRUE(query::SameResults(derived.rows(), expected.rows()))
          << "derive " << detailed << " -> " << coarse;
      // Derived rows come out in strictly ascending dim-code order.
      const std::vector<ResultSink::Row>& rows = derived.rows();
      EXPECT_EQ(std::adjacent_find(rows.begin(), rows.end(),
                                   [](const ResultSink::Row& a,
                                      const ResultSink::Row& b) {
                                     return !(a.dims < b.dims);
                                   }),
                rows.end())
          << "derive " << detailed << " -> " << coarse;
      ++derivable_pairs;
    }
  }
  EXPECT_GT(derivable_pairs, 50u);  // both lattices are densely related
}

TEST(RollupExecutorTest, WholeLatticeRollupMatchesDirectQueries) {
  // Linear hierarchies, SUM and COUNT.
  ExpectWholeLatticeRollup(AlgebraFixture(600, 77));
  // A complex (DAG) hierarchy, SUM, COUNT, MIN and MAX.
  ExpectWholeLatticeRollup(AlgebraFixture(MakeComplex(800, 79)));
}

TEST(RollupExecutorTest, SliceAndIcebergApplyDuringDerivation) {
  AlgebraFixture fx(600, 78);
  const NodeId fine = fx.Node({0, 0, 0});
  const NodeId coarse = fx.Node({1, 1, 0});
  QueryDesc cached;
  cached.node = fine;
  cached.Canonicalize();
  ResultSink cached_rows(/*retain=*/true);
  ASSERT_TRUE(fx.engine->QueryNode(fine, &cached_rows).ok());

  // Slice on A at level 1 plus a post-rollup iceberg threshold.
  QueryDesc request;
  request.node = coarse;
  request.slices.push_back({0, 1, 1});
  request.count_aggregate = 1;
  request.min_count = 2;
  request.Canonicalize();
  ASSERT_EQ(Classify(fx.ds.schema, *fx.lattice, cached, request),
            Containment::kDerivable);
  ResultSink derived(/*retain=*/true);
  ASSERT_TRUE(query::RollUp(fx.ds.schema, cached.node, cached_rows.rows(),
                            request.node, request.slices,
                            request.count_aggregate, request.min_count,
                            &derived)
                  .ok());

  ResultSink expected;
  ASSERT_TRUE(fx.engine
                  ->QueryNodeSlicedIceberg(coarse, {{0, 1, 1}}, 1, 2, &expected)
                  .ok());
  EXPECT_EQ(derived.count(), expected.count());
  EXPECT_EQ(derived.checksum(), expected.checksum());
}

TEST(RollupExecutorTest, ContainmentViolationIsInternalError) {
  AlgebraFixture fx(100, 5);
  QueryDesc cached;
  cached.node = fx.Node({1, 1, 0});  // coarser than the request
  cached.Canonicalize();
  QueryDesc request;
  request.node = fx.Node({0, 0, 0});
  request.Canonicalize();
  ResultSink sink;
  const Status status =
      query::RollUp(fx.ds.schema, cached.node, {}, request.node,
                    request.slices, request.count_aggregate, request.min_count,
                    &sink);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

// ------------------------------------------------------------------- top-k

TEST(SelectTopKTest, DeterministicSelectionAndOrder) {
  std::vector<ResultSink::Row> rows;
  auto row = [](std::vector<uint32_t> dims, int64_t sum, int64_t count) {
    ResultSink::Row r;
    r.dims = std::move(dims);
    r.aggrs = {sum, count};
    return r;
  };
  rows.push_back(row({3, 0}, 10, 7));
  rows.push_back(row({1, 2}, 99, 7));  // ties on count with the row above
  rows.push_back(row({0, 1}, 50, 20));
  rows.push_back(row({2, 2}, 5, 1));

  // Order by aggregate 1 (count) desc, ties by ascending dims.
  std::vector<ResultSink::Row> top = SelectTopK(rows, 3, 1);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].dims, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(top[1].dims, (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(top[2].dims, (std::vector<uint32_t>{3, 0}));

  // k beyond the row count returns everything, still ordered.
  EXPECT_EQ(SelectTopK(rows, 10, 1).size(), 4u);
  // Shuffled input selects identically (determinism across producers).
  std::vector<ResultSink::Row> shuffled = {rows[2], rows[0], rows[3], rows[1]};
  const std::vector<ResultSink::Row> again = SelectTopK(shuffled, 3, 1);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(again[i].dims, top[i].dims);
    EXPECT_EQ(again[i].aggrs, top[i].aggrs);
  }
}

// ------------------------------------------------------- lattice navigation

TEST(LatticeNavigationTest, RollUpAndDrillDownAreInverse) {
  AlgebraFixture fx(50, 9);
  const schema::Lattice& lattice = *fx.lattice;
  const int all_a = fx.codec().all_level(0);
  const int all_b = fx.codec().all_level(1);
  const int all_c = fx.codec().all_level(2);
  const NodeId apex = fx.Node({all_a, all_b, all_c});
  const NodeId leaf = fx.Node({0, 0, 0});

  // Drill A all the way down from the apex: ALL -> 2 -> 1 -> 0, then error.
  NodeId node = apex;
  for (const int expect_level : {2, 1, 0}) {
    auto down = lattice.DrillDownDim(node, 0);
    ASSERT_TRUE(down.ok());
    node = down.value();
    EXPECT_EQ(fx.codec().Decode(node)[0], expect_level);
  }
  EXPECT_FALSE(lattice.DrillDownDim(node, 0).ok());

  // Roll it back up: 0 -> 1 -> 2 -> ALL, then error.
  for (const int expect_level : {1, 2, all_a}) {
    auto up = lattice.RollUpDim(node, 0);
    ASSERT_TRUE(up.ok());
    node = up.value();
    EXPECT_EQ(fx.codec().Decode(node)[0], expect_level);
  }
  EXPECT_FALSE(lattice.RollUpDim(node, 0).ok());

  // RollUp(DrillDown(n, d), d) == n everywhere drilling is legal.
  for (const NodeId n : lattice.AllNodes()) {
    for (int d = 0; d < fx.ds.schema.num_dims(); ++d) {
      auto down = lattice.DrillDownDim(n, d);
      if (!down.ok()) continue;
      auto back = lattice.RollUpDim(down.value(), d);
      ASSERT_TRUE(back.ok());
      EXPECT_EQ(back.value(), n);
    }
  }
  // The flat dimension C: ALL <-> level 0 and nothing else.
  EXPECT_FALSE(lattice.DrillDownDim(leaf, 2).ok());
  auto c_up = lattice.RollUpDim(leaf, 2);
  ASSERT_TRUE(c_up.ok());
  EXPECT_EQ(fx.codec().Decode(c_up.value())[2], all_c);
}

// --------------------------------------------------------- query desc / key

TEST(QueryDescTest, CanonicalizationCollapsesEquivalentSpellings) {
  QueryDesc a;
  a.node = 7;
  a.slices = {{1, 0, 4}, {0, 1, 2}};
  a.count_aggregate = 1;
  a.min_count = 1;  // threshold 1 filters nothing
  a.Canonicalize();
  QueryDesc b;
  b.node = 7;
  b.slices = {{0, 1, 2}, {1, 0, 4}};  // same slices, different order
  b.Canonicalize();                   // no iceberg at all
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(a.count_aggregate, -1);
  EXPECT_EQ(a.min_count, 0);

  QueryKey ka, kb;
  static_cast<QueryDesc&>(ka) = a;
  static_cast<QueryDesc&>(kb) = b;
  ka.epoch = 3;
  kb.epoch = 4;
  EXPECT_FALSE(ka == kb);  // same query, different cube snapshot
  kb.epoch = 3;
  EXPECT_TRUE(ka == kb);
  EXPECT_EQ(ka.Hash(), kb.Hash());
}

// ---------------------------------------------------------- semantic cache

QueryKey KeyFor(NodeId node, uint64_t epoch = 0) {
  QueryKey key;
  key.node = node;
  key.epoch = epoch;
  key.Canonicalize();
  return key;
}

std::shared_ptr<const QueryResult> ResultOf(const CureQueryEngine& engine,
                                            NodeId node) {
  ResultSink sink(/*retain=*/true);
  EXPECT_TRUE(engine.QueryNode(node, &sink).ok());
  auto result = std::make_shared<QueryResult>();
  result->count = sink.count();
  result->checksum = sink.checksum();
  result->rows = sink.TakeRows();
  return result;
}

TEST(SemanticCacheTest, DerivesCoarseQueryFromCachedFineResult) {
  AlgebraFixture fx(600, 11);
  SemanticCache cache(&fx.ds.schema, 4 << 20);
  const NodeId fine = fx.Node({0, 0, 0});
  const NodeId coarse = fx.Node({1, fx.codec().all_level(1), 0});
  cache.Insert(KeyFor(fine), ResultOf(*fx.engine, fine));

  const QueryKey want = KeyFor(coarse);
  EXPECT_EQ(cache.Lookup(want), nullptr);  // no exact entry
  auto derived = cache.DeriveFromCache(want);
  ASSERT_TRUE(derived.has_value());
  EXPECT_EQ(derived->source_node, fine);

  ResultSink expected;
  ASSERT_TRUE(fx.engine->QueryNode(coarse, &expected).ok());
  EXPECT_EQ(derived->result->count, expected.count());
  EXPECT_EQ(derived->result->checksum, expected.checksum());

  // The derivation was re-inserted under the request's own key.
  auto exact_now = cache.Lookup(want);
  ASSERT_NE(exact_now, nullptr);
  EXPECT_EQ(exact_now->checksum, expected.checksum());

  const SemanticCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.semantic_hits, 1u);
  EXPECT_GT(stats.rollup_rows, 0u);
  EXPECT_EQ(stats.derived_rows, expected.count());
}

TEST(SemanticCacheTest, PrefersCheapestCandidate) {
  AlgebraFixture fx(600, 12);
  SemanticCache cache(&fx.ds.schema, 4 << 20);
  const NodeId fine = fx.Node({0, 0, 0});
  const NodeId mid = fx.Node({1, 0, 0});
  const NodeId coarse = fx.Node({2, 1, fx.codec().all_level(2)});
  cache.Insert(KeyFor(fine), ResultOf(*fx.engine, fine));
  cache.Insert(KeyFor(mid), ResultOf(*fx.engine, mid));
  // Both cached nodes can answer; the mid node groups fewer dims' worth of
  // rows, so it is the cheaper source.
  auto derived = cache.DeriveFromCache(KeyFor(coarse));
  ASSERT_TRUE(derived.has_value());
  EXPECT_EQ(derived->source_node, mid);
}

TEST(SemanticCacheTest, EpochMismatchNeverDerives) {
  AlgebraFixture fx(300, 13);
  SemanticCache cache(&fx.ds.schema, 4 << 20);
  const NodeId fine = fx.Node({0, 0, 0});
  cache.Insert(KeyFor(fine, /*epoch=*/1), ResultOf(*fx.engine, fine));
  const NodeId coarse = fx.Node({1, 0, 0});
  // An older-epoch request never matches a newer cached snapshot.
  EXPECT_FALSE(cache.DeriveFromCache(KeyFor(coarse, /*epoch=*/0)).has_value());
  // The matching epoch derives.
  EXPECT_TRUE(cache.DeriveFromCache(KeyFor(coarse, /*epoch=*/1)).has_value());
  // A refresh to epoch 2 makes every epoch-1 entry invisible — and the probe
  // lazily prunes them from the index (epochs only move forward in serving).
  EXPECT_FALSE(cache.DeriveFromCache(KeyFor(coarse, /*epoch=*/2)).has_value());
  EXPECT_FALSE(cache.DeriveFromCache(KeyFor(coarse, /*epoch=*/1)).has_value());
  EXPECT_EQ(cache.stats().index_keys, 0u);
}

TEST(SemanticCacheTest, DisabledModesNeverDerive) {
  AlgebraFixture fx(300, 14);
  const NodeId fine = fx.Node({0, 0, 0});
  const NodeId coarse = fx.Node({1, 0, 0});

  SemanticCache no_semantic(&fx.ds.schema, 4 << 20, 8,
                            /*semantic_enabled=*/false);
  EXPECT_FALSE(no_semantic.semantic_enabled());
  no_semantic.Insert(KeyFor(fine), ResultOf(*fx.engine, fine));
  EXPECT_FALSE(no_semantic.DeriveFromCache(KeyFor(coarse)).has_value());
  // The exact-key layer still works.
  EXPECT_NE(no_semantic.Lookup(KeyFor(fine)), nullptr);

  SemanticCache no_cache(&fx.ds.schema, 0);
  EXPECT_FALSE(no_cache.enabled());
  EXPECT_FALSE(no_cache.semantic_enabled());
  no_cache.Insert(KeyFor(fine), ResultOf(*fx.engine, fine));
  EXPECT_FALSE(no_cache.DeriveFromCache(KeyFor(coarse)).has_value());
}

TEST(SemanticCacheTest, EvictedEntriesAreUnindexedOnProbe) {
  AlgebraFixture fx(600, 15);
  // A budget that holds roughly one leaf-node result: inserting a second
  // fine result evicts the first, whose index entry must then be pruned by
  // the failed probe instead of producing a hit on a vanished entry.
  const NodeId fine = fx.Node({0, 0, 0});
  auto fine_result = ResultOf(*fx.engine, fine);
  SemanticCache cache(&fx.ds.schema, fine_result->ByteSize() + 64, 1);
  cache.Insert(KeyFor(fine), fine_result);
  const NodeId other = fx.Node({0, 0, 1});
  cache.Insert(KeyFor(other), ResultOf(*fx.engine, other));

  // Whichever entry survived, probing for a derivable coarse query must
  // either hit from the survivor or miss cleanly — never crash or return a
  // dangling result. Run a few probes to exercise the unindex path.
  for (int i = 0; i < 3; ++i) {
    const NodeId coarse = fx.Node({1, 0, 0});
    auto derived = cache.DeriveFromCache(KeyFor(coarse));
    if (derived.has_value()) {
      ResultSink expected;
      ASSERT_TRUE(fx.engine->QueryNode(coarse, &expected).ok());
      EXPECT_EQ(derived->result->checksum, expected.checksum());
    }
  }
  const SemanticCache::Stats stats = cache.stats();
  EXPECT_LE(stats.index_keys, 4u);
}

// ------------------------------------------------------- drill-down traces

TEST(DrillDownSessionsTest, TracesAreLatticeValidAndDeterministic) {
  AlgebraFixture fx(50, 16);
  const size_t kSessions = 20, kSteps = 12;
  const std::vector<query::DrillSession> sessions =
      query::DrillDownSessions(fx.ds.schema, kSessions, kSteps, 42);
  ASSERT_EQ(sessions.size(), kSessions);
  const schema::NodeIdCodec& codec = fx.codec();
  for (const query::DrillSession& session : sessions) {
    ASSERT_EQ(session.size(), kSteps);
    // First step is the apex.
    for (int d = 0; d < fx.ds.schema.num_dims(); ++d) {
      EXPECT_EQ(codec.Decode(session[0].node)[d], codec.all_level(d));
    }
    EXPECT_TRUE(session[0].slices.empty());
    for (const query::DrillStep& step : session) {
      ASSERT_LT(step.node, codec.num_nodes());
      const std::vector<int> levels = codec.Decode(step.node);
      for (const CureQueryEngine::Slice& slice : step.slices) {
        // Every slice is checkable on the step's node: the dimension is
        // grouped at the slice's level or finer.
        const int node_level = levels[static_cast<size_t>(slice.dim)];
        ASSERT_NE(node_level, codec.all_level(slice.dim));
        EXPECT_TRUE(node_level == slice.level ||
                    fx.ds.schema.dim(slice.dim).Derives(node_level, slice.level));
        EXPECT_LT(slice.code,
                  fx.ds.schema.dim(slice.dim).level(slice.level).cardinality);
      }
    }
  }
  // Same seed, same traces.
  const std::vector<query::DrillSession> again =
      query::DrillDownSessions(fx.ds.schema, kSessions, kSteps, 42);
  for (size_t s = 0; s < kSessions; ++s) {
    for (size_t i = 0; i < kSteps; ++i) {
      EXPECT_EQ(again[s][i].node, sessions[s][i].node);
      EXPECT_EQ(again[s][i].slices.size(), sessions[s][i].slices.size());
    }
  }
  // The traces actually exercise the lattice: some step beyond the first
  // drills down, and some session rolls back up or narrows.
  size_t drills = 0, narrows = 0;
  const schema::Lattice& lattice = *fx.lattice;
  for (const query::DrillSession& session : sessions) {
    for (size_t i = 1; i < session.size(); ++i) {
      if (lattice.NumGroupingDims(session[i].node) >
          lattice.NumGroupingDims(session[i - 1].node)) {
        ++drills;
      }
      if (session[i].slices.size() > session[i - 1].slices.size()) ++narrows;
    }
  }
  EXPECT_GT(drills, 0u);
  EXPECT_GT(narrows, 0u);
}

/// End-to-end: replaying drill-down sessions against the semantic cache must
/// produce bit-identical results to the direct engine, with a healthy
/// semantic hit rate (each step is usually derivable from its predecessor).
TEST(DrillDownSessionsTest, SemanticReplayIsBitIdenticalToEngine) {
  AlgebraFixture fx(600, 17);
  SemanticCache cache(&fx.ds.schema, 16 << 20);
  const std::vector<query::DrillSession> sessions =
      query::DrillDownSessions(fx.ds.schema, 10, 10, 7);
  uint64_t steps = 0;
  for (const query::DrillSession& session : sessions) {
    for (const query::DrillStep& step : session) {
      QueryKey key;
      key.node = step.node;
      key.slices = step.slices;
      key.Canonicalize();

      uint64_t count = 0, checksum = 0;
      auto exact = cache.Lookup(key);
      if (exact != nullptr) {
        count = exact->count;
        checksum = exact->checksum;
      } else if (auto derived = cache.DeriveFromCache(key)) {
        count = derived->result->count;
        checksum = derived->result->checksum;
      } else {
        ResultSink sink(/*retain=*/true);
        ASSERT_TRUE(
            fx.engine->QueryNodeSliced(step.node, step.slices, &sink).ok());
        auto result = std::make_shared<QueryResult>();
        result->count = sink.count();
        result->checksum = sink.checksum();
        result->rows = sink.TakeRows();
        count = result->count;
        checksum = result->checksum;
        cache.Insert(key, std::move(result));
      }

      ResultSink expected;
      ASSERT_TRUE(
          fx.engine->QueryNodeSliced(step.node, step.slices, &expected).ok());
      EXPECT_EQ(count, expected.count());
      EXPECT_EQ(checksum, expected.checksum());
      ++steps;
    }
  }
  const SemanticCache::Stats stats = cache.stats();
  EXPECT_GT(stats.semantic_hits, 0u);
  EXPECT_GT(steps, 0u);
}

}  // namespace
}  // namespace cure
