// Micro-benchmarks (google-benchmark) of the performance-critical
// substrates: segment sorting (counting vs comparison, the skew remedy of
// Sec. 7), the Zipf sampler, signature-pool flushes, bitmap iteration, and
// the columnar batch scan path (batch kernels vs the record-at-a-time
// scalar scan).
//
// Extra modes (both exit without running google-benchmark):
//   --smoke               batch-vs-scalar checksum equality, and coalesced
//                         vs per-row row-id dereference byte equality, over
//                         memory- and file-backed relations; exit 0 iff all
//                         match (CI).
//   --kernels-json=PATH   hand-timed per-kernel ns/row, scalar vs batch,
//                         written as JSON (the BENCH_kernels.json baseline).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "cube/cube_store.h"
#include "cube/signature.h"
#include "engine/cure.h"
#include "engine/kernels.h"
#include "engine/sorters.h"
#include "gen/random.h"
#include "gen/zipf.h"
#include "schema/cube_schema.h"
#include "schema/fact_table.h"
#include "storage/bitmap.h"
#include "storage/file_io.h"
#include "storage/row_block.h"

namespace {

using cure::engine::SortPolicy;
using cure::engine::SortScratch;
using cure::engine::SortSpan;

std::vector<uint32_t> MakeKeys(size_t n, uint32_t cardinality, double zipf) {
  cure::gen::Rng rng(42);
  cure::gen::ZipfSampler sampler(cardinality, zipf);
  std::vector<uint32_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = sampler.Sample(&rng);
  return keys;
}

void BM_SortSpan(benchmark::State& state, SortPolicy policy, double zipf) {
  const size_t n = static_cast<size_t>(state.range(0));
  const uint32_t cardinality = static_cast<uint32_t>(state.range(1));
  const std::vector<uint32_t> keys = MakeKeys(n, cardinality, zipf);
  std::vector<uint32_t> idx(n);
  SortScratch scratch;
  for (auto _ : state) {
    std::iota(idx.begin(), idx.end(), 0);
    SortSpan(
        idx.data(), n, cardinality, [&](uint32_t i) { return keys[i]; }, policy,
        &scratch);
    benchmark::DoNotOptimize(idx.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void RegisterSorts() {
  for (const auto& [name, zipf] : {std::pair{"uniform", 0.0},
                                   std::pair{"skew2", 2.0}}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_CountingSort/") + name).c_str(),
        [z = zipf](benchmark::State& s) {
          BM_SortSpan(s, SortPolicy::kCountingOnly, z);
        })
        ->Args({1 << 14, 1 << 10});
    benchmark::RegisterBenchmark(
        (std::string("BM_ComparisonSort/") + name).c_str(),
        [z = zipf](benchmark::State& s) {
          BM_SortSpan(s, SortPolicy::kComparisonOnly, z);
        })
        ->Args({1 << 14, 1 << 10});
  }
}

void BM_ZipfSample(benchmark::State& state) {
  cure::gen::ZipfSampler sampler(static_cast<uint64_t>(state.range(0)), 1.0);
  cure::gen::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(1000000);

void BM_SignaturePoolFlush(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<cure::schema::Dimension> dims;
  dims.push_back(cure::schema::Dimension::Flat("A", 100));
  auto schema = cure::schema::CubeSchema::Create(
      std::move(dims), 1,
      {{cure::schema::AggFn::kSum, 0, "s"}, {cure::schema::AggFn::kCount, 0, "c"}});
  cure::gen::Rng rng(11);
  for (auto _ : state) {
    state.PauseTiming();
    cure::cube::CubeStore store(&schema.value(), {});
    cure::cube::SignaturePool pool(2, 0, n);
    for (size_t i = 0; i < n; ++i) {
      // ~50% CAT rate: aggregates drawn from a small domain.
      const int64_t aggrs[2] = {static_cast<int64_t>(rng.NextRange(n / 2 + 1)), 1};
      pool.Add(aggrs, cure::cube::MakeRowId(0, rng.NextRange(n)), i % 64, nullptr);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(pool.Flush(&store));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SignaturePoolFlush)->Arg(1 << 12)->Arg(1 << 16);

void BM_BitmapForEach(benchmark::State& state) {
  const uint64_t universe = 1 << 20;
  cure::storage::Bitmap bitmap(universe);
  cure::gen::Rng rng(13);
  for (int i = 0; i < state.range(0); ++i) bitmap.Set(rng.NextRange(universe));
  for (auto _ : state) {
    uint64_t sum = 0;
    bitmap.ForEach([&](uint64_t v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BitmapForEach)->Arg(1 << 10)->Arg(1 << 18);

// Forced-external CURE construction at 1/2/4 threads over a hierarchical
// Zipf fact relation (~150k rows, ~25 sound partitions). The acceptance bar
// for the parallel construct stage is >= 1.5x wall-clock at 4 threads vs 1;
// compare the per-thread-count real time (and the construct_wall_s counter,
// which excludes the serial partitioning pass).
void BM_ParallelConstruct(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  static const cure::schema::CubeSchema* schema = [] {
    std::vector<cure::schema::Dimension> dims;
    dims.push_back(cure::schema::Dimension::Linear("A", {64, 4, 2}));
    dims.push_back(cure::schema::Dimension::Linear("B", {12, 3}));
    dims.push_back(cure::schema::Dimension::Flat("C", 6));
    auto result = cure::schema::CubeSchema::Create(
        std::move(dims), 1,
        {{cure::schema::AggFn::kSum, 0, "s"},
         {cure::schema::AggFn::kCount, 0, "c"}});
    return new cure::schema::CubeSchema(std::move(result).value());
  }();
  static const cure::storage::Relation* rel = [] {
    cure::schema::FactTable table(3, 1);
    cure::gen::Rng rng(23);
    cure::gen::ZipfSampler zipf_a(64, 0.3);
    cure::gen::ZipfSampler zipf_b(12, 0.5);
    for (uint64_t t = 0; t < 150000; ++t) {
      const uint32_t dims_row[3] = {zipf_a.Sample(&rng), zipf_b.Sample(&rng),
                                    static_cast<uint32_t>(rng.NextRange(6))};
      const int64_t m = static_cast<int64_t>(rng.NextRange(1000));
      table.AppendRow(dims_row, &m);
    }
    auto* r = new cure::storage::Relation(
        cure::storage::Relation::Memory(table.RecordSize()));
    cure::Status s = table.WriteTo(r);
    benchmark::DoNotOptimize(s);
    return r;
  }();

  cure::engine::CureOptions options;
  options.force_external = true;
  options.memory_budget_bytes = 1 << 20;
  options.num_threads = threads;
  cure::engine::FactInput input{.relation = rel};
  double construct_seconds = 0;
  uint64_t in_flight = 0;
  for (auto _ : state) {
    auto cube = cure::engine::BuildCure(*schema, input, options);
    if (!cube.ok()) {
      state.SkipWithError(cube.status().ToString().c_str());
      return;
    }
    construct_seconds += (*cube)->stats().construct_stage.wall_seconds;
    in_flight = (*cube)->stats().max_in_flight_partitions;
  }
  state.counters["construct_wall_s"] = benchmark::Counter(
      construct_seconds / static_cast<double>(state.iterations()));
  state.counters["in_flight"] =
      benchmark::Counter(static_cast<double>(in_flight));
}
BENCHMARK(BM_ParallelConstruct)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- Columnar batch scan path: batch kernels vs the scalar scan ----
//
// Records mimic a fact relation column pair: [u32 key][i64 measure],
// 12 bytes. The scalar paths reproduce the legacy record-at-a-time shape
// (Scanner::Next per row, memcpy field extraction, per-row aggregate
// dispatch); the batch paths run Relation::BlockScanner + one gather per
// column per block + the contiguous kernels of engine/kernels.h.

constexpr uint32_t kKernelCardinality = 1024;
constexpr uint64_t kKernelRows = 1 << 18;

cure::storage::Relation MakeKernelRelation(uint64_t n, bool file_backed,
                                           const std::string& path) {
  cure::gen::Rng rng(29);
  cure::gen::ZipfSampler zipf(kKernelCardinality, 0.8);
  cure::storage::Relation rel = cure::storage::Relation::Memory(12);
  if (file_backed) {
    auto r = cure::storage::Relation::CreateFile(path, 12);
    if (!r.ok()) {
      std::fprintf(stderr, "cannot create %s: %s\n", path.c_str(),
                   r.status().ToString().c_str());
      std::exit(1);
    }
    rel = std::move(r).value();
  }
  for (uint64_t i = 0; i < n; ++i) {
    uint8_t rec[12];
    const uint32_t key = zipf.Sample(&rng);
    const int64_t measure = static_cast<int64_t>(rng.NextRange(1000));
    std::memcpy(rec, &key, 4);
    std::memcpy(rec + 4, &measure, 8);
    cure::Status s = rel.Append(rec);
    benchmark::DoNotOptimize(s);
  }
  if (file_backed) {
    cure::Status s = rel.Seal();
    benchmark::DoNotOptimize(s);
    // The sealed relation reads through its open descriptor, so the name
    // can go now: no run, however it ends, leaves the file behind.
    s = cure::storage::RemoveFile(path);
    benchmark::DoNotOptimize(s);
  }
  return rel;
}

/// Scalar histogram fill: one Scanner::Next and one memcpy per row.
/// Returns an order-independent checksum of the counts array.
uint64_t HistogramScalar(const cure::storage::Relation& rel) {
  std::vector<uint32_t> counts(kKernelCardinality + 1, 0);
  cure::storage::Relation::Scanner scan(rel);
  while (const uint8_t* rec = scan.Next()) {
    uint32_t key;
    std::memcpy(&key, rec, 4);
    ++counts[key + 1];
  }
  uint64_t checksum = 0;
  for (size_t c = 0; c < counts.size(); ++c) checksum += counts[c] * (c + 1);
  return checksum;
}

/// Batch histogram fill: one gather + HistogramFill per block.
uint64_t HistogramBatch(const cure::storage::Relation& rel, size_t block_rows) {
  std::vector<uint32_t> counts(kKernelCardinality + 1, 0);
  cure::storage::Relation::BlockScanner scan(rel, block_rows);
  cure::storage::RowBlock block;
  std::vector<uint32_t> keys(block_rows);
  while (scan.Next(&block)) {
    cure::storage::GatherBlockU32(block, 0, keys.data());
    cure::engine::HistogramFill(keys.data(), block.rows, counts.data());
  }
  uint64_t checksum = 0;
  for (size_t c = 0; c < counts.size(); ++c) checksum += counts[c] * (c + 1);
  return checksum;
}

/// Scalar SUM/COUNT accumulate: per-row memcpy and per-row per-aggregate
/// dispatch, the legacy executor shape.
uint64_t AggregateScalar(const cure::storage::Relation& rel) {
  const cure::schema::AggFn fns[2] = {cure::schema::AggFn::kSum,
                                      cure::schema::AggFn::kCount};
  int64_t acc[2] = {0, 0};
  cure::storage::Relation::Scanner scan(rel);
  while (const uint8_t* rec = scan.Next()) {
    int64_t measure;
    std::memcpy(&measure, rec + 4, 8);
    for (int a = 0; a < 2; ++a) {
      switch (fns[a]) {
        case cure::schema::AggFn::kSum:
          acc[a] += measure;
          break;
        case cure::schema::AggFn::kCount:
          acc[a] += 1;
          break;
        case cure::schema::AggFn::kMin:
          acc[a] = std::min(acc[a], measure);
          break;
        case cure::schema::AggFn::kMax:
          acc[a] = std::max(acc[a], measure);
          break;
      }
    }
  }
  return static_cast<uint64_t>(acc[0]) ^ (static_cast<uint64_t>(acc[1]) << 32);
}

/// Batch SUM/COUNT accumulate: one gather + contiguous-slice kernels per
/// block; COUNT degenerates to the block row count.
uint64_t AggregateBatch(const cure::storage::Relation& rel, size_t block_rows) {
  int64_t sum = 0;
  int64_t count = 0;
  cure::storage::Relation::BlockScanner scan(rel, block_rows);
  cure::storage::RowBlock block;
  std::vector<int64_t> measures(block_rows);
  while (scan.Next(&block)) {
    cure::storage::GatherBlockI64(block, 4, measures.data());
    sum += cure::engine::SumSlice(measures.data(), block.rows);
    count += static_cast<int64_t>(block.rows);
  }
  return static_cast<uint64_t>(sum) ^ (static_cast<uint64_t>(count) << 32);
}

const cure::storage::Relation& KernelRelation(bool file_backed) {
  static const cure::storage::Relation* memory =
      new cure::storage::Relation(MakeKernelRelation(kKernelRows, false, ""));
  static const cure::storage::Relation* file = new cure::storage::Relation(
      MakeKernelRelation(kKernelRows, true, "/tmp/cure_bench_kernels.bin"));
  return file_backed ? *file : *memory;
}

void BM_HistogramFillScalar(benchmark::State& state) {
  const cure::storage::Relation& rel = KernelRelation(state.range(0) != 0);
  for (auto _ : state) benchmark::DoNotOptimize(HistogramScalar(rel));
  state.SetItemsProcessed(state.iterations() * kKernelRows);
}
BENCHMARK(BM_HistogramFillScalar)->Arg(0)->Arg(1);

void BM_HistogramFillBatch(benchmark::State& state) {
  const cure::storage::Relation& rel = KernelRelation(state.range(0) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HistogramBatch(rel, cure::storage::kDefaultBlockRows));
  }
  state.SetItemsProcessed(state.iterations() * kKernelRows);
}
BENCHMARK(BM_HistogramFillBatch)->Arg(0)->Arg(1);

void BM_AggAccumulateScalar(benchmark::State& state) {
  const cure::storage::Relation& rel = KernelRelation(state.range(0) != 0);
  for (auto _ : state) benchmark::DoNotOptimize(AggregateScalar(rel));
  state.SetItemsProcessed(state.iterations() * kKernelRows);
}
BENCHMARK(BM_AggAccumulateScalar)->Arg(0)->Arg(1);

void BM_AggAccumulateBatch(benchmark::State& state) {
  const cure::storage::Relation& rel = KernelRelation(state.range(0) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AggregateBatch(rel, cure::storage::kDefaultBlockRows));
  }
  state.SetItemsProcessed(state.iterations() * kKernelRows);
}
BENCHMARK(BM_AggAccumulateBatch)->Arg(0)->Arg(1);

// ---- Row-id dereference: per-row Read vs sorted, coalesced ReadRows ----

/// `n` random row-ids of `rel` (unsorted, duplicates possible).
std::vector<uint64_t> RandomRows(const cure::storage::Relation& rel, size_t n,
                                 uint64_t seed) {
  cure::gen::Rng rng(seed);
  std::vector<uint64_t> rows(n);
  for (uint64_t& row : rows) row = rng.NextRange(rel.num_rows());
  return rows;
}

/// Per-row dereference: one Relation::Read (one pread when file-backed)
/// per row-id.
bool DereferencePerRow(const cure::storage::Relation& rel,
                       const std::vector<uint64_t>& rows, uint8_t* out) {
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!rel.Read(rows[i], out + i * rel.record_size()).ok()) return false;
  }
  return true;
}

/// Batched dereference: one Relation::ReadRows for all row-ids.
bool DereferenceBatched(const cure::storage::Relation& rel,
                        const std::vector<uint64_t>& rows, uint8_t* out) {
  return rel.ReadRows(rows.data(), rows.size(), out).ok();
}

// One query's dereference chunk of random row-ids; arg 0: file-backed,
// arg 1: batched.
void BM_RowIdDereference(benchmark::State& state) {
  const cure::storage::Relation& rel = KernelRelation(state.range(0) != 0);
  const bool batched = state.range(1) != 0;
  const std::vector<uint64_t> rows = RandomRows(rel, 16384, 31);
  std::vector<uint8_t> out(rows.size() * rel.record_size());
  for (auto _ : state) {
    const bool ok = batched ? DereferenceBatched(rel, rows, out.data())
                            : DereferencePerRow(rel, rows, out.data());
    if (!ok) {
      state.SkipWithError("dereference failed");
      return;
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_RowIdDereference)->ArgsProduct({{0, 1}, {0, 1}});

/// Median-of-repeats wall time of `fn`, in nanoseconds per row.
template <typename Fn>
double TimeNsPerRow(Fn fn, uint64_t rows, int repeats = 5) {
  std::vector<double> ns(repeats);
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(fn());
    const auto stop = std::chrono::steady_clock::now();
    ns[r] = std::chrono::duration<double, std::nano>(stop - start).count() /
            static_cast<double>(rows);
  }
  std::sort(ns.begin(), ns.end());
  return ns[repeats / 2];
}

/// --smoke: batch and scalar paths must agree bit-for-bit on both backends
/// and several block sizes. Exit code 0 iff everything matches.
int RunSmoke() {
  int failures = 0;
  for (bool file_backed : {false, true}) {
    const cure::storage::Relation& rel = KernelRelation(file_backed);
    const uint64_t hist_ref = HistogramScalar(rel);
    const uint64_t agg_ref = AggregateScalar(rel);
    for (size_t block_rows : {3ul, 64ul, 1024ul, 4096ul}) {
      const uint64_t hist = HistogramBatch(rel, block_rows);
      const uint64_t agg = AggregateBatch(rel, block_rows);
      const bool ok = hist == hist_ref && agg == agg_ref;
      failures += ok ? 0 : 1;
      std::printf("smoke %s block=%zu hist=%llu agg=%llu %s\n",
                  file_backed ? "file" : "memory", block_rows,
                  static_cast<unsigned long long>(hist),
                  static_cast<unsigned long long>(agg), ok ? "OK" : "MISMATCH");
    }
  }
  // Row-id dereference: coalesced ReadRows must return the bytes of one
  // Read per row, for sparse, dense and single-row requests, for unsorted
  // requests that repeat a few rows many times, and for short requests
  // across the whole relation, whose 18-bit row-ids take several narrow
  // radix passes to order.
  for (bool file_backed : {false, true}) {
    const cure::storage::Relation& rel = KernelRelation(file_backed);
    std::vector<std::pair<std::string, std::vector<uint64_t>>> requests;
    for (size_t n : {1ul, 100ul, 16384ul, 200000ul}) {
      requests.emplace_back("", RandomRows(rel, n, 37 + n));
    }
    std::vector<uint64_t> dups = RandomRows(rel, 16384, 43);
    for (uint64_t& row : dups) row = row % 64 * 4099;
    requests.emplace_back("dups ", std::move(dups));
    requests.emplace_back("multipass ", RandomRows(rel, 8, 47));
    for (const auto& [kind, rows] : requests) {
      const size_t n = rows.size();
      std::vector<uint8_t> per_row(n * rel.record_size());
      std::vector<uint8_t> batched(n * rel.record_size(), 0xA5);
      const bool ok = DereferencePerRow(rel, rows, per_row.data()) &&
                      DereferenceBatched(rel, rows, batched.data()) &&
                      per_row == batched;
      failures += ok ? 0 : 1;
      std::printf("smoke %s deref %srows=%zu %s\n",
                  file_backed ? "file" : "memory", kind.c_str(), n,
                  ok ? "OK" : "MISMATCH");
    }
  }
  std::printf(failures == 0 ? "SMOKE PASS\n" : "SMOKE FAIL\n");
  return failures == 0 ? 0 : 1;
}

/// --kernels-json: per-kernel ns/row baseline, scalar vs batch.
int WriteKernelsJson(const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  out << "{\n  \"rows\": " << kKernelRows
      << ",\n  \"cardinality\": " << kKernelCardinality
      << ",\n  \"block_rows\": " << cure::storage::kDefaultBlockRows
      << ",\n  \"kernels\": [\n";
  bool first = true;
  for (bool file_backed : {false, true}) {
    const cure::storage::Relation& rel = KernelRelation(file_backed);
    const char* backend = file_backed ? "file" : "memory";
    struct Row {
      const char* kernel;
      double scalar_ns;
      double batch_ns;
    };
    const Row rows[] = {
        {"histogram_fill",
         TimeNsPerRow([&] { return HistogramScalar(rel); }, kKernelRows),
         TimeNsPerRow(
             [&] {
               return HistogramBatch(rel, cure::storage::kDefaultBlockRows);
             },
             kKernelRows)},
        {"sum_count_accumulate",
         TimeNsPerRow([&] { return AggregateScalar(rel); }, kKernelRows),
         TimeNsPerRow(
             [&] {
               return AggregateBatch(rel, cure::storage::kDefaultBlockRows);
             },
             kKernelRows)},
    };
    for (const Row& row : rows) {
      if (!first) out << ",\n";
      first = false;
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "    {\"kernel\": \"%s\", \"backend\": \"%s\", "
                    "\"scalar_ns_per_row\": %.2f, \"batch_ns_per_row\": %.2f, "
                    "\"speedup\": %.2f}",
                    row.kernel, backend, row.scalar_ns, row.batch_ns,
                    row.scalar_ns / row.batch_ns);
      out << buf;
      std::printf("%s\n", buf);
    }
  }
  out << "\n  ]\n}\n";
  return out.good() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") return RunSmoke();
    if (arg.rfind("--kernels-json=", 0) == 0) {
      return WriteKernelsJson(arg.substr(std::strlen("--kernels-json=")));
    }
  }
  RegisterSorts();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
