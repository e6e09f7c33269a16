// Reproduces Figure 18: signature pool size vs resulting cube size.
//
// The bounded pool classifies NTs/CATs from memory-resident signatures
// only; a smaller pool misses some cross-flush CATs and stores their
// aggregates redundantly. The paper finds the "working set" of signatures
// small: the curve flattens quickly, and ~10^6 signatures is within a few
// percent of the unbounded optimum. BUC / BU-BST / CURE+ sizes are printed
// as reference lines, as in the figure.

#include "bench/bench_util.h"
#include "cube/signature.h"

using namespace cure;         // NOLINT
using namespace cure::bench;  // NOLINT

namespace {

void RunDataset(const gen::Dataset& ds, const std::vector<size_t>& pool_sizes) {
  engine::FactInput input{.table = &ds.table};

  // Reference lines.
  auto buc = engine::BuildBuc(ds.schema, ds.table, {});
  auto bubst = engine::BuildBubst(ds.schema, ds.table, {});
  CURE_CHECK(buc.ok() && bubst.ok());

  PrintSubHeader(ds.name + " — cube size vs signature pool size");
  std::printf("reference: BUC %s, BU-BST %s\n",
              FormatBytes((*buc)->store().TotalBytes()).c_str(),
              FormatBytes((*bubst)->TotalBytes()).c_str());
  std::printf("%-16s %14s %14s %16s %14s %12s\n", "pool (sigs)", "CURE",
              "CURE+", "pool footprint", "footprint/cube", "flushes");
  double ratio = 0;
  for (size_t pool : pool_sizes) {
    engine::CureOptions options;
    options.signature_pool_capacity = pool;
    CureBuildResult cure =
        BuildCureVariant("CURE", ds.schema, input, options, false);
    CureBuildResult plus =
        BuildCureVariant("CURE+", ds.schema, input, options, true);
    cube::SignaturePool probe(ds.schema.num_aggregates(), 0, pool);
    ratio = static_cast<double>(probe.FootprintBytes()) /
            static_cast<double>(cure.row.bytes);
    std::printf("%-16zu %14s %14s %16s %14.2f %12llu\n", pool,
                FormatBytes(cure.row.bytes).c_str(),
                FormatBytes(plus.row.bytes).c_str(),
                FormatBytes(probe.FootprintBytes()).c_str(), ratio,
                static_cast<unsigned long long>(cure.cube->stats().signature_flushes));
  }
  std::printf("largest pool's footprint / CURE cube: %.2f\n", ratio);
}

}  // namespace

int main() {
  PrintHeader("Figure 18 — signature pool size vs cube storage space");
  const uint64_t divisor = 32 * static_cast<uint64_t>(ScaleEnv(1));
  // The paper sweeps 10^6..9*10^6 signatures on ~10^6-row datasets; scaled
  // proportionally to our row counts.
  const std::vector<size_t> pool_sizes = {1000,   5000,   20000,
                                          100000, 500000, 2000000};
  RunDataset(gen::MakeCovTypeProxy(divisor), pool_sizes);
  RunDataset(gen::MakeSep85LProxy(divisor), pool_sizes);
  std::printf(
      "\nShape check vs paper: cube size decreases monotonically with pool "
      "size but the improvement is minor past a small working set. The "
      "footprint/cube column is the pool's memory over the CURE cube it "
      "builds.\n");
  return 0;
}
