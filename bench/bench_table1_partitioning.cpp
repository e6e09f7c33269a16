// Reproduces Table 1: CURE's partitioning efficiency on the SALES example.
//
// Paper setting: SALES with Product organized as barcode -> brand ->
// economic_strength (10,000 -> 1,000 -> 10) and |M| = 1 GB; as |R| grows
// from 10 GB to 1 TB, the feasible partitioning level L drops from 2 to 1,
// the partition count rises, and node N grows — but partitioning always
// remains feasible.
//
// We reproduce the same |R|/|M| ratios at laptop scale (the analytic level
// selection sees exactly the paper's ratios) and additionally *measure* an
// actual partition pass at the smallest ratio.

#include "bench/bench_util.h"
#include "engine/partition.h"
#include "storage/relation.h"

using namespace cure;            // NOLINT
using namespace cure::bench;     // NOLINT

int main() {
  PrintHeader(
      "Table 1 — partitioning efficiency (SALES: barcode 10,000 -> brand "
      "1,000 -> economic_strength 10)");

  // Generate one SALES table; its per-level histograms scale linearly with
  // |R|, so the analytic sweep scales the histogram, exactly like the
  // paper's back-of-envelope table.
  const uint64_t base_rows = 1000000 / ScaleEnv(1);
  gen::Dataset sales = gen::MakeSales(base_rows);
  storage::Relation rel = storage::Relation::Memory(sales.table.RecordSize());
  CURE_CHECK_OK(sales.table.WriteTo(&rel));
  auto hist = engine::ComputeLevelHistograms(rel, sales.schema);
  CURE_CHECK(hist.ok()) << hist.status().ToString();

  // The paper's |R| : |M| ratios — 10, 100, 1000.
  const size_t rec = engine::PartitionRecordSize(sales.schema);
  struct Setting {
    const char* r_label;
    uint64_t ratio;
  };
  const Setting settings[] = {{"10 GB", 10}, {"100 GB", 100}, {"1 TB", 1000}};

  std::printf("\n(analytic sweep at the paper's |R|/|M| ratios; |M| scaled to "
              "keep ratio)\n\n");
  std::printf("%8s %4s %14s %16s %14s %10s\n", "|R|", "L", "#partitions",
              "partition size", "|A0|/|A(L+1)|", "est |N|");
  for (const Setting& s : settings) {
    engine::PartitionOptions options;
    // 20% headroom over the exact ratio: the paper's Table 1 sits exactly at
    // the |M| boundary (10 partitions of 1 GB in 1 GB of memory), which only
    // works for perfectly uniform values.
    options.memory_budget_bytes = base_rows * rec * 12 / (10 * s.ratio);
    options.n_overhead_factor = 1.0;  // Table 1 counts raw |N| bytes.
    auto choice = engine::SelectPartitionLevel(sales.schema, *hist,
                                               sales.table.num_rows(), options);
    if (!choice.ok()) {
      std::printf("%8s  infeasible: %s\n", s.r_label,
                  choice.status().message().c_str());
      continue;
    }
    const schema::Dimension& product = sales.schema.dim(0);
    const uint64_t card_above = choice->level + 1 < product.num_levels()
                                    ? product.cardinality(choice->level + 1)
                                    : 1;
    std::printf("%8s %4d %14llu %16s %14llu %10llu rows\n", s.r_label,
                choice->level,
                static_cast<unsigned long long>(choice->num_partitions),
                FormatBytes(options.memory_budget_bytes).c_str(),
                static_cast<unsigned long long>(product.leaf_cardinality() /
                                                card_above),
                static_cast<unsigned long long>(choice->est_n_rows));
  }

  // A real, measured partition pass at ratio 10.
  PrintSubHeader("measured partition pass at |R|/|M| = 10");
  engine::PartitionOptions options;
  options.memory_budget_bytes = base_rows * rec * 12 / 100;
  options.n_overhead_factor = 1.0;
  // PartitionFact names its files by partition number alone.
  const ScopedBenchDir dir("table1");
  options.temp_dir = dir.path();
  auto choice = engine::SelectPartitionLevel(sales.schema, *hist,
                                             sales.table.num_rows(), options);
  CURE_CHECK(choice.ok()) << choice.status().ToString();
  Stopwatch watch;
  auto outcome = engine::PartitionFact(rel, sales.schema, *choice, *hist, options);
  CURE_CHECK(outcome.ok()) << outcome.status().ToString();
  std::printf(
      "rows=%llu  L=%d  partitions=%llu  max-partition=%llu rows  "
      "|N|=%llu rows (%s)  pass=%.3f s  write=%s\n",
      static_cast<unsigned long long>(sales.table.num_rows()), outcome->level,
      static_cast<unsigned long long>(outcome->partitions.size()),
      static_cast<unsigned long long>(outcome->max_partition_rows),
      static_cast<unsigned long long>(outcome->n_table->num_rows),
      FormatBytes(outcome->n_table->bytes()).c_str(), watch.ElapsedSeconds(),
      FormatBytes(outcome->write_bytes).c_str());
  for (storage::Relation& part : outcome->partitions) {
    const std::string path = part.path();
    part = storage::Relation();
    CURE_CHECK_OK(storage::RemoveFile(path));
  }
  std::printf(
      "\nShape check vs paper: L drops as |R|/|M| grows, partition count "
      "rises, partitioning never becomes infeasible.\n");
  return 0;
}
