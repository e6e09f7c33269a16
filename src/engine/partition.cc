#include "engine/partition.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <unordered_map>

#include "common/logging.h"
#include "common/trace.h"
#include "cube/rowid.h"
#include "engine/kernels.h"
#include "storage/row_block.h"

namespace cure {
namespace engine {

using cube::AggTable;
using schema::CubeSchema;
using schema::Dimension;

size_t PartitionRecordSize(const CubeSchema& schema) {
  return 4ull * schema.num_dims() + 8ull * schema.num_aggregates() + 8;
}

namespace {

/// First-fit-decreasing packing of per-value row counts into bins of at most
/// `capacity_rows` rows. Returns the row total of each bin; when
/// `value_to_partition` is non-null it is resized to counts.size() and
/// records each value's bin index (zero-count values stay at bin 0 — they
/// never occur in the data). Shared by level selection (which only needs the
/// bin count) and the partitioning pass (which needs the assignment), so the
/// two always agree on the partition count.
std::vector<uint64_t> PackValuesFirstFitDecreasing(
    const std::vector<uint64_t>& counts, uint64_t capacity_rows,
    std::vector<uint32_t>* value_to_partition) {
  std::vector<uint32_t> value_order(counts.size());
  std::iota(value_order.begin(), value_order.end(), 0);
  std::sort(value_order.begin(), value_order.end(),
            [&](uint32_t a, uint32_t b) { return counts[a] > counts[b]; });
  if (value_to_partition != nullptr) {
    value_to_partition->assign(counts.size(), 0);
  }
  std::vector<uint64_t> bin_rows;
  for (uint32_t v : value_order) {
    if (counts[v] == 0) continue;
    bool placed = false;
    for (size_t b = 0; b < bin_rows.size(); ++b) {
      if (bin_rows[b] + counts[v] <= capacity_rows) {
        bin_rows[b] += counts[v];
        if (value_to_partition != nullptr) {
          (*value_to_partition)[v] = static_cast<uint32_t>(b);
        }
        placed = true;
        break;
      }
    }
    if (!placed) {
      if (value_to_partition != nullptr) {
        (*value_to_partition)[v] = static_cast<uint32_t>(bin_rows.size());
      }
      bin_rows.push_back(counts[v]);
    }
  }
  return bin_rows;
}

/// Partitions are packed to the budget divided by this, so up to this many
/// can be resident concurrently within the budget. Deliberately a constant
/// independent of the build's thread count: the partition layout — and
/// therefore the cube bytes — must be identical for every num_threads
/// setting. Level selection still checks value fit against the full budget.
constexpr uint64_t kInFlightSubdivision = 8;

/// Packing capacity in rows: the budget subdivided for concurrent residency,
/// floored at the most frequent value of the level (a sound partition can
/// never split a value).
uint64_t PackCapacityRows(const std::vector<uint64_t>& counts,
                          uint64_t budget_bytes, size_t record_size) {
  const uint64_t full_rows = std::max<uint64_t>(1, budget_bytes / record_size);
  const uint64_t subdivided = full_rows / kInFlightSubdivision;
  uint64_t max_value = 0;
  for (uint64_t c : counts) max_value = std::max(max_value, c);
  return std::max<uint64_t>({1, subdivided, max_value});
}

}  // namespace

Result<std::vector<std::vector<uint64_t>>> ComputeLevelHistograms(
    const storage::Relation& fact, const CubeSchema& schema,
    std::vector<cube::ValueRange>* measure_ranges) {
  const Dimension& dim0 = schema.dim(0);
  std::vector<std::vector<uint64_t>> hist(dim0.num_levels());
  for (int l = 0; l < dim0.num_levels(); ++l) hist[l].assign(dim0.cardinality(l), 0);
  const int raw = schema.num_raw_measures();
  const size_t measures_offset = 4ull * schema.num_dims();
  if (measure_ranges != nullptr) measure_ranges->assign(raw, {});

  // Gather the leaf-code column of each block once, then fill each level's
  // histogram from the contiguous slice (a plain counting loop over
  // already-mapped codes for level 0; per-level CodeAt above).
  CURE_TRACE_SPAN("cure.engine.kernel.histogram", "rows", fact.num_rows(),
                  "levels", static_cast<uint64_t>(dim0.num_levels()));
  const size_t block_rows = storage::kDefaultBlockRows;
  storage::Relation::BlockScanner scan(fact, block_rows);
  storage::RowBlock block;
  std::vector<uint32_t> leaves(block_rows);
  std::vector<int64_t> values(measure_ranges != nullptr ? block_rows : 0);
  const uint32_t leaf_cardinality = dim0.leaf_cardinality();
  while (scan.Next(&block)) {
    storage::GatherBlockU32(block, 0, leaves.data());
    const uint32_t* CURE_RESTRICT codes = leaves.data();
    uint32_t max_code = 0;
    for (size_t i = 0; i < block.rows; ++i) {
      max_code = codes[i] > max_code ? codes[i] : max_code;
    }
    if (max_code >= leaf_cardinality) {
      return Status::InvalidArgument("dim0 code out of range in fact relation");
    }
    for (int l = 0; l < dim0.num_levels(); ++l) {
      uint64_t* CURE_RESTRICT h = hist[l].data();
      for (size_t i = 0; i < block.rows; ++i) ++h[dim0.CodeAt(codes[i], l)];
    }
    for (int m = 0; measure_ranges != nullptr && m < raw; ++m) {
      storage::GatherBlockI64(block, measures_offset + 8ull * m, values.data());
      cube::ValueRange& range = (*measure_ranges)[m];
      for (size_t i = 0; i < block.rows; ++i) range.Add(values[i]);
    }
  }
  CURE_RETURN_IF_ERROR(scan.status());
  return hist;
}

Result<LevelChoice> SelectPartitionLevel(
    const CubeSchema& schema,
    const std::vector<std::vector<uint64_t>>& level_histograms, uint64_t num_rows,
    const PartitionOptions& options) {
  const Dimension& dim0 = schema.dim(0);
  if (!dim0.is_linear()) {
    return Status::Unimplemented(
        "external partitioning requires a linear hierarchy on the first "
        "dimension");
  }
  const size_t rec = PartitionRecordSize(schema);
  const uint64_t part_capacity_rows =
      std::max<uint64_t>(1, options.memory_budget_bytes / rec);
  const uint64_t n_row_bytes = 4ull * schema.num_dims() +
                               8ull * schema.num_aggregates();

  LevelChoice best;
  for (int l = dim0.num_levels() - 1; l >= 0; --l) {
    uint64_t max_count = 0;
    for (uint64_t c : level_histograms[l]) max_count = std::max(max_count, c);
    if (max_count > part_capacity_rows) continue;  // some partition too big

    // Observation 2: |N| ≈ |R| * |A_{L+1}| / |A_0|; at the top level A is
    // projected out of N, so the factor is 1 / |A_0|.
    const double card_above =
        l + 1 < dim0.num_levels() ? static_cast<double>(dim0.cardinality(l + 1)) : 1.0;
    const double est_n = static_cast<double>(num_rows) * card_above /
                         static_cast<double>(dim0.leaf_cardinality());
    const double est_n_bytes =
        est_n * static_cast<double>(n_row_bytes) * options.n_overhead_factor;
    if (est_n_bytes > static_cast<double>(options.memory_budget_bytes)) continue;

    best.level = l;
    best.max_value_rows = max_count;
    best.est_n_rows = static_cast<uint64_t>(est_n) + 1;
    best.num_partitions =
        PackValuesFirstFitDecreasing(
            level_histograms[l],
            PackCapacityRows(level_histograms[l], options.memory_budget_bytes,
                             rec),
            nullptr)
            .size();
    return best;
  }
  return Status::ResourceExhausted(
      "no hierarchy level of the first dimension yields memory-sized sound "
      "partitions with an in-memory N; partitioning on dimension pairs is "
      "not implemented (paper Sec. 4 omits it as well)");
}

Result<PartitionOutcome> PartitionFact(
    const storage::Relation& fact, const CubeSchema& schema,
    const LevelChoice& choice,
    const std::vector<std::vector<uint64_t>>& level_histograms,
    const PartitionOptions& options) {
  const Dimension& dim0 = schema.dim(0);
  const int num_dims = schema.num_dims();
  const int y = schema.num_aggregates();
  const int raw_measures = schema.num_raw_measures();
  const int level = choice.level;
  const bool top_level = level + 1 >= dim0.num_levels();
  const size_t fact_rec = 4ull * num_dims + 8ull * raw_measures;
  if (fact.record_size() != fact_rec) {
    return Status::InvalidArgument("fact relation record size mismatch");
  }
  const size_t part_rec = PartitionRecordSize(schema);

  // Assign values of A_level to partitions: first-fit-decreasing at the
  // subdivided (concurrency-ready) capacity.
  const std::vector<uint64_t>& counts = level_histograms[level];
  const uint64_t part_capacity_rows =
      PackCapacityRows(counts, options.memory_budget_bytes, part_rec);
  std::vector<uint32_t> value_to_partition;
  const std::vector<uint64_t> bin_rows = PackValuesFirstFitDecreasing(
      counts, part_capacity_rows, &value_to_partition);
  const size_t num_partitions = bin_rows.size();
  if (num_partitions == 0) {
    return Status::InvalidArgument("empty fact table cannot be partitioned");
  }

  PartitionOutcome outcome;
  outcome.level = level;
  outcome.max_partition_rows = *std::max_element(bin_rows.begin(), bin_rows.end());

  // Open one file-backed relation per partition (modest write buffers: many
  // writers may be open at once).
  outcome.partitions.reserve(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    const std::string path =
        options.temp_dir + "/cure_part_" + std::to_string(p) + ".bin";
    CURE_ASSIGN_OR_RETURN(storage::Relation rel,
                          storage::Relation::CreateFile(path, part_rec));
    outcome.partitions.push_back(std::move(rel));
  }

  // Node N: hash aggregation keyed by (A_{level+1}, leaf codes of the other
  // dimensions) — or without A when partitioning on the top level.
  // Keys are mixed-radix packed into 64 bits.
  uint64_t key_space = top_level ? 1 : dim0.cardinality(level + 1);
  for (int d = 1; d < num_dims; ++d) {
    const uint64_t card = schema.dim(d).leaf_cardinality();
    if (key_space > (uint64_t{1} << 62) / std::max<uint64_t>(card, 1)) {
      return Status::Unimplemented("node-N key space exceeds 2^62");
    }
    key_space *= card;
  }
  std::unordered_map<uint64_t, uint32_t> n_index;
  auto n_table = std::make_shared<AggTable>();
  n_table->native_levels.assign(num_dims, 0);
  n_table->native_levels[0] = top_level ? cube::kNativeAll : level + 1;
  n_table->dims.resize(num_dims);
  n_table->aggrs.resize(y);

  const cube::Aggregator aggregator(schema);
  storage::Relation::Scanner scan(fact);
  std::vector<uint8_t> out_rec(part_rec);
  std::vector<int64_t> lifted(y);
  std::vector<int64_t> raw(std::max(raw_measures, 1));
  uint64_t rowid = 0;
  while (const uint8_t* rec = scan.Next()) {
    uint32_t dims[64];
    CURE_CHECK_LE(num_dims, 64);
    std::memcpy(dims, rec, 4ull * num_dims);
    std::memcpy(raw.data(), rec + 4ull * num_dims, 8ull * raw_measures);
    aggregator.Lift(raw.data(), lifted.data());

    // Route to the sound partition.
    const uint32_t code = dim0.CodeAt(dims[0], level);
    storage::Relation& part = outcome.partitions[value_to_partition[code]];
    uint8_t* p = out_rec.data();
    std::memcpy(p, dims, 4ull * num_dims);
    p += 4ull * num_dims;
    std::memcpy(p, lifted.data(), 8ull * y);
    p += 8ull * y;
    std::memcpy(p, &rowid, 8);
    CURE_RETURN_IF_ERROR(part.Append(out_rec.data()));

    // Update node N.
    uint64_t key = top_level ? 0 : dim0.CodeAt(dims[0], level + 1);
    for (int d = 1; d < num_dims; ++d) {
      key = key * schema.dim(d).leaf_cardinality() + dims[d];
    }
    auto [it, inserted] = n_index.try_emplace(
        key, static_cast<uint32_t>(n_table->num_rows));
    if (inserted) {
      if (!top_level) {
        n_table->dims[0].push_back(dim0.CodeAt(dims[0], level + 1));
      } else {
        n_table->dims[0].push_back(0);
      }
      for (int d = 1; d < num_dims; ++d) n_table->dims[d].push_back(dims[d]);
      for (int a = 0; a < y; ++a) n_table->aggrs[a].push_back(lifted[a]);
      ++n_table->num_rows;
    } else {
      const uint32_t idx = it->second;
      int64_t acc[16];
      CURE_CHECK_LE(y, 16);
      for (int a = 0; a < y; ++a) acc[a] = n_table->aggrs[a][idx];
      aggregator.Combine(acc, lifted.data());
      for (int a = 0; a < y; ++a) n_table->aggrs[a][idx] = acc[a];
    }
    ++rowid;
  }
  CURE_RETURN_IF_ERROR(scan.status());

  for (storage::Relation& part : outcome.partitions) {
    CURE_RETURN_IF_ERROR(part.Seal());
    outcome.write_bytes += part.bytes();
  }
  outcome.n_table = std::move(n_table);
  if (outcome.n_table->bytes() > options.memory_budget_bytes) {
    // The paper's observation-2 estimate (|N| ≈ |R|·|A_{L+1}|/|A_0|) is an
    // under-estimate whenever the remaining dimensions nearly key the rows;
    // construction still succeeds, just beyond the nominal budget.
    CURE_LOG(kWarning) << "node N (" << outcome.n_table->bytes()
                       << " B) exceeds the memory budget ("
                       << options.memory_budget_bytes
                       << " B); the paper's size estimate was optimistic";
  }
  CURE_LOG(kDebug) << "partitioned " << rowid << " rows on level " << level
                   << " into " << num_partitions << " partitions; |N|="
                   << outcome.n_table->num_rows;
  return outcome;
}

}  // namespace engine
}  // namespace cure
