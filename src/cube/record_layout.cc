#include "cube/record_layout.h"

#include <algorithm>

#include "common/logging.h"

namespace cure {
namespace cube {

namespace {

constexpr uint64_t kInt32Max = std::numeric_limits<int32_t>::max();
constexpr uint32_t kCountShift = 24;

/// |v| without overflow at INT64_MIN.
uint64_t Magnitude(int64_t v) {
  return v < 0 ? uint64_t{0} - static_cast<uint64_t>(v) : static_cast<uint64_t>(v);
}

}  // namespace

WidthBounds BoundsForRows(uint64_t rows, uint64_t num_nodes,
                          std::vector<ValueRange> measures) {
  WidthBounds bounds;
  bounds.rowid_rows = rows;
  bounds.fact_rows = rows;
  bounds.aggregate_rows =
      num_nodes != 0 && rows > std::numeric_limits<uint64_t>::max() / num_nodes
          ? std::numeric_limits<uint64_t>::max()
          : rows * num_nodes;
  bounds.measures = std::move(measures);
  return bounds;
}

WidthBounds BoundsForTable(const schema::FactTable& table, uint64_t num_nodes) {
  std::vector<ValueRange> measures(table.num_measures());
  for (int m = 0; m < table.num_measures(); ++m) {
    measures[m] = {table.measure_min(m), table.measure_max(m)};
  }
  return BoundsForRows(table.num_rows(), num_nodes, std::move(measures));
}

RecordLayout RecordLayout::Wide(int num_aggregates) {
  RecordLayout layout;
  layout.SetAggregateWidths(std::vector<uint8_t>(num_aggregates, 8));
  return layout;
}

void RecordLayout::SetAggregateWidths(std::vector<uint8_t> widths) {
  aggr_width_ = std::move(widths);
  aggr_offset_.resize(aggr_width_.size());
  aggregates_bytes_ = 0;
  uniform_width_ = 8;
  for (size_t y = 0; y < aggr_width_.size(); ++y) {
    aggr_offset_[y] = static_cast<uint32_t>(aggregates_bytes_);
    aggregates_bytes_ += aggr_width_[y];
    if (y == 0) uniform_width_ = aggr_width_[0];
    if (aggr_width_[y] != uniform_width_) uniform_width_ = 0;
  }
}

uint32_t RecordLayout::WidthBits() const {
  CURE_CHECK_LE(aggr_width_.size(), 255u) << "too many aggregates to pack";
  uint32_t bits = static_cast<uint32_t>(aggr_width_.size()) << kCountShift;
  if (rowid_width_ == 4) bits |= 1u;
  if (arowid_width_ == 4) bits |= 2u;
  for (size_t y = 0; y < aggr_width_.size(); ++y) {
    if (aggr_width_[y] == 4) bits |= 4u << y;
  }
  return bits;
}

Result<RecordLayout> RecordLayout::FromWidthBits(uint32_t bits) {
  const int y = static_cast<int>(bits >> kCountShift);
  const uint32_t flag_mask = (4u << std::min(y, kMaxNarrowAggregates)) - 1;
  if ((bits & ((1u << kCountShift) - 1) & ~flag_mask) != 0) {
    return Status::InvalidArgument("record width word has flags past its " +
                                   std::to_string(y) + " aggregates");
  }
  RecordLayout layout;
  layout.rowid_width_ = (bits & 1u) != 0 ? 4 : 8;
  layout.arowid_width_ = (bits & 2u) != 0 ? 4 : 8;
  std::vector<uint8_t> widths(y, 8);
  for (int a = 0; a < std::min(y, kMaxNarrowAggregates); ++a) {
    if ((bits & (4u << a)) != 0) widths[a] = 4;
  }
  layout.SetAggregateWidths(std::move(widths));
  return layout;
}

std::string RecordLayout::ToString() const {
  std::string out = "row-id " + std::to_string(rowid_width_) + " B, A-rowid " +
                    std::to_string(arowid_width_) + " B, aggregates ";
  for (size_t y = 0; y < aggr_width_.size(); ++y) {
    if (y > 0) out += "/";
    out += std::to_string(aggr_width_[y]);
  }
  return out + " B";
}

std::string RecordLayout::FirstWiderField(const RecordLayout& needed,
                                          const schema::CubeSchema& schema) const {
  if (needed.rowid_width_ > rowid_width_) return "row-id";
  if (needed.arowid_width_ > arowid_width_) return "A-rowid";
  for (size_t y = 0; y < aggr_width_.size() && y < needed.aggr_width_.size(); ++y) {
    if (needed.aggr_width_[y] > aggr_width_[y]) {
      return "aggregate '" + schema.aggregate(static_cast<int>(y)).name + "'";
    }
  }
  return "";
}

RecordLayout ChooseRecordLayout(const std::vector<schema::AggregateSpec>& aggregates,
                                const WidthBounds& bounds) {
  RecordLayout layout;
  layout.rowid_width_ = bounds.rowid_rows <= (uint64_t{1} << 31) ? 4 : 8;
  layout.arowid_width_ = bounds.aggregate_rows <= (uint64_t{1} << 32) ? 4 : 8;
  std::vector<uint8_t> widths(aggregates.size(), 8);
  for (size_t y = 0; y < aggregates.size() &&
                     y < static_cast<size_t>(RecordLayout::kMaxNarrowAggregates);
       ++y) {
    const schema::AggregateSpec& spec = aggregates[y];
    bool fits = false;
    if (spec.fn == schema::AggFn::kCount) {
      fits = bounds.fact_rows <= kInt32Max;
    } else {
      const size_t m = static_cast<size_t>(spec.measure_index);
      const ValueRange range =
          m < bounds.measures.size() ? bounds.measures[m] : ValueRange{};
      if (range.empty()) {
        fits = true;  // No value at all: any width holds every stored value.
      } else if (spec.fn == schema::AggFn::kSum) {
        const uint64_t mag = std::max(Magnitude(range.lo), Magnitude(range.hi));
        fits = mag == 0 || bounds.fact_rows <= kInt32Max / mag;
      } else {  // kMin / kMax
        fits = range.lo >= std::numeric_limits<int32_t>::min() &&
               range.hi <= std::numeric_limits<int32_t>::max();
      }
    }
    if (fits) widths[y] = 4;
  }
  layout.SetAggregateWidths(std::move(widths));
  return layout;
}

}  // namespace cube
}  // namespace cure
