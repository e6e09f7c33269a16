#ifndef CURE_CUBE_RECORD_LAYOUT_H_
#define CURE_CUBE_RECORD_LAYOUT_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "cube/rowid.h"
#include "schema/cube_schema.h"
#include "schema/fact_table.h"
#include "storage/row_block.h"

namespace cure {
namespace cube {

/// Inclusive value range of one raw measure column (empty: lo > hi).
struct ValueRange {
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();

  bool empty() const { return lo > hi; }
  void Add(int64_t v) {
    if (v < lo) lo = v;
    if (v > hi) hi = v;
  }
};

/// Bounds known before construction that fix a cube's record widths
/// (DESIGN.md §5). Every stored value is provably inside them.
struct WidthBounds {
  /// Rows of the largest row-id source (fact table R or node N): row-id
  /// ordinals are < this.
  uint64_t rowid_rows = 0;
  /// Upper bound on AGGREGATES rows: A-rowids are < this.
  uint64_t aggregate_rows = 0;
  /// Fact rows folded into any one aggregate: bounds COUNT, and SUM
  /// together with the measure's magnitude.
  uint64_t fact_rows = 0;
  /// Per raw measure: the range of its values (MIN/MAX stay inside it).
  std::vector<ValueRange> measures;
};

/// Bounds of a cube built over `rows` fact rows whose measure columns span
/// `measures`, in a lattice of `num_nodes` nodes. A node's NT/CAT tuples
/// are at most its source rows, so rows x nodes bounds AGGREGATES.
WidthBounds BoundsForRows(uint64_t rows, uint64_t num_nodes,
                          std::vector<ValueRange> measures);

/// Bounds of a cube over every row of `table` (ranges tracked at append).
WidthBounds BoundsForTable(const schema::FactTable& table, uint64_t num_nodes);

/// The byte width of every stored field of a cube's records: the row-id,
/// the A-rowid, and each aggregate, each 4 or 8 bytes. Chosen once per
/// build from WidthBounds (ChooseRecordLayout) and fixed for the store's
/// life; every NT/TT/CAT/AGGREGATES/PLAIN record is written and read
/// through it. Readers widen to the in-memory RowId / int64_t, so nothing
/// downstream of a read sees the width.
///
/// A 4-byte row-id keeps the source tag in its top bit (fact table or node
/// N) and the ordinal in the low 31 bits. A default-constructed layout
/// (or Wide(y)) is all 8-byte — the layout of a store built without bounds.
class RecordLayout {
 public:
  /// Only the first kMaxNarrowAggregates aggregates can be narrowed (one
  /// flag bit each in the packed header); later ones stay 8 bytes.
  static constexpr int kMaxNarrowAggregates = 16;

  RecordLayout() = default;
  static RecordLayout Wide(int num_aggregates);
  /// From the packed header's width word (WidthBits); InvalidArgument on
  /// bits no layout sets.
  static Result<RecordLayout> FromWidthBits(uint32_t bits);

  /// Packed header encoding: bit 0 row-id narrow, bit 1 A-rowid narrow,
  /// bit 2 + y aggregate y narrow, bits 24..31 the aggregate count.
  uint32_t WidthBits() const;

  int num_aggregates() const { return static_cast<int>(aggr_width_.size()); }
  size_t rowid_width() const { return rowid_width_; }
  size_t arowid_width() const { return arowid_width_; }
  size_t aggregate_width(int y) const { return aggr_width_[y]; }
  size_t aggregates_bytes() const { return aggregates_bytes_; }

  /// Human-readable widths, e.g. "row-id 4 B, A-rowid 4 B, aggregates 8/4 B".
  std::string ToString() const;

  /// Names the first field `needed` makes wider than this layout ("row-id",
  /// "A-rowid" or the aggregate's name from `schema`); empty when every
  /// field of `needed` fits.
  std::string FirstWiderField(const RecordLayout& needed,
                              const schema::CubeSchema& schema) const;

  bool operator==(const RecordLayout& other) const {
    return rowid_width_ == other.rowid_width_ &&
           arowid_width_ == other.arowid_width_ &&
           aggr_width_ == other.aggr_width_;
  }

  // ------- field codecs -------

  void PutRowId(uint8_t* p, RowId rowid) const {
    if (rowid_width_ == 8) {
      std::memcpy(p, &rowid, 8);
      return;
    }
    const uint32_t narrow = (RowIdSource(rowid) << 31) |
                            static_cast<uint32_t>(RowIdOrdinal(rowid));
    std::memcpy(p, &narrow, 4);
  }
  RowId GetRowId(const uint8_t* p) const {
    if (rowid_width_ == 8) {
      RowId rowid;
      std::memcpy(&rowid, p, 8);
      return rowid;
    }
    uint32_t narrow;
    std::memcpy(&narrow, p, 4);
    return WidenRowId(narrow);
  }

  void PutArowid(uint8_t* p, uint64_t arowid) const {
    if (arowid_width_ == 8) {
      std::memcpy(p, &arowid, 8);
    } else {
      const uint32_t narrow = static_cast<uint32_t>(arowid);
      std::memcpy(p, &narrow, 4);
    }
  }
  uint64_t GetArowid(const uint8_t* p) const {
    if (arowid_width_ == 8) {
      uint64_t arowid;
      std::memcpy(&arowid, p, 8);
      return arowid;
    }
    uint32_t narrow;
    std::memcpy(&narrow, p, 4);
    return narrow;
  }

  /// Writes the Y aggregates as the aggregate block at `p`.
  void PutAggregates(uint8_t* p, const int64_t* aggrs) const {
    if (uniform_width_ == 8) {
      std::memcpy(p, aggrs, aggregates_bytes_);
      return;
    }
    for (size_t y = 0; y < aggr_width_.size(); ++y) {
      if (aggr_width_[y] == 8) {
        std::memcpy(p, &aggrs[y], 8);
        p += 8;
      } else {
        const int32_t narrow = static_cast<int32_t>(aggrs[y]);
        std::memcpy(p, &narrow, 4);
        p += 4;
      }
    }
  }
  /// Reads the aggregate block at `p`, widening to int64.
  void GetAggregates(const uint8_t* p, int64_t* out) const {
    if (uniform_width_ == 8) {
      std::memcpy(out, p, aggregates_bytes_);
      return;
    }
    if (uniform_width_ == 4) {
      for (size_t y = 0; y < aggr_width_.size(); ++y) {
        int32_t narrow;
        std::memcpy(&narrow, p + 4 * y, 4);
        out[y] = narrow;
      }
      return;
    }
    for (size_t y = 0; y < aggr_width_.size(); ++y) {
      if (aggr_width_[y] == 8) {
        std::memcpy(&out[y], p, 8);
        p += 8;
      } else {
        int32_t narrow;
        std::memcpy(&narrow, p, 4);
        out[y] = narrow;
        p += 4;
      }
    }
  }

  /// Gathers aggregate y of every record of `block`, whose aggregate block
  /// starts at `block_offset`, into `out` widened to int64.
  void GatherAggregate(const storage::RowBlock& block, size_t block_offset,
                       int y, int64_t* out) const {
    const size_t off = block_offset + aggr_offset_[y];
    if (aggr_width_[y] == 8) {
      storage::GatherBlockI64(block, off, out);
    } else {
      storage::GatherBlockI32ToI64(block, off, out);
    }
  }

 private:
  friend RecordLayout ChooseRecordLayout(
      const std::vector<schema::AggregateSpec>& aggregates,
      const WidthBounds& bounds);

  static RowId WidenRowId(uint32_t narrow) {
    return MakeRowId(narrow >> 31, narrow & 0x7FFFFFFFu);
  }
  void SetAggregateWidths(std::vector<uint8_t> widths);

  uint8_t rowid_width_ = 8;
  uint8_t arowid_width_ = 8;
  std::vector<uint8_t> aggr_width_;
  std::vector<uint32_t> aggr_offset_;
  size_t aggregates_bytes_ = 0;
  uint8_t uniform_width_ = 8;  ///< 4 or 8 when every aggregate has it, else 0
};

/// The width rule (DESIGN.md §5), a pure function of the bounds: each field
/// is 4 bytes when every value it can hold fits, else 8.
///   row-id      rowid_rows <= 2^31 (ordinals below 2^31; bit 31 is the tag)
///   A-rowid     aggregate_rows <= 2^32
///   COUNT       fact_rows <= 2^31 - 1
///   SUM         fact_rows * max|measure| <= 2^31 - 1
///   MIN / MAX   the measure's range inside [-2^31, 2^31 - 1]
RecordLayout ChooseRecordLayout(const std::vector<schema::AggregateSpec>& aggregates,
                                const WidthBounds& bounds);

}  // namespace cube
}  // namespace cure

#endif  // CURE_CUBE_RECORD_LAYOUT_H_
