#ifndef CURE_STORAGE_RELATION_H_
#define CURE_STORAGE_RELATION_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/file_io.h"
#include "storage/row_block.h"

namespace cure {
namespace storage {

/// Default buffered-read size, in records, of the legacy record-at-a-time
/// Scanner.
inline constexpr size_t kDefaultScanBufferRecords = 4096;

/// Coalescing limits of Relation::ReadRows on file-backed relations: two
/// requested records at most kCoalesceGapBytes apart share one read, and
/// no single read spans more than kCoalesceRunBytes.
inline constexpr uint64_t kCoalesceGapBytes = 4096;
inline constexpr uint64_t kCoalesceRunBytes = 256 * 1024;

/// A relation of fixed-width binary records, the universal container of the
/// ROLAP layer: fact tables, partitions, per-node NT/TT/CAT relations and the
/// AGGREGATES relation are all Relations.
///
/// A Relation is either memory-backed (a byte vector) or file-backed
/// (append-only writer + pread reader). Records are addressed by row-id
/// (0-based ordinal). Appends and scans are sequential; Read() is random
/// access.
class Relation {
 public:
  /// Creates an empty memory-backed relation.
  static Relation Memory(size_t record_size);

  /// Creates (truncating) a file-backed relation at `path`.
  static Result<Relation> CreateFile(const std::string& path, size_t record_size);

  /// Opens an existing file-backed relation for reading. The file size must
  /// be a multiple of `record_size`.
  static Result<Relation> OpenFile(const std::string& path, size_t record_size);

  /// A read-only view of `num_rows` records starting at byte `offset` of a
  /// shared open file — the representation of one relation inside a packed
  /// cube file. The view is sealed; appends are rejected.
  static Relation FileView(std::shared_ptr<FileReader> reader, uint64_t offset,
                           uint64_t num_rows, size_t record_size);

  Relation() = default;
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  /// Appends one record of record_size() bytes.
  Status Append(const void* record);

  /// Finishes writing: flushes buffers and (for files) reopens for reading.
  Status Seal();

  /// Reads the record at `row` into `out`. Requires a sealed relation for
  /// file-backed storage.
  Status Read(uint64_t row, void* out) const;

  /// Reads the records at `rows[0..n)` (any order, duplicates allowed) into
  /// `out`, record i at `out + i * record_size()`. Every row is range-checked
  /// first. File-backed relations visit the rows in ascending order (a
  /// radix sort, linear in `n`) and read each run of nearby rows
  /// (kCoalesceGapBytes / kCoalesceRunBytes) with one FileReader::ReadAt —
  /// the row-id dereference of DESIGN.md §13.
  Status ReadRows(const uint64_t* rows, size_t n, uint8_t* out) const;

  /// Memory-backed relations expose their raw record pointer for zero-copy
  /// access; returns nullptr for file-backed ones.
  const uint8_t* RawRecord(uint64_t row) const {
    if (!memory_) return nullptr;
    return data_.data() + row * record_size_;
  }

  size_t record_size() const { return record_size_; }
  uint64_t num_rows() const { return num_rows_; }
  uint64_t bytes() const { return num_rows_ * record_size_; }
  bool memory_backed() const { return memory_; }
  const std::string& path() const { return path_; }

  /// Buffered sequential scanner over a sealed relation.
  class Scanner {
   public:
    explicit Scanner(const Relation& rel,
                     size_t buffer_records = kDefaultScanBufferRecords);

    /// Returns a pointer to the next record, or nullptr at end OR on a
    /// read error — check status() after the scan loop to tell the two
    /// apart. The pointer is valid until the next call.
    const uint8_t* Next();

    /// OK while the scan is clean; the read error that ended it otherwise.
    /// A scan loop that must distinguish I/O failure from end-of-relation
    /// propagates this after Next() returns nullptr.
    const Status& status() const { return status_; }

    /// Current 0-based row index of the record last returned by Next().
    /// Before the first Next() there is no such record; returns 0 rather
    /// than underflowing to UINT64_MAX.
    uint64_t row() const { return row_ == 0 ? 0 : row_ - 1; }

   private:
    const Relation& rel_;
    std::vector<uint8_t> buffer_;
    uint64_t row_ = 0;
    uint64_t buffered_begin_ = 0;
    uint64_t buffered_end_ = 0;
    Status status_;
  };

  /// Block-oriented sequential scanner: yields batches of up to
  /// `block_rows` consecutive records as RowBlocks. Memory-backed relations
  /// yield zero-copy views into the backing store; file-backed ones issue
  /// one buffered read per block. The batch seam of the columnar scan path
  /// (DESIGN.md §13) — pair with ColumnView to get contiguous column
  /// slices for the vectorized kernels.
  class BlockScanner {
   public:
    explicit BlockScanner(const Relation& rel,
                          size_t block_rows = kDefaultBlockRows);

    /// Fills `*block` with the next batch. Returns false at end OR on a
    /// read error — check status() to tell the two apart. Block pointers
    /// are valid until the next call.
    bool Next(RowBlock* block);

    /// OK while the scan is clean; the read error that ended it otherwise.
    const Status& status() const { return status_; }

   private:
    const Relation& rel_;
    size_t block_rows_;
    std::vector<uint8_t> buffer_;  // file-backed reads only
    uint64_t row_ = 0;
    Status status_;
  };

 private:
  /// The reader of a sealed file-backed relation; nullptr otherwise.
  const FileReader* file_reader() const {
    return shared_reader_ != nullptr ? shared_reader_.get() : reader_.get();
  }

  size_t record_size_ = 0;
  bool memory_ = true;
  uint64_t num_rows_ = 0;
  std::string path_;

  // Memory backing.
  std::vector<uint8_t> data_;

  // File backing. For file views, `shared_reader_` (plus `view_offset_`)
  // replaces the owned reader.
  std::unique_ptr<FileWriter> writer_;
  std::unique_ptr<FileReader> reader_;
  std::shared_ptr<FileReader> shared_reader_;
  uint64_t view_offset_ = 0;
};

}  // namespace storage
}  // namespace cure

#endif  // CURE_STORAGE_RELATION_H_
