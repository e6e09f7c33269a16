#include "storage/relation.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.h"

namespace cure {
namespace storage {

Relation Relation::Memory(size_t record_size) {
  Relation rel;
  rel.record_size_ = record_size;
  rel.memory_ = true;
  return rel;
}

Result<Relation> Relation::CreateFile(const std::string& path, size_t record_size) {
  Relation rel;
  rel.record_size_ = record_size;
  rel.memory_ = false;
  rel.path_ = path;
  rel.writer_ = std::make_unique<FileWriter>();
  CURE_RETURN_IF_ERROR(rel.writer_->Open(path));
  return rel;
}

Result<Relation> Relation::OpenFile(const std::string& path, size_t record_size) {
  Relation rel;
  rel.record_size_ = record_size;
  rel.memory_ = false;
  rel.path_ = path;
  rel.reader_ = std::make_unique<FileReader>();
  CURE_RETURN_IF_ERROR(rel.reader_->Open(path));
  if (rel.reader_->file_size() % record_size != 0) {
    return Status::InvalidArgument("file size of '" + path +
                                   "' is not a multiple of the record size");
  }
  rel.num_rows_ = rel.reader_->file_size() / record_size;
  return rel;
}

Relation Relation::FileView(std::shared_ptr<FileReader> reader, uint64_t offset,
                            uint64_t num_rows, size_t record_size) {
  Relation rel;
  rel.record_size_ = record_size;
  rel.memory_ = false;
  rel.path_ = reader->path();
  rel.shared_reader_ = std::move(reader);
  rel.view_offset_ = offset;
  rel.num_rows_ = num_rows;
  return rel;
}

Status Relation::Append(const void* record) {
  if (shared_reader_ != nullptr) {
    return Status::Internal("Append to a read-only file view");
  }
  if (memory_) {
    const uint8_t* src = static_cast<const uint8_t*>(record);
    data_.insert(data_.end(), src, src + record_size_);
  } else {
    if (writer_ == nullptr) return Status::Internal("Append to sealed file relation");
    CURE_RETURN_IF_ERROR(writer_->Append(record, record_size_));
  }
  ++num_rows_;
  return Status::OK();
}

Status Relation::Seal() {
  if (memory_) return Status::OK();
  if (writer_ != nullptr) {
    CURE_RETURN_IF_ERROR(writer_->Close());
    writer_.reset();
  }
  if (reader_ == nullptr) {
    reader_ = std::make_unique<FileReader>();
    CURE_RETURN_IF_ERROR(reader_->Open(path_));
  }
  return Status::OK();
}

Status Relation::Read(uint64_t row, void* out) const {
  if (row >= num_rows_) {
    return Status::OutOfRange("row " + std::to_string(row) + " >= " +
                              std::to_string(num_rows_));
  }
  if (memory_) {
    std::memcpy(out, data_.data() + row * record_size_, record_size_);
    return Status::OK();
  }
  const FileReader* reader = file_reader();
  if (reader == nullptr) return Status::Internal("Read from unsealed file relation");
  return reader->ReadAt(view_offset_ + row * record_size_, out, record_size_);
}

namespace {

// One requested row-id of Relation::ReadRows and the position of its record
// in the caller's output.
struct RowSlot {
  uint64_t row;
  size_t pos;
};

// Sorts `slots`, whose rows are all at most `max_row`, by row: an LSD radix
// sort with as many passes as the bit width of `max_row` needs.
void SortRowSlots(std::vector<RowSlot>* slots, uint64_t max_row) {
  // The digit is at most 11 bits and no wider than the slot count needs, so
  // a short request does not pay for clearing a large count array; the
  // passes split the key width evenly.
  constexpr int kMaxDigitBits = 11;
  const size_t n = slots->size();
  const int key_bits = std::bit_width(max_row);
  if (n < 2 || key_bits == 0) return;
  const int max_digit = std::min(static_cast<int>(std::bit_width(n)), kMaxDigitBits);
  const int passes = (key_bits + max_digit - 1) / max_digit;
  const int digit_bits = (key_bits + passes - 1) / passes;
  const uint64_t mask = (uint64_t{1} << digit_bits) - 1;
  std::vector<size_t> counts(size_t{1} << digit_bits);
  std::vector<RowSlot> scratch(n);
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = pass * digit_bits;
    auto digit = [&](const RowSlot& s) { return (s.row >> shift) & mask; };
    std::fill(counts.begin(), counts.end(), size_t{0});
    for (const RowSlot& s : *slots) ++counts[digit(s)];
    size_t start = 0;
    for (size_t& c : counts) start += std::exchange(c, start);
    // Each pass keeps the order of equal digits, as LSD radix sorting needs.
    for (const RowSlot& s : *slots) scratch[counts[digit(s)]++] = s;
    slots->swap(scratch);
  }
}

}  // namespace

Status Relation::ReadRows(const uint64_t* rows, size_t n, uint8_t* out) const {
  uint64_t max_row = 0;
  for (size_t i = 0; i < n; ++i) {
    if (rows[i] >= num_rows_) {
      return Status::OutOfRange("row " + std::to_string(rows[i]) + " >= " +
                                std::to_string(num_rows_));
    }
    max_row = std::max(max_row, rows[i]);
  }
  const size_t width = record_size_;
  if (memory_) {
    for (size_t i = 0; i < n; ++i) {
      std::memcpy(out + i * width, data_.data() + rows[i] * width, width);
    }
    return Status::OK();
  }
  const FileReader* reader = file_reader();
  if (reader == nullptr) return Status::Internal("Read from unsealed file relation");
  // Visit the rows in ascending order without reordering the caller's.
  std::vector<RowSlot> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = {rows[i], i};
  if (!std::is_sorted(rows, rows + n)) SortRowSlots(&order, max_row);
  std::vector<uint8_t> run;
  for (size_t i = 0; i < n;) {
    // Extend the run while the next record starts within the gap limit of
    // the last one and the whole run stays within the run limit.
    const uint64_t first = order[i].row;
    uint64_t last = first;
    size_t j = i + 1;
    for (; j < n; ++j) {
      const uint64_t next = order[j].row;
      if ((next - last) * width > kCoalesceGapBytes + width ||
          (next - first + 1) * width > kCoalesceRunBytes) {
        break;
      }
      last = next;
    }
    const uint64_t offset = view_offset_ + first * width;
    if (j == i + 1) {
      CURE_RETURN_IF_ERROR(reader->ReadAt(offset, out + order[i].pos * width, width));
    } else {
      run.resize((last - first + 1) * width);
      CURE_RETURN_IF_ERROR(reader->ReadAt(offset, run.data(), run.size()));
      for (size_t k = i; k < j; ++k) {
        std::memcpy(out + order[k].pos * width,
                    run.data() + (order[k].row - first) * width, width);
      }
    }
    i = j;
  }
  return Status::OK();
}

Relation::Scanner::Scanner(const Relation& rel, size_t buffer_records)
    : rel_(rel), buffer_(rel.record_size() * buffer_records) {
  CURE_CHECK_GT(rel.record_size(), 0u);
}

const uint8_t* Relation::Scanner::Next() {
  if (!status_.ok()) return nullptr;
  if (row_ >= rel_.num_rows()) return nullptr;
  if (rel_.memory_) {
    const uint8_t* rec = rel_.data_.data() + row_ * rel_.record_size_;
    ++row_;
    return rec;
  }
  if (row_ >= buffered_end_) {
    const uint64_t max_records = buffer_.size() / rel_.record_size_;
    uint64_t n = rel_.num_rows() - row_;
    if (n > max_records) n = max_records;
    const FileReader* reader = rel_.file_reader();
    Status s = reader->ReadAt(rel_.view_offset_ + row_ * rel_.record_size_,
                              buffer_.data(), n * rel_.record_size_);
    if (!s.ok()) {
      // Surface the failure through status() instead of aborting: serve-
      // time scans must degrade to an error reply, not take the process
      // down.
      status_ = std::move(s);
      return nullptr;
    }
    buffered_begin_ = row_;
    buffered_end_ = row_ + n;
  }
  const uint8_t* rec = buffer_.data() + (row_ - buffered_begin_) * rel_.record_size_;
  ++row_;
  return rec;
}

Relation::BlockScanner::BlockScanner(const Relation& rel, size_t block_rows)
    : rel_(rel), block_rows_(block_rows == 0 ? 1 : block_rows) {
  CURE_CHECK_GT(rel.record_size(), 0u);
  if (!rel.memory_backed()) {
    buffer_.resize(block_rows_ * rel.record_size());
  }
}

bool Relation::BlockScanner::Next(RowBlock* block) {
  if (!status_.ok()) return false;
  if (row_ >= rel_.num_rows()) return false;
  uint64_t n = rel_.num_rows() - row_;
  if (n > block_rows_) n = block_rows_;
  block->first_row = row_;
  block->rows = static_cast<size_t>(n);
  block->record_size = rel_.record_size_;
  if (rel_.memory_) {
    // Zero-copy: records live contiguously in the backing vector.
    block->data = rel_.data_.data() + row_ * rel_.record_size_;
    row_ += n;
    return true;
  }
  const FileReader* reader = rel_.file_reader();
  if (reader == nullptr) {
    status_ = Status::Internal("block scan of unsealed file relation");
    return false;
  }
  Status s = reader->ReadAt(rel_.view_offset_ + row_ * rel_.record_size_,
                            buffer_.data(), n * rel_.record_size_);
  if (!s.ok()) {
    // Degrade to an error result, mirroring Scanner::Next().
    status_ = std::move(s);
    return false;
  }
  block->data = buffer_.data();
  row_ += n;
  return true;
}

}  // namespace storage
}  // namespace cure
