#include "storage/relation.h"

#include <algorithm>
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

Result<const uint8_t*> Relation::ViewRows(uint64_t first, uint64_t n) const {
  if (memory_) return data_.data() + first * record_size_;
  const FileReader* reader = file_reader();
  if (reader == nullptr) return Status::Internal("read of unsealed file relation");
  return reader->View(view_offset_ + first * record_size_, n * record_size_);
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
  CURE_ASSIGN_OR_RETURN(const uint8_t* rec, ViewRows(row, 1));
  std::memcpy(out, rec, record_size_);
  return Status::OK();
}

Result<const uint8_t*> Relation::SpanOf(const uint64_t* rows, size_t n) const {
  uint64_t max_row = 0;
  for (size_t i = 0; i < n; ++i) {
    if (rows[i] >= num_rows_) {
      return Status::OutOfRange("row " + std::to_string(rows[i]) + " >= " +
                                std::to_string(num_rows_));
    }
    max_row = std::max(max_row, rows[i]);
  }
  return ViewRows(0, max_row + 1);
}

Status Relation::ReadRows(const uint64_t* rows, size_t n, uint8_t* out) const {
  if (n == 0) return Status::OK();
  CURE_ASSIGN_OR_RETURN(const uint8_t* span, SpanOf(rows, n));
  const size_t width = record_size_;
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(out + i * width, span + rows[i] * width, width);
  }
  return Status::OK();
}

Relation::Scanner::Scanner(const Relation& rel, size_t buffer_records)
    : rel_(rel), buffer_records_(buffer_records == 0 ? 1 : buffer_records) {
  CURE_CHECK_GT(rel.record_size(), 0u);
}

const uint8_t* Relation::Scanner::Next() {
  if (!status_.ok()) return nullptr;
  if (row_ >= rel_.num_rows()) return nullptr;
  if (row_ >= buffered_end_) {
    const uint64_t n = std::min<uint64_t>(rel_.num_rows() - row_, buffer_records_);
    Result<const uint8_t*> view = rel_.ViewRows(row_, n);
    if (!view.ok()) {
      // Surface the failure through status() instead of aborting: serve-
      // time scans must degrade to an error reply, not take the process
      // down.
      status_ = view.status();
      return nullptr;
    }
    buffered_ = *view;
    buffered_begin_ = row_;
    buffered_end_ = row_ + n;
  }
  const uint8_t* rec = buffered_ + (row_ - buffered_begin_) * rel_.record_size_;
  ++row_;
  return rec;
}

Relation::BlockScanner::BlockScanner(const Relation& rel, size_t block_rows)
    : rel_(rel), block_rows_(block_rows == 0 ? 1 : block_rows) {
  CURE_CHECK_GT(rel.record_size(), 0u);
}

bool Relation::BlockScanner::Next(RowBlock* block) {
  if (!status_.ok()) return false;
  if (row_ >= rel_.num_rows()) return false;
  const uint64_t n = std::min<uint64_t>(rel_.num_rows() - row_, block_rows_);
  Result<const uint8_t*> view = rel_.ViewRows(row_, n);
  if (!view.ok()) {
    // Degrade to an error result, mirroring Scanner::Next().
    status_ = view.status();
    return false;
  }
  block->data = *view;
  block->first_row = row_;
  block->rows = static_cast<size_t>(n);
  block->record_size = rel_.record_size_;
  row_ += n;
  return true;
}

}  // namespace storage
}  // namespace cure
