#ifndef CURE_STORAGE_FILE_IO_H_
#define CURE_STORAGE_FILE_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace cure {
namespace storage {

/// Append-only buffered file writer. All cube output and partition files go
/// through this class so that the benchmark harness measures genuine
/// sequential write costs.
class FileWriter {
 public:
  FileWriter() = default;
  ~FileWriter();

  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;
  FileWriter(FileWriter&& other) noexcept;
  FileWriter& operator=(FileWriter&& other) noexcept;

  enum class OpenMode {
    kTruncate,  ///< create or truncate (the default, all build output)
    kAppend,    ///< create if missing, append at the end (the delta WAL)
  };

  /// Creates (truncating) the file at `path`.
  Status Open(const std::string& path, size_t buffer_bytes = 1 << 20,
              OpenMode mode = OpenMode::kTruncate);

  /// Appends `len` bytes.
  Status Append(const void* data, size_t len);

  /// Flushes the user-space buffer to the OS.
  Status Flush();

  /// Flushes, then fsyncs the file to stable storage — the WAL's commit
  /// point: after Sync() returns OK the appended bytes survive a crash.
  Status Sync();

  /// Flushes and closes. Safe to call twice.
  Status Close();

  bool is_open() const { return fd_ >= 0; }
  uint64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  std::string path_;
  std::vector<uint8_t> buffer_;
  size_t buffer_used_ = 0;
  uint64_t bytes_written_ = 0;
};

/// Read-only random access to a whole file. Open maps a non-empty file
/// once, read-only and shared (an empty one has no mapping); every View is
/// a pointer into that mapping. A View consults the disk fault injector
/// ("read"), range-checks, and counts one read op and its bytes, but
/// copies nothing. The mapping is immutable for the reader's lifetime, so
/// any number of threads may read through one FileReader. ReadAt copies
/// with pread instead: the one-pass readers (WAL replay, the packed-cube
/// manifest and checksum pass) use it so their reads do not fault the
/// whole file into the process's resident set.
///
/// The file must not be truncated or rewritten in place while it is open:
/// the project only ever writes fresh paths or publishes by rename
/// (DESIGN.md §11), and a truncation by an outside process raises SIGBUS
/// on the next touch of a lost page of the mapping.
class FileReader {
 public:
  FileReader() = default;
  ~FileReader();

  FileReader(const FileReader&) = delete;
  FileReader& operator=(const FileReader&) = delete;
  FileReader(FileReader&& other) noexcept;
  FileReader& operator=(FileReader&& other) noexcept;

  /// Opens and maps the file at `path`; IoError when it cannot be mapped.
  Status Open(const std::string& path);
  /// Unmaps and closes the file. Safe to call twice.
  Status Close();

  /// The `len` bytes at `offset`, in place: valid until Close(). Fails
  /// with OutOfRange past the end of the file.
  Result<const uint8_t*> View(uint64_t offset, size_t len) const;

  /// Drops this process's mappings of the whole pages inside `len` bytes
  /// at `offset`. The bytes stay in the page cache, and a later View
  /// faults them back in, so this only keeps pages a scan has finished
  /// with out of the resident set.
  void Release(uint64_t offset, uint64_t len) const;

  /// Reads exactly `len` bytes at `offset` into `out` with pread.
  Status ReadAt(uint64_t offset, void* out, size_t len) const;

  bool is_open() const { return fd_ >= 0; }
  uint64_t file_size() const { return file_size_; }
  const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  const uint8_t* data_ = nullptr;  // the mapping; nullptr for an empty file
  std::string path_;
  uint64_t file_size_ = 0;
};

/// Removes a file if it exists; OK when missing.
Status RemoveFile(const std::string& path);

/// Atomically renames `from` onto `to` (same filesystem). The publish
/// step of the crash-consistent persist protocol: rename is atomic, so
/// readers see either the old file or the complete new one, never a
/// partial write.
Status RenameFile(const std::string& from, const std::string& to);

/// fsyncs the directory at `path`, making directory entries (created,
/// renamed, or removed names) durable. Required after creating or
/// renaming a file whose *existence* must survive a crash.
Status SyncDir(const std::string& path);

/// Parent directory of `path` ("." when there is no separator).
std::string DirName(const std::string& path);

/// Truncates the file at `path` to exactly `size` bytes (WAL torn-tail
/// recovery). The file must exist and be at least `size` bytes long.
Status TruncateFile(const std::string& path, uint64_t size);

/// Creates a directory (and parents); OK when it already exists.
Status EnsureDir(const std::string& path);

/// Recursively removes a directory tree; OK when missing.
Status RemoveDirTree(const std::string& path);

}  // namespace storage
}  // namespace cure

#endif  // CURE_STORAGE_FILE_IO_H_
