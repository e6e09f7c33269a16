#include "storage/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/fault_injection.h"
#include "common/metrics.h"

namespace cure {
namespace storage {

namespace {

/// Always-on I/O accounting (one relaxed atomic add per syscall — noise
/// next to the syscall itself). Pointers are resolved once and stay valid
/// for the process lifetime (GlobalMetrics is leaked).
struct IoMetrics {
  Counter* read_bytes;
  Counter* write_bytes;
  Counter* reads;
  Counter* writes;
  Counter* fsyncs;
};

IoMetrics& Io() {
  static IoMetrics metrics = {
      GlobalMetrics().counter("cure_storage_read_bytes_total"),
      GlobalMetrics().counter("cure_storage_write_bytes_total"),
      GlobalMetrics().counter("cure_storage_read_ops_total"),
      GlobalMetrics().counter("cure_storage_write_ops_total"),
      GlobalMetrics().counter("cure_storage_fsync_total"),
  };
  return metrics;
}

Status ErrnoStatus(const std::string& op, const std::string& path) {
  const int err = errno;
  std::string msg = op + " '" + path + "': " + std::strerror(err);
  if (err == ENOSPC) {
    msg +=
        " (device out of space: free space or move the cube/scratch "
        "directories to a larger volume)";
  }
  return Status::IoError(msg);
}

/// Fault-injection shim for non-write operations: returns the errno to
/// inject, or 0 to proceed with the real syscall.
int Inject(const char* op, const std::string& path) {
  return FaultInjector::Disk().Consult(op, path);
}

}  // namespace

FileWriter::~FileWriter() { Close(); }

FileWriter::FileWriter(FileWriter&& other) noexcept { *this = std::move(other); }

FileWriter& FileWriter::operator=(FileWriter&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    buffer_ = std::move(other.buffer_);
    buffer_used_ = other.buffer_used_;
    bytes_written_ = other.bytes_written_;
    other.fd_ = -1;
    other.buffer_used_ = 0;
    other.bytes_written_ = 0;
  }
  return *this;
}

Status FileWriter::Open(const std::string& path, size_t buffer_bytes,
                        OpenMode mode) {
  CURE_RETURN_IF_ERROR(Close());
  if (const int inj = Inject("open", path)) {
    errno = inj;
    return ErrnoStatus("open", path);
  }
  const int flags = O_WRONLY | O_CREAT |
                    (mode == OpenMode::kAppend ? O_APPEND : O_TRUNC);
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) return ErrnoStatus("open", path);
  path_ = path;
  buffer_.resize(buffer_bytes);
  buffer_used_ = 0;
  bytes_written_ = 0;
  return Status::OK();
}

Status FileWriter::Append(const void* data, size_t len) {
  if (fd_ < 0) return Status::Internal("FileWriter::Append on closed file");
  const uint8_t* src = static_cast<const uint8_t*>(data);
  while (len > 0) {
    const size_t space = buffer_.size() - buffer_used_;
    const size_t chunk = len < space ? len : space;
    std::memcpy(buffer_.data() + buffer_used_, src, chunk);
    buffer_used_ += chunk;
    src += chunk;
    len -= chunk;
    if (buffer_used_ == buffer_.size()) CURE_RETURN_IF_ERROR(Flush());
  }
  return Status::OK();
}

Status FileWriter::Flush() {
  if (fd_ < 0) return Status::OK();
  size_t off = 0;
  Status fail = Status::OK();
  while (off < buffer_used_) {
    // The shim may shorten `want` (a kernel-style short write the loop
    // absorbs) or inject an errno outright.
    size_t want = buffer_used_ - off;
    const int inj = FaultInjector::Disk().Consult("write", path_, &want);
    ssize_t n;
    if (inj != 0) {
      errno = inj;
      n = -1;
    } else {
      n = ::write(fd_, buffer_.data() + off, want);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      fail = ErrnoStatus("write", path_);
      break;
    }
    off += static_cast<size_t>(n);
  }
  // Keep buffer state consistent with the file even on failure: drop the
  // bytes that did reach the fd so a later Flush/Close retry never writes
  // them twice.
  if (off > 0 && off < buffer_used_) {
    std::memmove(buffer_.data(), buffer_.data() + off, buffer_used_ - off);
  }
  bytes_written_ += off;
  buffer_used_ -= off;
  if (off > 0) {
    Io().write_bytes->Add(off);
    Io().writes->Inc();
  }
  return fail;
}

Status FileWriter::Sync() {
  if (fd_ < 0) return Status::Internal("FileWriter::Sync on closed file");
  CURE_RETURN_IF_ERROR(Flush());
  if (const int inj = Inject("fsync", path_)) {
    errno = inj;
    return ErrnoStatus("fsync", path_);
  }
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_);
  Io().fsyncs->Inc();
  return Status::OK();
}

Status FileWriter::Close() {
  if (fd_ < 0) return Status::OK();
  Status s = Flush();
  if (::close(fd_) != 0 && s.ok()) s = ErrnoStatus("close", path_);
  fd_ = -1;
  return s;
}

FileReader::~FileReader() { Close(); }

FileReader::FileReader(FileReader&& other) noexcept { *this = std::move(other); }

FileReader& FileReader::operator=(FileReader&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    file_size_ = other.file_size_;
    other.fd_ = -1;
    other.file_size_ = 0;
  }
  return *this;
}

Status FileReader::Open(const std::string& path) {
  CURE_RETURN_IF_ERROR(Close());
  if (const int inj = Inject("open", path)) {
    errno = inj;
    return ErrnoStatus("open", path);
  }
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) return ErrnoStatus("open", path);
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    Status s = ErrnoStatus("fstat", path);
    ::close(fd_);
    fd_ = -1;
    return s;
  }
  path_ = path;
  file_size_ = static_cast<uint64_t>(st.st_size);
  return Status::OK();
}

Status FileReader::Close() {
  if (fd_ < 0) return Status::OK();
  Status s = Status::OK();
  if (::close(fd_) != 0) s = ErrnoStatus("close", path_);
  fd_ = -1;
  return s;
}

Status FileReader::ReadAt(uint64_t offset, void* out, size_t len) const {
  if (fd_ < 0) return Status::Internal("FileReader::ReadAt on closed file");
  uint8_t* dst = static_cast<uint8_t*>(out);
  while (len > 0) {
    ssize_t n;
    if (const int inj = Inject("read", path_)) {
      errno = inj;
      n = -1;
    } else {
      n = ::pread(fd_, dst, len, static_cast<off_t>(offset));
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pread", path_);
    }
    if (n == 0) return Status::OutOfRange("read past end of '" + path_ + "'");
    Io().read_bytes->Add(static_cast<uint64_t>(n));
    Io().reads->Inc();
    dst += n;
    offset += static_cast<uint64_t>(n);
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status TruncateFile(const std::string& path, uint64_t size) {
  if (const int inj = Inject("truncate", path)) {
    errno = inj;
    return ErrnoStatus("truncate", path);
  }
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return ErrnoStatus("truncate", path);
  }
  return Status::OK();
}

Status RemoveFile(const std::string& path) {
  if (const int inj = Inject("unlink", path)) {
    errno = inj;
    return ErrnoStatus("unlink", path);
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (ec) return Status::IoError("remove '" + path + "': " + ec.message());
  return Status::OK();
}

Status RenameFile(const std::string& from, const std::string& to) {
  if (const int inj = Inject("rename", from)) {
    errno = inj;
    return ErrnoStatus("rename", from);
  }
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return ErrnoStatus("rename '" + from + "' ->", to);
  }
  return Status::OK();
}

Status SyncDir(const std::string& path) {
  if (const int inj = Inject("syncdir", path)) {
    errno = inj;
    return ErrnoStatus("fsync dir", path);
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoStatus("open dir", path);
  Status s = Status::OK();
  if (::fsync(fd) != 0) s = ErrnoStatus("fsync dir", path);
  ::close(fd);
  if (s.ok()) Io().fsyncs->Inc();
  return s;
}

std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status EnsureDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) return Status::IoError("mkdir '" + path + "': " + ec.message());
  return Status::OK();
}

Status RemoveDirTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  if (ec) return Status::IoError("rmtree '" + path + "': " + ec.message());
  return Status::OK();
}

}  // namespace storage
}  // namespace cure
