#ifndef CURE_BENCH_BENCH_TEMP_DIR_H_
#define CURE_BENCH_BENCH_TEMP_DIR_H_

#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

#include "common/logging.h"

namespace cure {
namespace bench {

/// A scratch directory of one bench run, `$TMPDIR/cure_bench_<tag>_XXXXXX`
/// (mkdtemp), removed with its contents when the object goes. Concurrent
/// runs never share a file: a run rewriting a file that another has mapped
/// would kill the other with SIGBUS.
class ScopedBenchDir {
 public:
  explicit ScopedBenchDir(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("cure_bench_" + tag + "_XXXXXX"))
                  .string()) {
    CURE_CHECK(::mkdtemp(path_.data()) != nullptr) << "mkdtemp " << path_;
  }
  ~ScopedBenchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedBenchDir(const ScopedBenchDir&) = delete;
  ScopedBenchDir& operator=(const ScopedBenchDir&) = delete;

  const std::string& path() const { return path_; }
  /// The path of `name` inside the directory.
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

}  // namespace bench
}  // namespace cure

#endif  // CURE_BENCH_BENCH_TEMP_DIR_H_
