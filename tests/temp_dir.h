#ifndef CURE_TESTS_TEMP_DIR_H_
#define CURE_TESTS_TEMP_DIR_H_

// Test helper: a private directory for a test's files that is removed, with
// everything in it, when the test's scope ends — also when a failed ASSERT
// returns from the test early.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace cure {
namespace test {

class ScopedTempDir {
 public:
  /// Creates `<system temp dir>/cure_<tag>_XXXXXX`, unique to this object.
  explicit ScopedTempDir(const std::string& tag) {
    std::string pattern =
        (std::filesystem::temp_directory_path() / ("cure_" + tag + "_XXXXXX"))
            .string();
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed for " << pattern;
      return;
    }
    path_ = buf.data();
  }

  ~ScopedTempDir() {
    if (path_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  /// The path of `name` inside the directory.
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

}  // namespace test
}  // namespace cure

#endif  // CURE_TESTS_TEMP_DIR_H_
