// appscope tests/support/temp_dir.hpp
//
// The one place tests and benches name scratch space on disk. ctest runs
// every gtest case in its own process, many at once, so a fixed path under
// the system temp directory is shared by concurrent processes: one rewrites
// a fixture while another has it mapped. Every directory here is keyed on
// the process id, so no two processes ever share a file.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace appscope::test {

/// A fresh, empty directory unique to this process and `key`, removed with
/// everything in it on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& key)
      : path_(std::filesystem::temp_directory_path() /
              ("appscope_" + std::to_string(::getpid()) + "_" + key)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const noexcept { return path_; }
  std::filesystem::path operator/(const std::string& name) const {
    return path_ / name;
  }

 private:
  std::filesystem::path path_;
};

/// The running gtest case's directory, keyed on the pid and the test's full
/// name: created on first use, removed when the test ends.
const std::filesystem::path& test_dir();

/// test_dir() / name.
std::filesystem::path temp_path(const std::string& name);

}  // namespace appscope::test
