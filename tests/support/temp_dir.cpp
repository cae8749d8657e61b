#include "support/temp_dir.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

namespace appscope::test {

namespace {

std::unique_ptr<TempDir>& current() {
  static std::unique_ptr<TempDir> dir;
  return dir;
}

/// Drops the finished test's directory before the next test starts.
class RemoveTestDir final : public ::testing::EmptyTestEventListener {
  void OnTestEnd(const ::testing::TestInfo&) override { current().reset(); }
};

[[maybe_unused]] const bool registered = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(new RemoveTestDir);
  return true;
}();

}  // namespace

const std::filesystem::path& test_dir() {
  if (!current()) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    if (info == nullptr) {
      throw std::logic_error("test_dir() called outside a running test");
    }
    std::string key = std::string(info->test_suite_name()) + "." + info->name();
    for (char& c : key) {
      if (c == '/') c = '_';  // parameterized names carry slashes
    }
    current() = std::make_unique<TempDir>(key);
  }
  return current()->path();
}

std::filesystem::path temp_path(const std::string& name) {
  return test_dir() / name;
}

}  // namespace appscope::test
