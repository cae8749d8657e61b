#include "util/cli.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace appscope::util {
namespace {

CliArgs make_args(std::vector<std::string> tokens,
                  std::initializer_list<std::string_view> accepted = {}) {
  static std::vector<std::string> storage;
  storage = std::move(tokens);
  static std::vector<char*> argv;
  argv.clear();
  for (auto& t : storage) argv.push_back(t.data());
  return CliArgs(static_cast<int>(argv.size()), argv.data(), accepted);
}

TEST(CliArgs, ParsesFlagsAndValues) {
  const CliArgs args =
      make_args({"prog", "--verbose", "--scale=paper", "input.csv"},
                {"verbose", "scale", "quiet"});
  EXPECT_EQ(args.program(), "prog");
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_TRUE(args.has("scale"));
  EXPECT_FALSE(args.has("quiet"));
  EXPECT_EQ(args.value("scale"), "paper");
  EXPECT_FALSE(args.value("verbose").has_value());
  ASSERT_EQ(args.positionals().size(), 1u);
  EXPECT_EQ(args.positionals()[0], "input.csv");
}

TEST(CliArgs, TypedAccessorsWithDefaults) {
  const CliArgs args = make_args({"prog", "--k=7", "--ratio=0.5"},
                                 {"k", "ratio", "missing", "name"});
  EXPECT_EQ(args.get_int("k", 2), 7);
  EXPECT_EQ(args.get_int("missing", 2), 2);
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 1.0), 0.5);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.0), 1.0);
  EXPECT_EQ(args.get_string("name", "dflt"), "dflt");
}

TEST(CliArgs, MalformedTypedValueThrows) {
  const CliArgs args = make_args({"prog", "--k=abc"}, {"k"});
  EXPECT_THROW(args.get_int("k", 0), InputError);
}

TEST(CliArgs, BareDashesArePositionals) {
  const CliArgs args = make_args({"prog", "--", "-x", "plain"});
  EXPECT_EQ(args.positionals().size(), 3u);
}

TEST(CliArgs, EmptyArgvIsSafe) {
  const CliArgs args = make_args({});
  EXPECT_TRUE(args.program().empty());
  EXPECT_TRUE(args.positionals().empty());
}

TEST(CliArgs, EqualsInValuePreserved) {
  const CliArgs args = make_args({"prog", "--expr=a=b"}, {"expr"});
  EXPECT_EQ(args.value("expr"), "a=b");
}

TEST(CliArgs, ReadingAnUndeclaredOptionThrows) {
  const CliArgs args = make_args({"prog", "--k=1"}, {"k"});
  EXPECT_EQ(args.get_int("k", 0), 1);
  EXPECT_THROW(args.has("other"), InvariantError);
  EXPECT_THROW(args.get_string("other", ""), InvariantError);
}

// An option outside the declared list ends the process with status 2 and
// the accepted names on stderr, before the program can do any work.
TEST(CliArgsDeathTest, UnknownOptionExitsTwoListingAcceptedNames) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(make_args({"prog", "--out=r.md", "--snapshot_dir=x"},
                        {"snapshot", "out"}),
              ::testing::ExitedWithCode(2),
              "unknown option --snapshot_dir");
  EXPECT_EXIT(make_args({"prog", "--snapshot_dir=x"}, {"snapshot", "out"}),
              ::testing::ExitedWithCode(2),
              "accepted options: --snapshot --out");
}

TEST(CliArgsDeathTest, HelpIsAnUnknownOption) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(make_args({"prog", "--help"}, {"scale"}),
              ::testing::ExitedWithCode(2), "unknown option --help");
  EXPECT_EXIT(make_args({"prog", "--help"}), ::testing::ExitedWithCode(2),
              "accepted options:");
}

}  // namespace
}  // namespace appscope::util
