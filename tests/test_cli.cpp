#include "util/cli.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace pnbbst {
namespace {

Cli make_cli(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsSyntax) {
  auto cli = make_cli({"--threads=8"});
  EXPECT_EQ(cli.get_int("threads", 1), 8);
}

TEST(Cli, SpaceSyntax) {
  auto cli = make_cli({"--threads", "4"});
  EXPECT_EQ(cli.get_int("threads", 1), 4);
}

TEST(Cli, BooleanFlag) {
  auto cli = make_cli({"--json"});
  EXPECT_TRUE(cli.get_bool("json", false));
}

TEST(Cli, BooleanExplicitValues) {
  EXPECT_TRUE(make_cli({"--x=true"}).get_bool("x", false));
  EXPECT_TRUE(make_cli({"--x=1"}).get_bool("x", false));
  EXPECT_TRUE(make_cli({"--x=yes"}).get_bool("x", false));
  EXPECT_FALSE(make_cli({"--x=false"}).get_bool("x", true));
}

TEST(Cli, Defaults) {
  auto cli = make_cli({});
  EXPECT_EQ(cli.get_int("missing", 42), 42);
  EXPECT_EQ(cli.get_string("missing", "d"), "d");
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 2.5), 2.5);
  EXPECT_FALSE(cli.has("missing"));
}

TEST(Cli, DoubleParsing) {
  auto cli = make_cli({"--secs=1.5"});
  EXPECT_DOUBLE_EQ(cli.get_double("secs", 0.0), 1.5);
}

TEST(Cli, IntList) {
  auto cli = make_cli({"--threads=1,2,4,8"});
  const auto v = cli.get_int_list("threads", {});
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[3], 8);
}

TEST(Cli, IntListDefault) {
  auto cli = make_cli({});
  const auto v = cli.get_int_list("threads", {3, 5});
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1], 5);
}

TEST(Cli, UnknownFlagsReported) {
  auto cli = make_cli({"--typo=1", "--threads=2"});
  cli.get_int("threads", 1);
  const auto unknown = cli.unknown();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(Cli, NoteSuppressesUnknown) {
  auto cli = make_cli({"--extra=1"});
  cli.note("extra");
  EXPECT_TRUE(cli.unknown().empty());
}

TEST(Cli, PositionalArgThrows) {
  EXPECT_THROW(make_cli({"positional"}), std::invalid_argument);
}

TEST(Cli, NegativeNumberAsValue) {
  auto cli = make_cli({"--lo=-5"});
  EXPECT_EQ(cli.get_int("lo", 0), -5);
}

}  // namespace
}  // namespace pnbbst
