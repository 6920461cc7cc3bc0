#include "util/table.h"

#include <gtest/gtest.h>

namespace pnbbst {
namespace {

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.14159, 0), "3");
  EXPECT_EQ(Table::num(std::uint64_t{12345}), "12345");
  EXPECT_EQ(Table::num(std::int64_t{-17}), "-17");
}

TEST(Table, RowAccess) {
  Table t({"h"});
  t.add_row({"v"});
  ASSERT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.row(0)[0], "v");
  EXPECT_EQ(t.header()[0], "h");
}

TEST(Table, PrintAlignedDoesNotCrash) {
  Table t({"col1", "c2"});
  t.add_row({"a-very-long-cell", "x"});
  FILE* dev_null = std::fopen("/dev/null", "w");
  ASSERT_NE(dev_null, nullptr);
  t.print(dev_null);
  std::fclose(dev_null);
}

}  // namespace
}  // namespace pnbbst

TEST(TableJson, RowsBecomeObjectsWithTypedCells) {
  pnbbst::Table t({"name", "count", "rate"});
  t.add_row({"pnb-bst", "42", "3.14"});
  t.add_row({"a \"b\"", "-7", "1e-3"});
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"name\": \"pnb-bst\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"rate\": 3.14"), std::string::npos);
  EXPECT_NE(json.find("\"count\": -7"), std::string::npos);
  EXPECT_NE(json.find("\"rate\": 1e-3"), std::string::npos);
  EXPECT_NE(json.find("a \\\"b\\\""), std::string::npos);
}

TEST(TableJson, NonJsonNumbersStayQuoted) {
  // strtod would accept all of these; JSON does not. They must be emitted
  // as strings so the --json document stays parseable.
  pnbbst::Table t({"v"});
  for (const char* cell :
       {"nan", "-nan", "inf", "0x10", "007", "5.", ".5", "", "1 << 12"}) {
    t.add_row({cell});
  }
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"v\": \"nan\""), std::string::npos);
  EXPECT_NE(json.find("\"v\": \"-nan\""), std::string::npos);
  EXPECT_NE(json.find("\"v\": \"inf\""), std::string::npos);
  EXPECT_NE(json.find("\"v\": \"0x10\""), std::string::npos);
  EXPECT_NE(json.find("\"v\": \"007\""), std::string::npos);
  EXPECT_NE(json.find("\"v\": \"5.\""), std::string::npos);
  EXPECT_NE(json.find("\"v\": \".5\""), std::string::npos);
  EXPECT_NE(json.find("\"v\": \"1 << 12\""), std::string::npos);
}

TEST(TableJson, EscapesControlCharacters) {
  EXPECT_EQ(pnbbst::json_escape("a\nb\t\"c\"\\"), "a\\nb\\t\\\"c\\\"\\\\");
  EXPECT_EQ(pnbbst::json_escape(std::string(1, '\x01')), "\\u0001");
}
