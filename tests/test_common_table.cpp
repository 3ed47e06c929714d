#include "common/table.h"

#include <gtest/gtest.h>

namespace oef::common {
namespace {

TEST(Table, RendersHeaderAndRows) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"beta", "22"});
  const std::string rendered = table.to_string();
  EXPECT_NE(rendered.find("name"), std::string::npos);
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("22"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, PadsShortRows) {
  Table table({"a", "b", "c"});
  table.add_row({"only"});
  EXPECT_NE(table.to_string().find("only"), std::string::npos);
}

TEST(Table, NumericRowFormatsPrecision) {
  Table table({"label", "v1", "v2"});
  table.add_numeric_row("row", {1.23456, 2.0}, 2);
  const std::string rendered = table.to_string();
  EXPECT_NE(rendered.find("1.23"), std::string::npos);
  EXPECT_NE(rendered.find("2.00"), std::string::npos);
}

TEST(FormatHelpers, Basic) {
  EXPECT_EQ(format_double(1.5, 2), "1.50");
  EXPECT_EQ(format_factor(1.32, 2), "1.32x");
}

}  // namespace
}  // namespace oef::common
