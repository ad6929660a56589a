#include "tmark/common/string_util.h"

#include <gtest/gtest.h>

namespace tmark {
namespace {

TEST(SplitTest, BasicSplit) {
  const auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, PreservesEmptyFields) {
  const auto parts = Split(",a,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(SplitTest, NoSeparatorYieldsWhole) {
  const auto parts = Split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(StripTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Strip("  hi there \t\n"), "hi there");
  EXPECT_EQ(Strip(""), "");
  EXPECT_EQ(Strip("   "), "");
  EXPECT_EQ(Strip("x"), "x");
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(FormatDoubleTest, FixedDigits) {
  EXPECT_EQ(FormatDouble(0.92857, 3), "0.929");
  EXPECT_EQ(FormatDouble(1.0, 2), "1.00");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace tmark
