#include "util/strings.hpp"

#include <gtest/gtest.h>

namespace wss::util {
namespace {

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc \t\n"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a"), "a");
}

TEST(Strings, SplitPreservesEmpty) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitFieldsDropsEmpty) {
  const auto f = split_fields("  one  two\tthree \n");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "one");
  EXPECT_EQ(f[1], "two");
  EXPECT_EQ(f[2], "three");
  EXPECT_TRUE(split_fields("   ").empty());
}

TEST(Strings, StartsEndsContains) {
  EXPECT_TRUE(starts_with("kernel: panic", "kernel"));
  EXPECT_FALSE(starts_with("ker", "kernel"));
  EXPECT_TRUE(ends_with("file.cpp", ".cpp"));
  EXPECT_FALSE(ends_with("cpp", ".cpp"));
  EXPECT_TRUE(contains("abcdef", "cde"));
  EXPECT_FALSE(contains("abcdef", "xyz"));
  EXPECT_TRUE(contains("abc", ""));
}

TEST(Strings, CaseConversion) {
  EXPECT_EQ(to_lower("AbC123"), "abc123");
  EXPECT_EQ(to_upper("AbC123"), "ABC123");
  EXPECT_TRUE(iequals("FATAL", "fatal"));
  EXPECT_FALSE(iequals("FATAL", "fata"));
}

TEST(Strings, ParseU64) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("12345"), 12345u);
  EXPECT_EQ(parse_u64("18446744073709551615"), ~0ull);
  EXPECT_FALSE(parse_u64("18446744073709551616"));  // overflow
  EXPECT_FALSE(parse_u64(""));
  EXPECT_FALSE(parse_u64("12a"));
  EXPECT_FALSE(parse_u64("-1"));
}

TEST(Strings, ParseI64) {
  EXPECT_EQ(parse_i64("-42"), -42);
  EXPECT_EQ(parse_i64("+7"), 7);
  EXPECT_EQ(parse_i64("9223372036854775807"), 9223372036854775807LL);
  EXPECT_FALSE(parse_i64("9223372036854775808"));
  EXPECT_EQ(parse_i64("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_FALSE(parse_i64("--2"));
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(*parse_double("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*parse_double("-3e2"), -300.0);
  EXPECT_FALSE(parse_double("1.5x"));
  EXPECT_FALSE(parse_double(""));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(replace_all("none here", "xyz", "!"), "none here");
  EXPECT_EQ(replace_all("abc", "", "!"), "abc");
  EXPECT_EQ(replace_all("a.b.c", ".", ""), "abc");
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(178081459), "178,081,459");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
}

TEST(Strings, Fnv1aStable) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
  EXPECT_EQ(fnv1a("kernel"), fnv1a("kernel"));
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%.2f", 3.14159), "3.14");
  EXPECT_EQ(format("empty"), "empty");
}

TEST(Strings, JsonQuoteEscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_quote(""), "\"\"");
  EXPECT_EQ(json_quote("m{k=\"v\"}"), "\"m{k=\\\"v\\\"}\"");
  EXPECT_EQ(json_quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_quote("\n\r\t"), "\"\\n\\r\\t\"");
  EXPECT_EQ(json_quote(std::string_view("\x01\x1f\0", 3)),
            "\"\\u0001\\u001f\\u0000\"");
  EXPECT_EQ(json_quote("caf\xc3\xa9 \x7f"), "\"caf\xc3\xa9 \x7f\"");
}

}  // namespace
}  // namespace wss::util
