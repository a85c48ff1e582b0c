#include "http/headers.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>

namespace rangeamp::http {
namespace {

TEST(IEquals, MatchesCaseInsensitively) {
  EXPECT_TRUE(iequals("Content-Type", "content-type"));
  EXPECT_TRUE(iequals("RANGE", "range"));
  EXPECT_TRUE(iequals("", ""));
  EXPECT_FALSE(iequals("Range", "Ranges"));
  EXPECT_FALSE(iequals("Range", "Rang"));
  EXPECT_FALSE(iequals("a", "b"));
}

// Differential check of the ASCII fold against the std::tolower form it
// replaced, over every byte pair.  The program runs in the "C" locale (no
// setlocale call), where std::tolower folds exactly A-Z.
TEST(IEquals, MatchesTolowerOnEveryBytePair) {
  int mismatches = 0;
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      const std::string x(1, static_cast<char>(a));
      const std::string y(1, static_cast<char>(b));
      const bool expected = std::tolower(a) == std::tolower(b);
      if (iequals(x, y) != expected) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_TRUE(iequals("X-Edge-TRACE\xC4", "x-edge-trace\xC4"));
  EXPECT_FALSE(iequals("\xC4", "\xE4"));  // Latin-1 case pairs do not fold
}

TEST(Headers, AppendMovesFieldsInOrder) {
  Headers h{{"Date", "d"}};
  Headers more{{"ETag", "\"e\""}, {"Content-Length", "1"}};
  h.reserve(3);
  h.append(std::move(more));
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h.fields()[0].name, "Date");
  EXPECT_EQ(h.fields()[1].name, "ETag");
  EXPECT_EQ(h.fields()[1].value, "\"e\"");
  EXPECT_EQ(h.fields()[2].name, "Content-Length");
  EXPECT_TRUE(more.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(Headers, AddKeepsDuplicatesAndOrder) {
  Headers h;
  h.add("Via", "1.1 a");
  h.add("X-Cache", "MISS");
  h.add("Via", "1.1 b");
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h.fields()[0].value, "1.1 a");
  EXPECT_EQ(h.fields()[1].name, "X-Cache");
  EXPECT_EQ(h.fields()[2].value, "1.1 b");
  const auto all = h.get_all("via");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], "1.1 a");
  EXPECT_EQ(all[1], "1.1 b");
}

TEST(Headers, GetIsCaseInsensitive) {
  Headers h{{"Content-Length", "42"}};
  EXPECT_EQ(h.get("content-length"), "42");
  EXPECT_EQ(h.get("CONTENT-LENGTH"), "42");
  EXPECT_FALSE(h.get("Content-Range").has_value());
}

TEST(Headers, GetOrFallsBack) {
  Headers h;
  EXPECT_EQ(h.get_or("Host", "none"), "none");
  h.add("Host", "example.com");
  EXPECT_EQ(h.get_or("Host", "none"), "example.com");
}

TEST(Headers, SetReplacesFirstAndDropsRest) {
  Headers h;
  h.add("Via", "1.1 a");
  h.add("X", "y");
  h.add("Via", "1.1 b");
  h.set("Via", "1.1 c");
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h.fields()[0].name, "Via");
  EXPECT_EQ(h.fields()[0].value, "1.1 c");
  EXPECT_EQ(h.fields()[1].name, "X");
}

TEST(Headers, SetAppendsWhenAbsent) {
  Headers h;
  h.set("Range", "bytes=0-0");
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h.get("Range"), "bytes=0-0");
}

TEST(Headers, RemoveDropsAllMatches) {
  Headers h;
  h.add("Via", "a");
  h.add("via", "b");
  h.add("Host", "x");
  EXPECT_EQ(h.remove("VIA"), 2u);
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(h.remove("Nope"), 0u);
}

TEST(Headers, SerializedSizeIsExact) {
  Headers h;
  EXPECT_EQ(h.serialized_size(), 0u);
  h.add("Host", "example.com");  // "Host: example.com\r\n" = 19
  EXPECT_EQ(h.serialized_size(), 19u);
  h.add("Range", "bytes=0-0");  // "Range: bytes=0-0\r\n" = 18
  EXPECT_EQ(h.serialized_size(), 37u);
}

TEST(HeaderField, LineSizeExcludesCrlf) {
  HeaderField f{"Range", "bytes=0-0"};
  // "Range: bytes=0-0" = 5 + 2 + 9
  EXPECT_EQ(f.line_size(), 16u);
}

}  // namespace
}  // namespace rangeamp::http
