// Differential test of the one-pass Range parser against the substr/trim
// parser it replaced, kept here verbatim as the oracle, plus the number
// formatting edges of the range vocabulary.
#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "http/generator.h"
#include "http/range.h"

namespace rangeamp::http {
namespace {

// ---------------------------------------------------------------------------
// Oracle: the previous parser (split on commas, trim, parse each element).
// ---------------------------------------------------------------------------

std::string_view oracle_trim_ows(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

std::optional<std::uint64_t> oracle_parse_pos(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<ByteRangeSpec> oracle_parse_spec(std::string_view s) {
  s = oracle_trim_ows(s);
  const auto dash = s.find('-');
  if (dash == std::string_view::npos) return std::nullopt;
  const std::string_view before = s.substr(0, dash);
  const std::string_view after = s.substr(dash + 1);
  if (before.empty()) {
    const auto suffix = oracle_parse_pos(after);
    if (!suffix) return std::nullopt;
    return ByteRangeSpec::suffix_of(*suffix);
  }
  const auto first = oracle_parse_pos(before);
  if (!first) return std::nullopt;
  if (after.empty()) return ByteRangeSpec::open(*first);
  const auto last = oracle_parse_pos(after);
  if (!last) return std::nullopt;
  if (*last < *first) return std::nullopt;
  return ByteRangeSpec::closed(*first, *last);
}

std::optional<RangeSet> oracle_parse(std::string_view value) {
  if (value.size() > kMaxRangeHeaderBytes) return std::nullopt;
  value = oracle_trim_ows(value);
  constexpr std::string_view kUnit = "bytes=";
  if (value.size() <= kUnit.size()) return std::nullopt;
  for (std::size_t i = 0; i < kUnit.size(); ++i) {
    const char a = value[i] >= 'A' && value[i] <= 'Z'
                       ? static_cast<char>(value[i] - 'A' + 'a')
                       : value[i];
    if (a != kUnit[i]) return std::nullopt;
  }
  value.remove_prefix(kUnit.size());
  RangeSet set;
  std::size_t start = 0;
  while (start <= value.size()) {
    const auto comma = value.find(',', start);
    const std::string_view piece =
        value.substr(start, comma == std::string_view::npos ? std::string_view::npos
                                                            : comma - start);
    if (!oracle_trim_ows(piece).empty()) {
      auto spec = oracle_parse_spec(piece);
      if (!spec) return std::nullopt;
      set.specs.push_back(*spec);
    }
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (set.specs.empty()) return std::nullopt;
  return set;
}

// ---------------------------------------------------------------------------
// Generator: Range values mixing valid shapes with every grammar edge.
// ---------------------------------------------------------------------------

std::string pick(Rng& rng, std::initializer_list<std::string_view> options) {
  return std::string{*(options.begin() + rng.below(options.size()))};
}

std::string ows(Rng& rng) {
  if (!rng.chance(0.3)) return "";
  return pick(rng, {" ", "\t", "  ", " \t", "\t\t "});
}

std::string number(Rng& rng) {
  switch (rng.below(8)) {
    case 0: return std::to_string(rng.below(10));
    case 1: return std::to_string(rng.below(100000));
    case 2: return "0" + std::to_string(rng.below(1000));  // leading zeros
    case 3: return "000" + std::to_string(rng.below(10));
    case 4: return "18446744073709551615";  // UINT64_MAX
    case 5: return "18446744073709551616";  // overflows by one
    case 6: return "123456789012345678901234";  // 24 digits
    default: return std::to_string(rng.next());
  }
}

// One list element; `clean` draws only spellings the grammar accepts.
std::string element(Rng& rng, bool clean) {
  static constexpr int kClean[] = {0, 1, 4, 5, 6, 7, 11};
  switch (clean ? kClean[rng.below(7)] : static_cast<int>(rng.below(14))) {
    case 0:
    case 1: {  // closed, ordered
      const std::uint64_t a = rng.below(1000);
      return std::to_string(a) + "-" + std::to_string(a + rng.below(1000));
    }
    case 2: {  // closed, first > last
      const std::uint64_t a = 1 + rng.below(1000);
      return std::to_string(a) + "-" + std::to_string(rng.below(a));
    }
    case 3: return number(rng) + "-" + number(rng);
    case 4: return (clean ? std::to_string(rng.next()) : number(rng)) + "-";
    case 5: return "-" + (clean ? std::to_string(rng.next()) : number(rng));
    case 6: return "";                   // empty element
    case 7: return ows(rng) + ows(rng);  // OWS-only element
    case 8:  // signs
      return pick(rng, {"+5-6", "5-+6", "-+3", "+-3", "--5", "5--", "-5-",
                        "1-2-3", "-"});
    case 9:  // internal spaces
      return pick(rng, {"1 -2", "1- 2", "1 2-3", "- 5", "5 -", "1-2 3"});
    case 10:  // other garbage
      return pick(rng, {"abc", "1", "0x10-", "1-a", "a-1", "5_-6", "\r",
                        "1-2\r", "=", ";", "bytes=1-2"});
    default: {  // a mixed valid spec
      switch (rng.below(3)) {
        case 0: return std::to_string(rng.below(100)) + "-";
        case 1: return "-" + std::to_string(1 + rng.below(100));
        default: return "0-" + std::to_string(rng.below(100));
      }
    }
  }
}

std::string range_value(Rng& rng) {
  const bool clean = rng.chance(0.4);
  std::string value = ows(rng);
  value += clean || rng.chance(0.9)
               ? pick(rng, {"bytes=", "bytes=", "bytes=", "Bytes=", "BYTES=",
                            "bYtEs="})
               : pick(rng, {"bytes =", "items=", "bytes", "byte=", "", "bytes:"});
  const std::size_t elements =
      rng.chance(0.05) ? 20 + rng.below(60) : rng.below(6);
  for (std::size_t i = 0; i < elements; ++i) {
    if (i) value += ",";
    value += ows(rng) + element(rng, clean) + ows(rng);
  }
  if (rng.chance(0.15)) value += pick(rng, {",", ",,", " ,", ", "});
  if (rng.chance(0.1)) value.insert(0, ",");
  return value + ows(rng);
}

TEST(RangeParserDifferential, MatchesThePreviousParserOnSeededValues) {
  Rng rng(20200629);
  std::size_t accepted = 0, rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string value = range_value(rng);
    const auto expected = oracle_parse(value);
    const auto actual = parse_range_header(value);
    ASSERT_EQ(actual.has_value(), expected.has_value()) << "\"" << value << "\"";
    if (expected) {
      ASSERT_EQ(*actual, *expected) << "\"" << value << "\"";
      ++accepted;
    } else {
      ++rejected;
    }
  }
  // The generator must exercise both verdicts heavily.
  EXPECT_GT(accepted, 5000u);
  EXPECT_GT(rejected, 5000u);
}

TEST(RangeParserDifferential, MatchesOnHandPickedEdges) {
  for (const char* value :
       {"bytes=0-0", " bytes=0-0 ", "\tbytes=\t0-0\t", "bytes=0-0,", "bytes=,0-0",
        "bytes=,,", "bytes= , ,", "bytes=", "bytes= ", "bytes=0-0 ,\t, 5-",
        "bytes=007-008", "bytes=-0", "bytes=18446744073709551615-",
        "bytes=18446744073709551616-", "bytes=0-18446744073709551616",
        "bytes=5-4", "bytes=4-4", "bytes=+1-2", "bytes=1-+2", "bytes=1 -2",
        "bytes=1- 2", "bytes=1-2 3", "bytes=1-2-3", "bytes=-", "bytes=--1",
        "BYTES=-5,0-,1-1", "bytes=0-\r", "bytes=0-0\n"}) {
    const auto expected = oracle_parse(value);
    const auto actual = parse_range_header(value);
    ASSERT_EQ(actual.has_value(), expected.has_value()) << "\"" << value << "\"";
    if (expected) {
      EXPECT_EQ(*actual, *expected) << "\"" << value << "\"";
    }
  }
}

TEST(RangeParserDifferential, CommaOnlyHeaderAtTheGuardIsRejected) {
  // 256 KiB of bare commas is an empty byte-range-set: rejected, and the
  // parser reserves nothing for it (reservations are sized from the first
  // valid spec onwards, never from the comma count).
  const std::string value =
      "bytes=" + std::string(kMaxRangeHeaderBytes - 6, ',');
  ASSERT_EQ(value.size(), kMaxRangeHeaderBytes);
  EXPECT_FALSE(parse_range_header(value));
  EXPECT_FALSE(oracle_parse(value));
}

// ---------------------------------------------------------------------------
// Formatting at the ends of the 64-bit range
// ---------------------------------------------------------------------------

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

TEST(RangeFormatting, SpecsAtZeroAndMax) {
  EXPECT_EQ(ByteRangeSpec::closed(0, 0).to_string(), "0-0");
  EXPECT_EQ(ByteRangeSpec::open(0).to_string(), "0-");
  EXPECT_EQ(ByteRangeSpec::suffix_of(0).to_string(), "-0");
  EXPECT_EQ(ByteRangeSpec::closed(kMax, kMax).to_string(),
            "18446744073709551615-18446744073709551615");
  EXPECT_EQ(ByteRangeSpec::open(kMax).to_string(), "18446744073709551615-");
  EXPECT_EQ(ByteRangeSpec::suffix_of(kMax).to_string(), "-18446744073709551615");
}

TEST(RangeFormatting, SetAtZeroAndMaxRoundTrips) {
  RangeSet set;
  set.specs = {ByteRangeSpec::closed(0, kMax), ByteRangeSpec::suffix_of(kMax),
               ByteRangeSpec::open(0), ByteRangeSpec::closed(0, 0)};
  const std::string value = set.to_string();
  EXPECT_EQ(value,
            "bytes=0-18446744073709551615,-18446744073709551615,0-,0-0");
  const auto parsed = parse_range_header(value);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(*parsed, set);
}

TEST(RangeFormatting, ContentRangeAtZeroAndMax) {
  EXPECT_EQ(content_range({0, 0}, 0), "bytes 0-0/0");
  EXPECT_EQ(content_range({kMax, kMax}, kMax),
            "bytes 18446744073709551615-18446744073709551615/"
            "18446744073709551615");
  EXPECT_EQ(content_range_unsatisfied(0), "bytes */0");
  EXPECT_EQ(content_range_unsatisfied(kMax), "bytes */18446744073709551615");
  const auto parsed = parse_content_range(content_range({0, kMax - 1}, kMax));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->range, (ResolvedRange{0, kMax - 1}));
  EXPECT_EQ(parsed->resource_size, kMax);
}

}  // namespace
}  // namespace rangeamp::http
