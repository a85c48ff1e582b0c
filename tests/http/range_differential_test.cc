// Differential test of the one-pass Range parser against the substr/trim
// parser it replaced, kept here as the oracle: it returns the unfolded list,
// one spec per element, and the parser's runs must expand to exactly that
// list.  Plus the number formatting edges of the range vocabulary.
#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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

std::optional<std::vector<ByteRangeSpec>> oracle_parse(std::string_view value) {
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
  std::vector<ByteRangeSpec> specs;
  std::size_t start = 0;
  while (start <= value.size()) {
    const auto comma = value.find(',', start);
    const std::string_view piece =
        value.substr(start, comma == std::string_view::npos ? std::string_view::npos
                                                            : comma - start);
    if (!oracle_trim_ows(piece).empty()) {
      auto spec = oracle_parse_spec(piece);
      if (!spec) return std::nullopt;
      specs.push_back(*spec);
    }
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (specs.empty()) return std::nullopt;
  return specs;
}

// The list a set stands for, one spec per element.
std::vector<ByteRangeSpec> expand(const RangeSet& set) {
  std::vector<ByteRangeSpec> specs;
  for (const RangeRun& run : set.runs()) specs.insert(specs.end(), run.count, run.spec);
  return specs;
}

// Canonical runs: none empty, no two neighbours with equal specs, and a
// count() that is the sum of the runs'.
::testing::AssertionResult canonical(const RangeSet& set) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < set.runs().size(); ++i) {
    const RangeRun& run = set.runs()[i];
    if (run.count == 0) return ::testing::AssertionFailure() << "empty run " << i;
    if (i > 0 && set.runs()[i - 1].spec == run.spec) {
      return ::testing::AssertionFailure() << "runs " << i - 1 << " and " << i << " are equal";
    }
    total += run.count;
  }
  if (total != set.count()) {
    return ::testing::AssertionFailure() << "count() " << set.count() << ", runs " << total;
  }
  return ::testing::AssertionSuccess();
}

// Parses `value` with both parsers and checks that they agree: the same
// verdict, and runs that are canonical and expand to the oracle's list.
// Returns the parse.
std::optional<RangeSet> parse_both(const std::string& value) {
  const auto expected = oracle_parse(value);
  auto actual = parse_range_header(value);
  EXPECT_EQ(actual.has_value(), expected.has_value()) << "\"" << value << "\"";
  if (actual && expected) {
    EXPECT_TRUE(canonical(*actual)) << "\"" << value << "\"";
    EXPECT_EQ(expand(*actual), *expected) << "\"" << value << "\"";
  }
  return actual;
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
    if (parse_both(range_value(rng))) {
      ++accepted;
    } else {
      ++rejected;
    }
    if (HasFailure()) return;
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
        "BYTES=-5,0-,1-1", "bytes=0-\r", "bytes=0-0\n",
        // Repeats: respelled, padded, broken by empty elements, ending with
        // or without a comma or in OWS, or followed by a bad element.
        "bytes=0-,0-,0-", "bytes=0-,00-,000-,0-", "bytes=0-, 0-,\t0- , 0-",
        "bytes=0-,,0-,0-", "bytes=0-,0-,0-,", "bytes=0-,0-,0- ", "bytes=0-,0-,0-\t,",
        "bytes=0-,0-,0-,x", "bytes=0-,0-,0-,5-3", "bytes=0-,0-,0-x", "bytes=0-,0-,0-0",
        "bytes=1-,0-,0-,0-,1-,1-", "bytes=-1024,0-,0-,0-", "bytes=0-,0-,0-,0,0-",
        "bytes=18446744073709551615-,18446744073709551615-,018446744073709551615-",
        "bytes=0-18446744073709551615,0-18446744073709551615,0-18446744073709551616"}) {
    parse_both(value);
  }
}

// A value of stretches, each repeating one spec: spelled the same way each
// time (so the parser can swallow the stretch by bytes) or respelled with
// leading zeros and OWS (so it folds by value alone), with empty elements
// inside stretches, positions up to 20 digits and UINT64_MAX, and endings
// with and without a comma, in OWS, or in a bad element.
std::string repeated_value(Rng& rng) {
  const auto position = [&]() -> std::uint64_t {
    switch (rng.below(4)) {
      case 0: return rng.below(3);
      case 1: return rng.below(100000);
      case 2: return std::numeric_limits<std::uint64_t>::max() - rng.below(2);
      default: return rng.next();  // mostly 19 or 20 digits
    }
  };
  const auto spell = [&](std::uint64_t v, bool respell) {
    return (respell && rng.chance(0.5) ? std::string(1 + rng.below(2), '0') : "") +
           std::to_string(v);
  };
  std::string value = pick(rng, {"bytes=", "bytes=", "Bytes="});
  const std::size_t stretches = 1 + rng.below(4);
  bool first = true;
  for (std::size_t s = 0; s < stretches; ++s) {
    std::uint64_t a = position();
    std::uint64_t b = position();
    if (a > b) std::swap(a, b);
    const std::uint64_t shape = rng.below(3);
    const std::size_t copies = rng.chance(0.2) ? 100 + rng.below(2000) : 1 + rng.below(6);
    const bool respell = rng.chance(0.3);
    const std::string pad = rng.chance(0.3) ? ows(rng) : "";
    for (std::size_t i = 0; i < copies; ++i) {
      if (!first) value += ',';
      first = false;
      if (rng.chance(0.01)) value += ows(rng) + ",";  // an empty element
      const std::string spec = shape == 0   ? spell(a, respell) + "-"
                               : shape == 1 ? "-" + spell(b, respell)
                                            : spell(a, respell) + "-" + spell(b, respell);
      value += respell ? ows(rng) + spec + ows(rng) : pad + spec + pad;
    }
  }
  switch (rng.below(8)) {
    case 0: value += ","; break;
    case 1: value += pick(rng, {" ", "\t", " ,", ", "}); break;
    case 2: value += pick(rng, {",x", ",5-3", "x", ",0-,x", ", 1-0"}); break;
    default: break;
  }
  return value;
}

TEST(RangeParserDifferential, FoldedSetsExpandToTheUnfoldedListOnSeededRepeats) {
  Rng rng(9110'1406);
  std::size_t accepted = 0, rejected = 0, long_runs = 0;
  RangeSet previous;
  std::vector<ByteRangeSpec> previous_list;
  for (int i = 0; i < 2000; ++i) {
    const std::optional<RangeSet> set = parse_both(repeated_value(rng));
    if (HasFailure()) return;
    if (!set) {
      ++rejected;
      continue;
    }
    ++accepted;
    for (const RangeRun& run : set->runs()) long_runs += run.count >= 100;
    // Folding is canonical: pushing the list element by element builds the
    // same runs, the set's own spelling parses back to them, and two sets
    // are equal exactly when their lists are.
    std::vector<ByteRangeSpec> list = expand(*set);
    RangeSet pushed;
    for (const ByteRangeSpec& spec : list) pushed.push(spec);
    ASSERT_EQ(pushed, *set);
    ASSERT_EQ(parse_range_header(set->to_string(), 0), set);
    ASSERT_EQ(*set == previous, list == previous_list);
    previous = *set;
    previous_list = std::move(list);
  }
  EXPECT_GT(accepted, 1500u);
  EXPECT_GT(rejected, 150u);
  EXPECT_GT(long_runs, 200u);
}

// Long stretches of one spelling, padded with OWS to exactly the length
// guard, and one byte over it.
TEST(RangeParserDifferential, RepeatsAtTheLengthGuard) {
  for (const std::string element :
       {"0-", "-1024", " 0- ", "18446744073709551615-18446744073709551615"}) {
    std::string value = "bytes=" + element;
    while (value.size() + 1 + element.size() <= kMaxRangeHeaderBytes) {
      value += "," + element;
    }
    value.append(kMaxRangeHeaderBytes - value.size(), ' ');
    ASSERT_EQ(value.size(), kMaxRangeHeaderBytes);
    const auto set = parse_both(value);
    ASSERT_TRUE(set) << element;
    EXPECT_EQ(set->runs().size(), 1u) << element;
    EXPECT_FALSE(parse_both(value + " ")) << element;
  }
}

TEST(RangeParserDifferential, CommaOnlyHeaderAtTheGuardIsRejected) {
  // 256 KiB of bare commas is an empty byte-range-set: rejected, and the
  // parser stores nothing for it (it stores runs it has parsed, never
  // anything sized from the value's length).
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
  const RangeSet set{ByteRangeSpec::closed(0, kMax), ByteRangeSpec::suffix_of(kMax),
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
