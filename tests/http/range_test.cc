#include "http/range.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "http/generator.h"

namespace rangeamp::http {
namespace {

// ---------------------------------------------------------------------------
// Grammar: parse_range_header
// ---------------------------------------------------------------------------

TEST(ParseRange, SingleClosed) {
  const auto set = parse_range_header("bytes=0-499");
  ASSERT_TRUE(set);
  ASSERT_EQ(set->count(), 1u);
  EXPECT_EQ(set->front(), ByteRangeSpec::closed(0, 499));
}

TEST(ParseRange, SingleOpen) {
  const auto set = parse_range_header("bytes=9500-");
  ASSERT_TRUE(set);
  EXPECT_EQ(set->front(), ByteRangeSpec::open(9500));
}

TEST(ParseRange, SingleSuffix) {
  const auto set = parse_range_header("bytes=-500");
  ASSERT_TRUE(set);
  EXPECT_EQ(set->front(), ByteRangeSpec::suffix_of(500));
}

TEST(ParseRange, MultipleMixed) {
  const auto set = parse_range_header("bytes=1-1,-2,7-");
  ASSERT_TRUE(set);
  EXPECT_EQ(*set, (RangeSet{ByteRangeSpec::closed(1, 1), ByteRangeSpec::suffix_of(2),
                             ByteRangeSpec::open(7)}));
  EXPECT_EQ(set->count(), 3u);
}

TEST(ParseRange, ToleratesOwsAndEmptyListElements) {
  // RFC 7230 #rule: empty elements and OWS around elements are legal.
  const auto set = parse_range_header("bytes= 0-0 , , 5-9 ,");
  ASSERT_TRUE(set);
  EXPECT_EQ(*set, (RangeSet{ByteRangeSpec::closed(0, 0), ByteRangeSpec::closed(5, 9)}));
}

TEST(ParseRange, UnitIsCaseInsensitive) {
  EXPECT_TRUE(parse_range_header("Bytes=0-0"));
  EXPECT_TRUE(parse_range_header("BYTES=0-0"));
}

TEST(ParseRange, RejectsMalformed) {
  // Unknown unit.
  EXPECT_FALSE(parse_range_header("items=0-5"));
  // No unit.
  EXPECT_FALSE(parse_range_header("0-5"));
  // Empty set.
  EXPECT_FALSE(parse_range_header("bytes="));
  EXPECT_FALSE(parse_range_header("bytes=,"));
  // last < first is an invalid byte-range-spec (RFC 7233 section 2.1).
  EXPECT_FALSE(parse_range_header("bytes=5-4"));
  // Bare dash selects nothing and has no digits.
  EXPECT_FALSE(parse_range_header("bytes=-"));
  // Non-numeric positions.
  EXPECT_FALSE(parse_range_header("bytes=a-b"));
  EXPECT_FALSE(parse_range_header("bytes=1-2x"));
  EXPECT_FALSE(parse_range_header("bytes=1.5-2"));
  // Negative first position is not grammar (it would parse as suffix "-1"
  // followed by junk).
  EXPECT_FALSE(parse_range_header("bytes=-1-2"));
  // One bad spec poisons the whole header.
  EXPECT_FALSE(parse_range_header("bytes=0-0,5-4"));
  EXPECT_FALSE(parse_range_header("bytes=0-0,oops"));
}

TEST(ParseRange, SuffixZeroParsesButIsUnsatisfiable) {
  // "-0" matches the grammar; satisfiability is a resolution concern.
  const auto set = parse_range_header("bytes=-0");
  ASSERT_TRUE(set);
  EXPECT_FALSE(resolve(set->front(), 100).has_value());
}

TEST(ParseRange, RoundTripsThroughToString) {
  for (const char* value :
       {"bytes=0-0", "bytes=-1", "bytes=5-", "bytes=1-1,-2,7-",
        "bytes=0-,0-,0-", "bytes=8388608-16777215"}) {
    const auto set = parse_range_header(value);
    ASSERT_TRUE(set) << value;
    EXPECT_EQ(set->to_string(), value);
    const auto again = parse_range_header(set->to_string());
    ASSERT_TRUE(again);
    EXPECT_EQ(*again, *set);
  }
}

// RangeSet::to_string sizes its output once, spells each run's spec once and
// copies that spelling for the run's other elements.  It must spell what
// joining every element's own spelling spells, and parse back.
TEST(ParseRange, ToStringJoinsSpecSpellingsAndRoundTripsOnSeededSets) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const RangeSet pinned{ByteRangeSpec::closed(0, 9), ByteRangeSpec::open(10),
                        ByteRangeSpec::suffix_of(kMax),
                        ByteRangeSpec::closed(kMax, kMax)};
  EXPECT_EQ(pinned.to_string(),
            "bytes=0-9,10-,-18446744073709551615,"
            "18446744073709551615-18446744073709551615");

  Rng rng(7233'0002);
  constexpr std::uint64_t kPositions[] = {0, 9, 10, kMax};
  const auto position = [&] {
    return rng.chance(0.6) ? kPositions[rng.below(4)] : rng.next() >> rng.below(64);
  };
  const auto random_spec = [&] {
    switch (rng.below(3)) {
      case 0: {
        const std::uint64_t a = position();
        const std::uint64_t b = position();
        return ByteRangeSpec::closed(std::min(a, b), std::max(a, b));
      }
      case 1: return ByteRangeSpec::open(position());
      default: return ByteRangeSpec::suffix_of(position());
    }
  };
  for (int trial = 0; trial < 200; ++trial) {
    // One spec, a few, or the 10 746 of Cloudflare's OBR case: all copies of
    // one spec, as that attack sends them, or each drawn afresh.  In every
    // fifth set each draw stands for 1-3 elements, and in every third one
    // draw for up to 10 746.  Equal neighbouring draws fold into one run.
    const std::size_t n = trial % 20 == 0 ? 10'746 : trial % 2 ? 1 : 2 + rng.below(64);
    const bool copies = trial % 40 == 0;
    const std::size_t long_draw = trial % 3 == 0 ? rng.below(n) : n;  // n: none
    const std::uint64_t short_count = trial % 5 == 0 ? 3 : 1;
    RangeSet set;
    std::string want = "bytes=";
    std::uint64_t elements = 0;
    const ByteRangeSpec first = random_spec();
    for (std::size_t i = 0; i < n; ++i) {
      const ByteRangeSpec spec = i == 0 || copies ? first : random_spec();
      const std::uint64_t count =
          i == long_draw ? 1 + rng.below(10'746) : 1 + rng.below(short_count);
      set.push(spec, count);
      const std::string spelled = spec.to_string();
      for (std::uint64_t k = 0; k < count; ++k) {
        if (elements++) want += ',';
        want += spelled;
      }
    }
    ASSERT_EQ(set.count(), elements) << "trial " << trial;
    const std::string value = set.to_string();
    ASSERT_EQ(value, want) << "trial " << trial;
    const auto parsed = parse_range_header(value, 0);  // 0: no length guard
    ASSERT_TRUE(parsed) << "trial " << trial;
    EXPECT_EQ(*parsed, set) << "trial " << trial;
  }
}

TEST(ParseRange, HugeValuesParse) {
  const auto set = parse_range_header("bytes=18446744073709551614-");
  ASSERT_TRUE(set);
  EXPECT_EQ(*set->front().first(), 18446744073709551614ULL);
}

TEST(ParseRange, LengthGuardBoundaries) {
  // A value of exactly the limit parses; one byte more is rejected before
  // any parsing work happens.  Trailing OWS keeps the value well-formed.
  const std::string at_limit =
      "bytes=0-0" + std::string(kMaxRangeHeaderBytes - 9, ' ');
  ASSERT_EQ(at_limit.size(), kMaxRangeHeaderBytes);
  EXPECT_TRUE(parse_range_header(at_limit));
  EXPECT_FALSE(parse_range_header(at_limit + " "));
}

TEST(ParseRange, LengthGuardIsConfigurable) {
  EXPECT_TRUE(parse_range_header("bytes=0-0", 9));
  EXPECT_FALSE(parse_range_header("bytes=0-0", 8));
  // 0 disables the guard entirely.
  const std::string huge =
      "bytes=0-0" + std::string(kMaxRangeHeaderBytes, ' ');
  EXPECT_FALSE(parse_range_header(huge));
  EXPECT_TRUE(parse_range_header(huge, 0));
}

TEST(ParseRange, GuardAdmitsTheLargestExperimentHeader) {
  // The biggest header any RangeAmp experiment emits (StackPath's OBR case,
  // thousands of "0-" specs, ~81 KB) must stay inside the default guard.
  std::string value = "bytes=0-0";
  while (value.size() < 100 * 1024) value += ",0-0";
  const auto set = parse_range_header(value);
  ASSERT_TRUE(set);
  EXPECT_GT(set->count(), 20000u);
}

// ---------------------------------------------------------------------------
// Resolution: RFC 7233 section 2.1 satisfiability
// ---------------------------------------------------------------------------

TEST(Resolve, ClosedWithinBounds) {
  const auto r = resolve(ByteRangeSpec::closed(10, 19), 100);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, (ResolvedRange{10, 19}));
  EXPECT_EQ(r->length(), 10u);
}

TEST(Resolve, ClosedClampsLastToEnd) {
  const auto r = resolve(ByteRangeSpec::closed(90, 1000), 100);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, (ResolvedRange{90, 99}));
}

TEST(Resolve, FirstAtOrBeyondSizeIsUnsatisfiable) {
  EXPECT_FALSE(resolve(ByteRangeSpec::closed(100, 100), 100));
  EXPECT_FALSE(resolve(ByteRangeSpec::open(100), 100));
  EXPECT_TRUE(resolve(ByteRangeSpec::closed(99, 99), 100));
}

TEST(Resolve, OpenRunsToEnd) {
  const auto r = resolve(ByteRangeSpec::open(40), 100);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, (ResolvedRange{40, 99}));
}

TEST(Resolve, SuffixTakesLastBytes) {
  const auto r = resolve(ByteRangeSpec::suffix_of(2), 1000);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, (ResolvedRange{998, 999}));
}

TEST(Resolve, SuffixLargerThanResourceIsWholeResource) {
  const auto r = resolve(ByteRangeSpec::suffix_of(5000), 100);
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, (ResolvedRange{0, 99}));
}

TEST(Resolve, EmptyResourceSatisfiesNothing) {
  EXPECT_FALSE(resolve(ByteRangeSpec::closed(0, 0), 0));
  EXPECT_FALSE(resolve(ByteRangeSpec::suffix_of(5), 0));
  EXPECT_FALSE(resolve(ByteRangeSpec::open(0), 0));
}

TEST(ResolveAll, DropsUnsatisfiableMembers) {
  const RangeSet set{ByteRangeSpec::closed(0, 0), ByteRangeSpec::closed(500, 600),
                     ByteRangeSpec::suffix_of(1)};
  const auto resolved = resolve_all(set, 100);
  ASSERT_EQ(resolved.size(), 2u);
  EXPECT_EQ(resolved[0], (ResolvedRange{0, 0}));
  EXPECT_EQ(resolved[1], (ResolvedRange{99, 99}));
}

TEST(ResolveAll, PreservesRequestOrder) {
  const RangeSet set{ByteRangeSpec::closed(50, 59), ByteRangeSpec::closed(0, 9)};
  const auto resolved = resolve_all(set, 100);
  ASSERT_EQ(resolved.size(), 2u);
  EXPECT_EQ(resolved[0].first, 50u);
  EXPECT_EQ(resolved[1].first, 0u);
}

// ---------------------------------------------------------------------------
// Range-set properties
// ---------------------------------------------------------------------------

TEST(RangeProperties, OverlapDetection) {
  EXPECT_TRUE((ResolvedRange{0, 10}).overlaps({10, 20}));
  EXPECT_TRUE((ResolvedRange{5, 15}).overlaps({0, 30}));
  EXPECT_FALSE((ResolvedRange{0, 9}).overlaps({10, 20}));
  EXPECT_TRUE(any_overlap({{0, 99}, {50, 60}}));
  EXPECT_FALSE(any_overlap({{0, 9}, {10, 19}, {30, 40}}));
  EXPECT_FALSE(any_overlap({}));
  EXPECT_FALSE(any_overlap({{0, 10}}));
}

// The definition any_overlap must agree with: some pair overlaps.
bool any_overlapping_pair(const std::vector<ResolvedRange>& ranges) {
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    for (std::size_t j = i + 1; j < ranges.size(); ++j) {
      if (ranges[i].overlaps(ranges[j])) return true;
    }
  }
  return false;
}

TEST(RangeProperties, AnyOverlapMatchesThePairwiseDefinition) {
  const std::vector<std::vector<ResolvedRange>> shapes{
      {},                                   // empty
      {{5, 9}},                             // single
      {{0, 99}, {0, 99}},                   // identical
      {{0, 9}, {10, 19}},                   // adjacent but disjoint
      {{10, 19}, {0, 9}},                   // the same, unsorted
      {{0, 100}, {10, 20}},                 // nested
      {{10, 20}, {40, 50}, {0, 100}},       // nested, the outer one last
      {{30, 40}, {0, 9}, {10, 19}},         // unsorted, disjoint
      {{30, 40}, {0, 9}, {10, 19}, {40, 40}},  // unsorted, touching at 40
  };
  for (const auto& set : shapes) {
    EXPECT_EQ(any_overlap(set), any_overlapping_pair(set)) << set.size();
  }

  Rng rng(9110);
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::size_t overlapping = 0;
  constexpr int kSets = 10000;
  for (int trial = 0; trial < kSets; ++trial) {
    // Short ranges in a universe sized to the set, so overlapping, touching
    // and disjoint sets all come up; some sets sit at the top of the range
    // of positions.
    const std::size_t n = rng.below(13);
    const std::uint64_t universe = 4 + 6 * n * (1 + rng.below(3));
    const std::uint64_t base = rng.chance(0.2) ? kMax - universe - 8 : 0;
    std::vector<ResolvedRange> set;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t first = base + rng.below(universe);
      set.push_back({first, first + rng.below(rng.chance(0.1) ? 8 : 3)});
    }
    const bool expected = any_overlapping_pair(set);
    ASSERT_EQ(any_overlap(set), expected) << "set " << trial;
    overlapping += expected ? 1 : 0;
  }
  // Both answers are well represented.
  EXPECT_GT(overlapping, kSets / 4u);
  EXPECT_LT(overlapping, kSets * 3 / 4u);
}

TEST(RangeProperties, AscendingDisjoint) {
  EXPECT_TRUE(is_ascending_disjoint({{0, 9}, {10, 19}, {30, 40}}));
  EXPECT_FALSE(is_ascending_disjoint({{10, 19}, {0, 9}}));
  EXPECT_FALSE(is_ascending_disjoint({{0, 10}, {10, 20}}));
  EXPECT_TRUE(is_ascending_disjoint({}));
  EXPECT_TRUE(is_ascending_disjoint({{5, 5}}));
}

TEST(RangeProperties, CoalesceMergesOverlappingAndAdjacent) {
  const auto merged = coalesce({{10, 20}, {0, 5}, {6, 9}, {50, 60}, {15, 30}});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0], (ResolvedRange{0, 30}));
  EXPECT_EQ(merged[1], (ResolvedRange{50, 60}));
}

TEST(RangeProperties, CoalesceIdentityOnDisjoint) {
  const std::vector<ResolvedRange> disjoint{{0, 1}, {3, 4}, {100, 200}};
  EXPECT_EQ(coalesce(disjoint), disjoint);
}

TEST(RangeProperties, TotalSelectedBytesCountsOverlapsMultiply) {
  // The OBR payload arithmetic: n copies of the whole resource.
  std::vector<ResolvedRange> ranges(7, ResolvedRange{0, 1023});
  EXPECT_EQ(total_selected_bytes(ranges), 7u * 1024u);
}

// ---------------------------------------------------------------------------
// Content-Range
// ---------------------------------------------------------------------------

TEST(ContentRangeFormat, FormatsAndParses) {
  EXPECT_EQ(content_range({0, 0}, 1000), "bytes 0-0/1000");
  EXPECT_EQ(content_range({998, 999}, 1000), "bytes 998-999/1000");
  EXPECT_EQ(content_range_unsatisfied(100), "bytes */100");

  const auto cr = parse_content_range("bytes 0-0/1000");
  ASSERT_TRUE(cr);
  EXPECT_EQ(cr->range, (ResolvedRange{0, 0}));
  EXPECT_EQ(cr->resource_size, 1000u);
}

TEST(ContentRangeFormat, ParseRejectsNonsense) {
  EXPECT_FALSE(parse_content_range("bytes */100"));  // unsatisfied form
  EXPECT_FALSE(parse_content_range("bytes 5-4/100"));
  EXPECT_FALSE(parse_content_range("bytes 0-100/100"));  // last >= size
  EXPECT_FALSE(parse_content_range("items 0-0/10"));
  EXPECT_FALSE(parse_content_range("bytes 0-0"));
}

TEST(ContentRangeFormat, RoundTrip) {
  const ResolvedRange r{8388608, 16777215};
  const auto cr = parse_content_range(content_range(r, 26214400));
  ASSERT_TRUE(cr);
  EXPECT_EQ(cr->range, r);
  EXPECT_EQ(cr->resource_size, 26214400u);
}

// ---------------------------------------------------------------------------
// Parameterized property sweep: resolution invariants over many sizes
// ---------------------------------------------------------------------------

class ResolveProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResolveProperty, ResolvedRangesAlwaysWithinBounds) {
  const std::uint64_t size = GetParam();
  const std::vector<ByteRangeSpec> specs = {
      ByteRangeSpec::closed(0, 0),
      ByteRangeSpec::closed(size / 2, size),
      ByteRangeSpec::closed(size - 1, size + 100),
      ByteRangeSpec::open(0),
      ByteRangeSpec::open(size / 3),
      ByteRangeSpec::suffix_of(1),
      ByteRangeSpec::suffix_of(size),
      ByteRangeSpec::suffix_of(size * 2),
  };
  for (const auto& spec : specs) {
    const auto r = resolve(spec, size);
    if (!r) continue;
    EXPECT_LE(r->first, r->last);
    EXPECT_LT(r->last, size);
    EXPECT_GE(r->length(), 1u);
    EXPECT_LE(r->length(), size);
  }
}

TEST_P(ResolveProperty, CoalesceIsIdempotentAndConserving) {
  const std::uint64_t size = GetParam();
  std::vector<ResolvedRange> ranges;
  for (std::uint64_t i = 0; i + 1 < size && ranges.size() < 20; i += size / 7 + 1) {
    ranges.push_back({i, std::min(size - 1, i + size / 5)});
  }
  const auto once = coalesce(ranges);
  EXPECT_EQ(coalesce(once), once);
  EXPECT_TRUE(is_ascending_disjoint(once));
  // Coalescing never selects more bytes than the raw set.
  EXPECT_LE(total_selected_bytes(once), std::max(total_selected_bytes(ranges),
                                                 static_cast<std::uint64_t>(0)));
  // And never loses coverage: every original first/last is inside some
  // merged range.
  for (const auto& r : ranges) {
    bool first_covered = false, last_covered = false;
    for (const auto& m : once) {
      if (r.first >= m.first && r.first <= m.last) first_covered = true;
      if (r.last >= m.first && r.last <= m.last) last_covered = true;
    }
    EXPECT_TRUE(first_covered && last_covered);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ResolveProperty,
                         ::testing::Values(1, 2, 3, 16, 100, 1024, 65537,
                                           1u << 20, 26214400));

}  // namespace
}  // namespace rangeamp::http
