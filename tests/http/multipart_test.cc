#include "http/multipart.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cdn/profiles.h"
#include "http/generator.h"

namespace rangeamp::http {
namespace {

constexpr std::string_view kBoundary = "THIS_STRING_SEPARATES";
constexpr std::string_view kType = "image/jpeg";

Body test_entity(std::uint64_t size) { return Body::synthetic(77, 0, size); }

TEST(Multipart, FramingMatchesRfcExample) {
  // The Fig 2d shape of the paper: two parts of a 1000-byte resource.
  const Body entity = test_entity(1000);
  const std::vector<ResolvedRange> ranges{{1, 1}, {998, 999}};
  const Body body = build_multipart_byteranges(entity, ranges, 1000, kType,
                                               kBoundary);
  const std::string bytes = body.materialize();
  EXPECT_NE(bytes.find("--THIS_STRING_SEPARATES\r\n"), std::string::npos);
  EXPECT_NE(bytes.find("Content-Range: bytes 1-1/1000"), std::string::npos);
  EXPECT_NE(bytes.find("Content-Range: bytes 998-999/1000"), std::string::npos);
  EXPECT_TRUE(bytes.ends_with("--THIS_STRING_SEPARATES--\r\n"));
}

TEST(Multipart, SizeHelperMatchesActualBody) {
  const Body entity = test_entity(4096);
  for (const std::size_t parts : {1u, 2u, 5u, 64u}) {
    std::vector<ResolvedRange> ranges(parts, ResolvedRange{0, 4095});
    const Body body =
        build_multipart_byteranges(entity, ranges, 4096, kType, kBoundary);
    EXPECT_EQ(body.size(),
              multipart_byteranges_size(ranges, 4096, kType, kBoundary))
        << parts;
  }
}

TEST(Multipart, ParseRecoversPartsExactly) {
  const Body entity = test_entity(500);
  const std::string all = entity.materialize();
  const std::vector<ResolvedRange> ranges{{0, 9}, {100, 199}, {499, 499}};
  const Body body =
      build_multipart_byteranges(entity, ranges, 500, kType, kBoundary);
  const auto parts = parse_multipart_byteranges(body.materialize(), kBoundary);
  ASSERT_TRUE(parts);
  ASSERT_EQ(parts->size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*parts)[i].range, ranges[i]);
    EXPECT_EQ((*parts)[i].resource_size, 500u);
    EXPECT_EQ((*parts)[i].content_type, kType);
    EXPECT_EQ((*parts)[i].payload.materialize(),
              all.substr(static_cast<std::size_t>(ranges[i].first),
                         static_cast<std::size_t>(ranges[i].length())));
  }
}

TEST(Multipart, OverlappingPartsDuplicatePayload) {
  // The OBR attack body shape: n identical whole-resource parts.
  const Body entity = test_entity(1024);
  const std::size_t n = 16;
  std::vector<ResolvedRange> ranges(n, ResolvedRange{0, 1023});
  const Body body =
      build_multipart_byteranges(entity, ranges, 1024, kType, kBoundary);
  EXPECT_GE(body.size(), n * 1024u);
  const auto parts = parse_multipart_byteranges(body.materialize(), kBoundary);
  ASSERT_TRUE(parts);
  EXPECT_EQ(parts->size(), n);
  const std::string payload = entity.materialize();
  for (const auto& part : *parts) {
    EXPECT_EQ(part.payload.materialize(), payload);
  }
}

TEST(Multipart, PerPartOverheadIsBoundaryPlusHeaders) {
  // Table V arithmetic: per-part cost = len(payload) + len(boundary) + 82
  // with "application/octet-stream" parts of a 1 KB resource.
  const Body entity = test_entity(1024);
  const std::vector<ResolvedRange> one{{0, 1023}};
  const std::vector<ResolvedRange> two{{0, 1023}, {0, 1023}};
  const auto size1 = multipart_byteranges_size(one, 1024,
                                               "application/octet-stream", "b");
  const auto size2 = multipart_byteranges_size(two, 1024,
                                               "application/octet-stream", "b");
  EXPECT_EQ(size2 - size1, 1024u + 1 /*boundary*/ + 82u);
}

TEST(Multipart, ContentTypeHelpers) {
  EXPECT_EQ(multipart_content_type("xyz"), "multipart/byteranges; boundary=xyz");
  EXPECT_EQ(boundary_from_content_type("multipart/byteranges; boundary=xyz"),
            "xyz");
  EXPECT_EQ(boundary_from_content_type("multipart/byteranges; boundary=\"q q\""),
            "q q");
  EXPECT_EQ(
      boundary_from_content_type("multipart/byteranges; boundary=abc; foo=1"),
      "abc");
  EXPECT_FALSE(boundary_from_content_type("image/jpeg"));
  EXPECT_FALSE(boundary_from_content_type("multipart/byteranges"));
  EXPECT_FALSE(boundary_from_content_type("multipart/byteranges; boundary="));
}

TEST(Multipart, BoundaryValidationFollowsRfc2046) {
  // Quoted boundaries may carry bchars the bare form cannot end with.
  EXPECT_EQ(boundary_from_content_type(
                "multipart/byteranges; boundary=\"gc0p4Jq0M:2Yt08j34c0p\""),
            "gc0p4Jq0M:2Yt08j34c0p");
  EXPECT_EQ(boundary_from_content_type(
                "multipart/byteranges; boundary=a'()+_,-./:=?b"),
            "a'()+_,-./:=?b");
  // Exactly 70 characters is the RFC 2046 maximum; 71 is rejected.
  const std::string max(70, 'a');
  EXPECT_EQ(boundary_from_content_type(
                "multipart/byteranges; boundary=" + max),
            max);
  EXPECT_FALSE(boundary_from_content_type(
      "multipart/byteranges; boundary=" + max + "a"));
  // Characters outside bchars must be rejected, not smuggled downstream.
  EXPECT_FALSE(boundary_from_content_type(
      "multipart/byteranges; boundary=bad{boundary}"));
  EXPECT_FALSE(
      boundary_from_content_type("multipart/byteranges; boundary=\"a\rb\""));
  EXPECT_FALSE(
      boundary_from_content_type("multipart/byteranges; boundary=a\"b"));
  // A space is a bchar but may not terminate the boundary.
  EXPECT_FALSE(
      boundary_from_content_type("multipart/byteranges; boundary=\"ab \""));
}

TEST(Multipart, ParseRejectsTruncatedBody) {
  const Body entity = test_entity(100);
  const std::vector<ResolvedRange> ranges{{0, 99}};
  const std::string good =
      build_multipart_byteranges(entity, ranges, 100, kType, kBoundary)
          .materialize();
  // Chop off the closing delimiter.
  EXPECT_FALSE(parse_multipart_byteranges(good.substr(0, good.size() - 26),
                                          kBoundary));
  // Wrong boundary.
  EXPECT_FALSE(parse_multipart_byteranges(good, "WRONG"));
  // Missing Content-Range in a part.
  EXPECT_FALSE(parse_multipart_byteranges(
      "--B\r\nContent-Type: a/b\r\n\r\nxx\r\n--B--\r\n", "B"));
}

TEST(Multipart, EmptyRangeListYieldsOnlyClosingDelimiter) {
  const Body entity = test_entity(10);
  const Body body = build_multipart_byteranges(entity, {}, 10, kType, kBoundary);
  EXPECT_EQ(body.materialize(), "--THIS_STRING_SEPARATES--\r\n");
  const auto parts = parse_multipart_byteranges(body.materialize(), kBoundary);
  ASSERT_TRUE(parts);
  EXPECT_TRUE(parts->empty());
}

TEST(Multipart, ParseRejectsPartLengthThatWrapsTheBoundsCheck) {
  // A 20-digit Content-Range claims 2^64 - 2 payload bytes over an 11-byte
  // remainder; `len + 2` must not wrap to 0 and admit the part.
  EXPECT_FALSE(parse_multipart_byteranges(
      "--B\r\nContent-Range: bytes 0-18446744073709551613/"
      "18446744073709551614\r\n\r\nXY\r\n--B--\r\n",
      "B"));
}

// Golden bytes recorded before the framing moved into MultipartWriter.
TEST(Multipart, GoldenThreePartBody) {
  const Body entity = Body::literal("ABCDEFGHIJKLMNOPQRSTUVWXYZ");
  const Body body = build_multipart_byteranges(
      entity, {{0, 2}, {10, 10}, {20, 25}}, 26, "text/plain", "B0UND");
  EXPECT_EQ(body.materialize(),
            "--B0UND\r\n"
            "Content-Type: text/plain\r\n"
            "Content-Range: bytes 0-2/26\r\n"
            "\r\n"
            "ABC\r\n"
            "--B0UND\r\n"
            "Content-Type: text/plain\r\n"
            "Content-Range: bytes 10-10/26\r\n"
            "\r\n"
            "K\r\n"
            "--B0UND\r\n"
            "Content-Type: text/plain\r\n"
            "Content-Range: bytes 20-25/26\r\n"
            "\r\n"
            "UVWXYZ\r\n"
            "--B0UND--\r\n");
}

// A position of 1 or of 20 digits, with a short payload so that no total
// overflows 64 bits.
ResolvedRange random_range(Rng& rng, std::uint64_t size) {
  const std::uint64_t len = 1 + rng.below(std::min<std::uint64_t>(size, 64));
  const std::uint64_t first =
      rng.chance(0.5) ? rng.below(std::min<std::uint64_t>(size - len + 1, 10))
                      : size - len - rng.below(std::min<std::uint64_t>(
                                                   size - len + 1, 10));
  return {first, first + len - 1};
}

TEST(MultipartWriter, SizeMatchesBuiltBodyOnSeededShapes) {
  Rng rng(7233);
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (int trial = 0; trial < 400; ++trial) {
    const std::uint64_t size = rng.chance(0.5) ? 1 + rng.below(9)
                                               : kMax - rng.below(1000);
    const std::size_t parts = trial % 4 == 0 ? trial % 8 / 4  // 0 or 1 part
                                             : rng.below(40);
    std::vector<ResolvedRange> ranges;
    for (std::size_t i = 0; i < parts; ++i) ranges.push_back(random_range(rng, size));
    const std::string boundary(1 + rng.below(70), 'b');
    const std::string type = rng.chance(0.5) ? "text/plain" : "";
    const Body entity = Body::synthetic(rng.next(), 0, size);
    const Body body =
        build_multipart_byteranges(entity, ranges, size, type, boundary);
    ASSERT_EQ(multipart_byteranges_size(ranges, size, type, boundary), body.size())
        << "trial " << trial << ", " << parts << " parts of a " << size
        << "-byte resource";
    if (size < 10 && parts > 0) {
      const auto parsed = parse_multipart_byteranges(body.materialize(), boundary);
      ASSERT_TRUE(parsed);
      ASSERT_EQ(parsed->size(), parts);
      EXPECT_EQ(parsed->back().range, ranges.back());
    }
  }
}


// ---------------------------------------------------------------------------
// Run bodies: a writer-built body is one run chunk whose windows must read
// exactly the bytes of the text a part-by-part writer would produce.
// ---------------------------------------------------------------------------

std::string random_letters(Rng& rng, std::uint64_t n) {
  std::string s(static_cast<std::size_t>(n), '\0');
  for (auto& c : s) c = static_cast<char>('a' + rng.below(26));
  return s;
}

// A `size`-byte source: one literal chunk, one synthetic span, or a mix of
// literal spans, synthetic spans and windows of another run.
Body random_source(Rng& rng, std::uint64_t size) {
  const std::uint64_t kind = rng.below(3);
  if (kind == 0) return Body::literal(random_letters(rng, size));
  if (kind == 1) return Body::synthetic(rng.next(), rng.below(1000), size);
  const Body inner = build_multipart_byteranges(
      test_entity(64), std::vector<ResolvedRange>(8, ResolvedRange{0, 63}), 64,
      kType, kBoundary);
  Body mixed;
  for (std::uint64_t done = 0; done < size;) {
    const std::uint64_t piece = std::min(size - done, 1 + rng.below(40));
    switch (rng.below(3)) {
      case 0: mixed.append_literal(random_letters(rng, piece)); break;
      case 1: mixed.append_synthetic(rng.next(), 0, piece); break;
      default: mixed.append_body(inner.slice(rng.below(inner.size() - piece), piece));
    }
    done += piece;
  }
  return mixed;
}

enum Region { kHead, kPayload, kClosing };

// Where a listed part's repeats lie: `count` repeats of `each` bytes (head
// and payload) from `first` on, counted as the writer counts, as if the body
// began with the CRLF its first head drops.
struct Repeats {
  std::uint64_t first = 0;
  std::uint64_t each = 0;
  std::uint64_t count = 0;
  std::uint64_t end() const { return first + each * count; }
};

struct RunCase {
  Body body;
  std::string expected;  ///< the same body, written part by part
  std::vector<std::pair<Region, std::pair<std::uint64_t, std::uint64_t>>> regions;
  std::vector<Repeats> parts;  ///< one per listed part, in order
};

// A writer-built body over a random source, with 0, 1 or many listed parts,
// each repeated once or 2 to 50 times, positions of 1 or of 20 digits, and
// with or without Azure's per-part fields; `expected` is built here from the
// RFC layout, every repeat written out, not by the writer.
RunCase random_run(Rng& rng, const Headers& azure_fields) {
  const std::uint64_t size = 1 + rng.below(rng.chance(0.3) ? 9 : 300);
  const std::uint64_t base = rng.chance(0.5) ? 0 : 10'000'000'000'000'000'000ULL;
  const std::uint64_t total = base + size;
  const std::size_t count = rng.chance(0.15)   ? 0
                            : rng.chance(0.2) ? 1
                                              : 2 + rng.below(30);
  const bool azure = rng.chance(0.3);
  const std::string boundary =
      azure ? "batchresponse_9f63aa5b-4f21-47e5-ae0c-9f63aa5b4f21"
            : std::string(1 + rng.below(70), 'q');
  const Body source = random_source(rng, size);
  const std::string bytes = source.materialize();

  RunCase c;
  std::vector<RunPart> parts;
  std::string fields;
  if (azure) {
    for (const auto f : azure_fields) {
      fields.append(f.name).append(": ").append(f.value).append("\r\n");
    }
  }
  const auto add = [&](Region region, const std::string& text) {
    c.regions.push_back({region, {c.expected.size(), text.size()}});
    c.expected += text;
  };
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t len = 1 + rng.below(std::min<std::uint64_t>(size, 50));
    const std::uint64_t offset = rng.below(size - len + 1);
    const ResolvedRange r{base + offset, base + offset + len - 1};
    const std::uint64_t repeats = rng.chance(0.35) ? 2 + rng.below(49) : 1;
    parts.push_back({r, offset, repeats});
    Repeats& at = c.parts.emplace_back();
    for (std::uint64_t k = 0; k < repeats; ++k) {
      // The body's first head has no leading CRLF; in the layout the writer
      // counts, every repeat is the same size.
      const std::uint64_t start = c.expected.size() + (c.expected.empty() ? 0 : 2);
      add(kHead, std::string(c.expected.empty() ? "" : "\r\n") + "--" + boundary +
                     "\r\n" + fields + "Content-Type: text/plain\r\nContent-Range: bytes " +
                     std::to_string(r.first) + "-" + std::to_string(r.last) + "/" +
                     std::to_string(total) + "\r\n\r\n");
      add(kPayload, bytes.substr(static_cast<std::size_t>(offset),
                                 static_cast<std::size_t>(len)));
      if (k == 0) at = {start, c.expected.size() + 2 - start, repeats};
    }
  }
  add(kClosing, std::string(count == 0 ? "" : "\r\n") + "--" + boundary + "--\r\n");
  c.body = MultipartWriter(boundary, "text/plain", total,
                           azure ? azure_fields : Headers{})
               .frame(source, std::move(parts));
  return c;
}

// A position inside a random region of `kind`, or nullopt when the body has
// none (a run without parts has no head or payload).
std::optional<std::uint64_t> position_in(Rng& rng, const RunCase& c, Region kind) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  for (const auto& [region, span] : c.regions) {
    if (region == kind && span.second > 0) spans.push_back(span);
  }
  if (spans.empty()) return std::nullopt;
  const auto& [first, length] = spans[static_cast<std::size_t>(rng.below(spans.size()))];
  return first + rng.below(length);
}

TEST(MultipartRun, WindowsReadTheirBytesOnSeededBodies) {
  Rng rng(7233'0001);
  const auto azure_fields =
      cdn::make_profile(cdn::Vendor::kAzure).traits.multipart_part_extra_headers;
  ASSERT_FALSE(azure_fields.empty());
  constexpr std::array<Region, 3> kRegions{kHead, kPayload, kClosing};
  std::uint64_t repeated_parts = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const RunCase c = random_run(rng, azure_fields);
    const std::string& all = c.expected;
    const std::uint64_t n = all.size();
    SCOPED_TRACE("trial " + std::to_string(trial));
    ASSERT_EQ(c.body.chunks().size(), 1u);
    ASSERT_EQ(c.body.size(), n);
    ASSERT_EQ(c.body.materialize(), all);
    EXPECT_EQ(c.body, Body::literal(all));
    EXPECT_EQ(Body::literal(all), c.body);
    const auto expect_window = [&](std::uint64_t first, std::uint64_t length) {
      EXPECT_EQ(c.body.slice(first, length).materialize(),
                all.substr(static_cast<std::size_t>(first),
                           static_cast<std::size_t>(length)))
          << first << "+" << length;
    };

    // Windows cut inside every pair of region kinds.
    for (const Region from : kRegions) {
      for (const Region to : kRegions) {
        const auto a = position_in(rng, c, from);
        const auto b = position_in(rng, c, to);
        if (!a || !b) continue;
        const std::uint64_t first = std::min(*a, *b);
        const std::uint64_t length = std::max(*a, *b) - first + 1;
        const std::string want = all.substr(static_cast<std::size_t>(first),
                                            static_cast<std::size_t>(length));
        expect_window(first, length);
        EXPECT_EQ(c.body.at(first), static_cast<std::uint8_t>(all[first]));
        EXPECT_EQ(c.body.slice(first, length), Body::literal(want));

        Body cut = c.body;
        cut.truncate(first);
        EXPECT_EQ(cut.materialize(), all.substr(0, static_cast<std::size_t>(first)));
        EXPECT_EQ(cut.size(), first);

        // Two adjacent windows appended in turn merge back into one chunk.
        if (length >= 2) {
          const std::uint64_t split = 1 + rng.below(length - 1);
          Body joined = c.body.slice(first, split);
          joined.append_body(c.body.slice(first + split, length - split));
          EXPECT_EQ(joined.chunks().size(), 1u);
          EXPECT_EQ(joined.materialize(), want);
        }
      }
    }

    // Repeated parts: cuts at and inside every repeat, windows that start
    // mid-repeat, and windows that run on into the next listed part (or the
    // closing line).
    for (std::size_t i = 0; i < c.parts.size(); ++i) {
      const Repeats& p = c.parts[i];
      if (p.count < 2) continue;
      ++repeated_parts;
      const std::uint64_t next_end =
          i + 1 < c.parts.size() ? c.parts[i + 1].first + c.parts[i + 1].each : n + 2;
      const auto at = [&](std::uint64_t k) {  // where repeat k starts in the body
        return std::max<std::uint64_t>(p.first + k * p.each, 2) - 2;
      };
      for (std::uint64_t k = 0; k <= p.count; ++k) {
        const std::uint64_t cut = at(k);
        if (cut > 0) expect_window(cut - 1, std::min<std::uint64_t>(2, n - cut + 1));
        if (k == p.count) break;
        // From inside repeat k to inside the next repeat, or past the part.
        const std::uint64_t mid = cut + 1 + rng.below(at(k + 1) - cut - 1);
        expect_window(mid, std::min(n - mid, 1 + rng.below(p.each + 1)));
        // From inside repeat k into the next listed part.
        if (k + 2 >= p.count || rng.chance(0.1)) {
          const std::uint64_t past = p.end() - 2 + rng.below(next_end - p.end());
          expect_window(mid, std::min(n, past + 1) - mid);
        }
      }
      // A body truncated between two repeats ends with the earlier one.
      const std::uint64_t between = at(1 + rng.below(p.count - 1));
      const std::uint64_t tail = std::min(between, p.each);
      Body cut = c.body;
      cut.truncate(between);
      ASSERT_EQ(cut.size(), between);
      EXPECT_EQ(cut.slice(between - tail, tail).materialize(),
                all.substr(static_cast<std::size_t>(between - tail),
                           static_cast<std::size_t>(tail)));
    }

    // A window of a window reads the same bytes as one cut.
    const std::uint64_t first = rng.below(n);
    const std::uint64_t length = 1 + rng.below(n - first);
    const Body outer = c.body.slice(first, length);
    const std::uint64_t inner_first = rng.below(length);
    const std::uint64_t inner_length = rng.below(length - inner_first + 1);
    EXPECT_EQ(outer.slice(inner_first, inner_length).materialize(),
              all.substr(static_cast<std::size_t>(first + inner_first),
                         static_cast<std::size_t>(inner_length)));
  }
  EXPECT_GT(repeated_parts, 400u);  // the seeded bodies do repeat parts
}

TEST(MultipartRun, WindowsOfDifferentRunsDoNotMerge) {
  const Body entity = test_entity(100);
  const std::vector<ResolvedRange> ranges{{0, 9}, {20, 29}};
  const Body a = build_multipart_byteranges(entity, ranges, 100, kType, kBoundary);
  const Body b = build_multipart_byteranges(entity, ranges, 100, kType, kBoundary);
  EXPECT_EQ(a, b);  // the same bytes ...
  Body joined = a.slice(0, 10);
  joined.append_body(b.slice(10, 10));
  EXPECT_EQ(joined.chunks().size(), 2u);  // ... but two runs
  EXPECT_EQ(joined.materialize(), a.materialize().substr(0, 20));
}

}  // namespace
}  // namespace rangeamp::http
