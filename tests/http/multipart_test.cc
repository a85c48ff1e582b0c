#include "http/multipart.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

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

}  // namespace
}  // namespace rangeamp::http
