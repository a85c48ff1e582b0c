#include "http/validate.h"

#include <gtest/gtest.h>

#include "http/chunked.h"
#include "http/multipart.h"
#include "http/range.h"

namespace rangeamp::http {
namespace {

RangeSet ranges(std::string_view header) {
  const auto parsed = parse_range_header(header);
  EXPECT_TRUE(parsed.has_value()) << header;
  return *parsed;
}

Response full_200(std::string body_bytes) {
  Response resp;
  resp.status = kOk;
  resp.headers.add("Content-Length", std::to_string(body_bytes.size()));
  resp.headers.add("Content-Type", "application/octet-stream");
  resp.body = Body::literal(std::move(body_bytes));
  return resp;
}

Response single_206(std::uint64_t first, std::uint64_t last,
                    std::uint64_t total, std::string body_bytes) {
  Response resp;
  resp.status = kPartialContent;
  resp.headers.add("Content-Length", std::to_string(body_bytes.size()));
  resp.headers.add("Content-Range", "bytes " + std::to_string(first) + "-" +
                                        std::to_string(last) + "/" +
                                        std::to_string(total));
  resp.headers.add("Content-Type", "application/octet-stream");
  resp.body = Body::literal(std::move(body_bytes));
  return resp;
}

TEST(ResponseValidator, CleanFullResponsePasses) {
  const ResponseValidator v;
  EXPECT_TRUE(v.validate(full_200("hello"), std::nullopt).ok());
}

TEST(ResponseValidator, CleanSingleRangePasses) {
  const ResponseValidator v;
  const auto report =
      v.validate(single_206(0, 4, 100, "hello"), ranges("bytes=0-4"));
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(ResponseValidator, Clean416Passes) {
  Response resp;
  resp.status = kRangeNotSatisfiable;
  resp.headers.add("Content-Range", "bytes */100");
  resp.headers.add("Content-Length", "0");
  const ResponseValidator v;
  EXPECT_TRUE(v.validate(resp, ranges("bytes=200-300")).ok());
}

TEST(ResponseValidator, CleanMultipartPasses) {
  const Body entity = Body::literal(std::string(100, 'a'));
  const std::vector<ResolvedRange> parts = {{0, 4}, {10, 19}};
  Body body = build_multipart_byteranges(entity, parts, 100, "text/plain",
                                         "BOUNDARY");
  Response resp;
  resp.status = kPartialContent;
  resp.headers.add("Content-Length", std::to_string(body.size()));
  resp.headers.add("Content-Type", multipart_content_type("BOUNDARY"));
  resp.body = std::move(body);
  const ResponseValidator v;
  const auto report = v.validate(resp, ranges("bytes=0-4,10-19"));
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(ResponseValidator, ContentLengthLieIsFlagged) {
  Response resp = full_200("hello");
  resp.headers.set("Content-Length", "4096");
  const ResponseValidator v;
  const auto report = v.validate(resp, std::nullopt);
  EXPECT_TRUE(report.has(ValidationCheck::kContentLengthMismatch));
  EXPECT_FALSE(report.any_fatal());  // soft: a downstream could re-measure
  EXPECT_EQ(report.declared_content_length, 4096u);
}

TEST(ResponseValidator, DuplicateDifferingContentLengthIsFatal) {
  Response resp = full_200("hello");
  resp.headers.add("Content-Length", "3");  // second, differing field
  const ResponseValidator v;
  const auto report = v.validate(resp, std::nullopt);
  EXPECT_TRUE(report.has(ValidationCheck::kDuplicateContentLength));
  EXPECT_TRUE(report.any_fatal());
  // No single authoritative length exists once the fields disagree.
  EXPECT_FALSE(report.declared_content_length.has_value());
}

TEST(ResponseValidator, DuplicateIdenticalContentLengthIsTolerated) {
  Response resp = full_200("hello");
  resp.headers.add("Content-Length", "5");  // second, identical field
  const ResponseValidator v;
  EXPECT_FALSE(v.validate(resp, std::nullopt)
                   .has(ValidationCheck::kDuplicateContentLength));
}

TEST(ResponseValidator, ContentLengthWithChunkedIsFatal) {
  Response resp = full_200("hello");
  resp.body = encode_chunked(resp.body);
  resp.headers.set("Transfer-Encoding", "chunked");  // CL kept: the smuggle
  const ResponseValidator v;
  const auto report = v.validate(resp, std::nullopt);
  EXPECT_TRUE(report.has(ValidationCheck::kContentLengthWithChunked));
  EXPECT_TRUE(report.any_fatal());
}

TEST(ResponseValidator, UndecodableChunkedIsFatal) {
  Response resp;
  resp.status = kOk;
  resp.headers.add("Transfer-Encoding", "chunked");
  resp.body = Body::literal("5\r\nhel");  // cut mid-chunk
  const ResponseValidator v;
  EXPECT_TRUE(v.validate(resp, std::nullopt)
                  .has(ValidationCheck::kChunkedFraming));
}

TEST(ResponseValidator, ChunkedBodyIsValidatedAfterDecoding) {
  // A well-framed chunked 206 whose decoded size matches its Content-Range.
  Response resp;
  resp.status = kPartialContent;
  resp.headers.add("Content-Range", "bytes 0-4/100");
  resp.headers.add("Transfer-Encoding", "chunked");
  resp.body = encode_chunked(Body::literal("hello"));
  const ResponseValidator v;
  const auto report = v.validate(resp, ranges("bytes=0-4"));
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(ResponseValidator, PartialWithoutContentRangeIsFlagged) {
  Response resp = single_206(0, 4, 100, "hello");
  resp.headers.remove("Content-Range");
  const ResponseValidator v;
  EXPECT_TRUE(v.validate(resp, ranges("bytes=0-4"))
                  .has(ValidationCheck::kStatusRangeAgreement));
}

TEST(ResponseValidator, FullResponseWithContentRangeIsFlagged) {
  Response resp = full_200("hello");
  resp.headers.add("Content-Range", "bytes 0-4/5");
  const ResponseValidator v;
  EXPECT_TRUE(v.validate(resp, std::nullopt)
                  .has(ValidationCheck::kStatusRangeAgreement));
}

TEST(ResponseValidator, UnsolicitedPartialIsFlagged) {
  const ResponseValidator v;
  EXPECT_TRUE(v.validate(single_206(0, 4, 100, "hello"), std::nullopt)
                  .has(ValidationCheck::kStatusRangeAgreement));
}

TEST(ResponseValidator, OutOfBoundsContentRangeIsFlagged) {
  // "bytes 100-1099/100": both endpoints past the declared total.
  const ResponseValidator v;
  Response resp = single_206(100, 1099, 100, std::string(1000, 'x'));
  EXPECT_TRUE(v.validate(resp, ranges("bytes=0-999"))
                  .has(ValidationCheck::kContentRangeBounds));
}

TEST(ResponseValidator, ContentRangeBodyLengthMismatchIsFlagged) {
  const ResponseValidator v;
  // Range claims 5 bytes, body carries 3.
  Response resp = single_206(0, 4, 100, "abc");
  resp.headers.set("Content-Length", "3");
  EXPECT_TRUE(v.validate(resp, ranges("bytes=0-4"))
                  .has(ValidationCheck::kContentRangeBounds));
}

TEST(ResponseValidator, MultipartWithIllegalBoundaryIsFatal) {
  Response resp;
  resp.status = kPartialContent;
  resp.headers.add("Content-Type",
                   "multipart/byteranges; boundary=bad{boundary}");
  resp.headers.add("Content-Length", "5");
  resp.body = Body::literal("xxxxx");
  const ResponseValidator v;
  const auto report = v.validate(resp, ranges("bytes=0-1,3-4"));
  EXPECT_TRUE(report.has(ValidationCheck::kMultipartFraming));
  EXPECT_TRUE(report.any_fatal());
}

TEST(ResponseValidator, MultipartBodyNotFramedWithBoundaryIsFatal) {
  Response resp;
  resp.status = kPartialContent;
  resp.headers.add("Content-Type", multipart_content_type("DECLARED"));
  resp.headers.add("Content-Length", "9");
  resp.body = Body::literal("--OTHER\r\n");
  const ResponseValidator v;
  EXPECT_TRUE(v.validate(resp, ranges("bytes=0-1,3-4"))
                  .has(ValidationCheck::kMultipartFraming));
}

TEST(ResponseValidator, MultipartPartLengthWrapIsFatal) {
  // A Byzantine upstream claiming a 2^64 - 2 byte part must not slip past
  // the framing check through an overflowing bounds test.
  const std::string body =
      "--B\r\nContent-Range: bytes 0-18446744073709551613/"
      "18446744073709551614\r\n\r\nXY\r\n--B--\r\n";
  Response resp;
  resp.status = kPartialContent;
  resp.headers.add("Content-Type", multipart_content_type("B"));
  resp.headers.add("Content-Length", std::to_string(body.size()));
  resp.body = Body::literal(body);
  const ResponseValidator v;
  const auto report = v.validate(resp, ranges("bytes=0-1,3-4"));
  EXPECT_TRUE(report.has(ValidationCheck::kMultipartFraming)) << report.summary();
  EXPECT_TRUE(report.any_fatal());
}

TEST(ResponseValidator, MultipartExtraPartsAreFlagged) {
  const Body entity = Body::literal(std::string(100, 'a'));
  // Four parts where the client asked for two ranges.
  const std::vector<ResolvedRange> parts = {{0, 4}, {0, 4}, {0, 4}, {10, 19}};
  Body body = build_multipart_byteranges(entity, parts, 100, "text/plain",
                                         "BOUNDARY");
  Response resp;
  resp.status = kPartialContent;
  resp.headers.add("Content-Length", std::to_string(body.size()));
  resp.headers.add("Content-Type", multipart_content_type("BOUNDARY"));
  resp.body = std::move(body);
  const ResponseValidator v;
  const auto report = v.validate(resp, ranges("bytes=0-4,10-19"));
  EXPECT_TRUE(report.has(ValidationCheck::kMultipartPartCount));
  EXPECT_FALSE(report.any_fatal());
}

TEST(ResponseValidator, MultipartInconsistentTotalsAreFlagged) {
  // Two parts declaring different representation sizes.
  std::string body;
  body += "--B\r\nContent-Range: bytes 0-1/100\r\n\r\nab\r\n";
  body += "--B\r\nContent-Range: bytes 0-1/999\r\n\r\nab\r\n";
  body += "--B--\r\n";
  Response resp;
  resp.status = kPartialContent;
  resp.headers.add("Content-Length", std::to_string(body.size()));
  resp.headers.add("Content-Type", multipart_content_type("B"));
  resp.body = Body::literal(std::move(body));
  const ResponseValidator v;
  EXPECT_TRUE(v.validate(resp, ranges("bytes=0-1,0-1"))
                  .has(ValidationCheck::kContentRangeBounds));
}

TEST(ResponseValidator, BodyBudgetRefusesBeforeOtherChecks) {
  const ResponseValidator v({/*max_body_bytes=*/16, /*max_multipart_bytes=*/0});
  Response resp = full_200(std::string(64, 'x'));
  const auto report = v.validate(resp, std::nullopt);
  ASSERT_EQ(report.violations.size(), 1u);  // nothing else runs past budget
  EXPECT_TRUE(report.has(ValidationCheck::kBodyBudget));
  EXPECT_TRUE(report.any_fatal());
}

TEST(ResponseValidator, MultipartBudgetIsEnforced) {
  const Body entity = Body::literal(std::string(100, 'a'));
  const std::vector<ResolvedRange> parts = {{0, 99}, {0, 99}};
  Body body = build_multipart_byteranges(entity, parts, 100, "text/plain",
                                         "BOUNDARY");
  Response resp;
  resp.status = kPartialContent;
  resp.headers.add("Content-Length", std::to_string(body.size()));
  resp.headers.add("Content-Type", multipart_content_type("BOUNDARY"));
  resp.body = std::move(body);
  const ResponseValidator v({/*max_body_bytes=*/0, /*max_multipart_bytes=*/64});
  const auto report = v.validate(resp, ranges("bytes=0-99,0-99"));
  EXPECT_TRUE(report.has(ValidationCheck::kMultipartBudget));
  EXPECT_TRUE(report.any_fatal());
}

TEST(ResponseValidator, SummaryJoinsCheckNames) {
  Response resp = full_200("hello");
  resp.headers.set("Content-Length", "4096");
  resp.headers.add("Content-Range", "bytes 0-4/5");
  const ResponseValidator v;
  const auto report = v.validate(resp, std::nullopt);
  EXPECT_EQ(report.summary(), "content-length-mismatch,status-range-agreement");
}

TEST(ResponseValidator, CheckNamesAreStableAndDistinct) {
  for (std::size_t i = 0; i < kValidationCheckCount; ++i) {
    for (std::size_t j = i + 1; j < kValidationCheckCount; ++j) {
      EXPECT_NE(validation_check_name(static_cast<ValidationCheck>(i)),
                validation_check_name(static_cast<ValidationCheck>(j)));
    }
  }
  EXPECT_EQ(validation_check_name(ValidationCheck::kChunkedFraming),
            "chunked-framing");
}

}  // namespace
}  // namespace rangeamp::http
