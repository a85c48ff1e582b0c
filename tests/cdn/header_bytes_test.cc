// Pins the exact header fields -- names, values and order, the trace pad's
// serial included -- of the messages the node's styling, serving and
// upstream-request builders emit.  These are the bytes every committed CSV
// was generated from, so any drift here moves wire bytes.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cdn/profiles.h"
#include "core/testbed.h"

namespace rangeamp::cdn {
namespace {

using Fields = std::vector<std::pair<std::string, std::string>>;

Fields fields_of(const http::Headers& headers) {
  Fields out;
  for (const auto& f : headers) out.emplace_back(f.name, f.value);
  return out;
}

// The calibration pad: a 16-digit hex serial, then 'x' up to `length`.
std::string pad(std::string_view serial, std::size_t length) {
  std::string value(length, 'x');
  value.replace(0, serial.size(), serial);
  return value;
}

constexpr std::string_view kDate = "Tue, 07 Jul 2020 03:14:16 GMT";
constexpr std::string_view kLastModified = "Mon, 06 Jul 2020 11:22:33 GMT";

// The SBR exchange as the Fig 6 / Fig 7 campaigns send it to cacheable
// Cloudflare: fresh cache-busting query, one-byte range.
TEST(HeaderBytesTest, CloudflareSbrPartialAndItsUpstreamRequest) {
  core::SingleCdnTestbed bed(make_profile(Vendor::kCloudflare));
  bed.origin().resources().add_synthetic("/target.bin", 64 * 1024);
  http::Request request =
      http::make_get(std::string{core::kDefaultHost}, "/target.bin?x=0");
  request.headers.add("Range", "bytes=0-0");
  const http::Response response = bed.send(request);

  EXPECT_EQ(response.status, 206);
  EXPECT_EQ(fields_of(response.headers),
            (Fields{{"Date", std::string{kDate}},
                    {"Server", "cloudflare"},
                    {"CF-RAY", "5aeb2d1f3c0004e1-FRA"},
                    {"CF-Cache-Status", "MISS"},
                    {"Expect-CT", "max-age=604800"},
                    {"Last-Modified", std::string{kLastModified}},
                    {"ETag", "\"a9d70-10000\""},
                    {"Content-Length", "1"},
                    {"Content-Range", "bytes 0-0/65536"},
                    {"Content-Type", "application/octet-stream"},
                    {"Accept-Ranges", "bytes"},
                    {"X-Edge-Trace", pad("0000000000000001", 451)}}));

  ASSERT_EQ(bed.origin().request_log().size(), 1u);
  const http::Request& upstream = bed.origin().request_log()[0];
  EXPECT_EQ(upstream.method, http::Method::GET);
  EXPECT_EQ(upstream.target, "/target.bin?x=0");
  EXPECT_EQ(fields_of(upstream.headers),
            (Fields{{"Host", std::string{core::kDefaultHost}},
                    {"CF-Connecting-IP", "198.51.100.28"},
                    {"CF-Ray", "5aeb2d1f3c0004e1-FRA"},
                    {"CF-Visitor", "{\"scheme\":\"https\"}"},
                    {"X-Forwarded-For", "198.51.100.28"},
                    {"X-Forwarded-Proto", "https"},
                    {"CDN-Loop", "cloudflare"},
                    {"X-Edge-Req-Trace", std::string(155, 'r')}}));
}

class AkamaiHitTest : public ::testing::Test {
 protected:
  AkamaiHitTest() : bed_(make_profile(Vendor::kAkamai)) {
    bed_.origin().resources().add_synthetic("/obj/1", 16 * 1024,
                                            "application/octet-stream");
    // The fill: serial 1.
    EXPECT_EQ(bed_.send(http::make_get("shop.example.com", "/obj/1")).status,
              200);
  }

  static Fields hit_fields(std::string length, const char* content_range,
                           std::string_view serial) {
    Fields out{{"Date", std::string{kDate}},
               {"Server", "AkamaiGHost"},
               {"Mime-Version", "1.0"},
               {"Last-Modified", std::string{kLastModified}},
               {"ETag", "\"b9efd7-4000\""},
               {"Content-Length", std::move(length)}};
    if (content_range != nullptr) out.emplace_back("Content-Range", content_range);
    out.emplace_back("Content-Type", "application/octet-stream");
    out.emplace_back("Accept-Ranges", "bytes");
    out.emplace_back("X-Edge-Trace", pad(serial, 296));
    return out;
  }

  core::SingleCdnTestbed bed_;
};

TEST_F(AkamaiHitTest, FullEntityHit) {
  const http::Response hit =
      bed_.send(http::make_get("shop.example.com", "/obj/1"));
  EXPECT_EQ(hit.status, 200);
  EXPECT_EQ(hit.body.size(), 16u * 1024);
  EXPECT_EQ(bed_.cdn().cache().hits(), 1u);
  EXPECT_EQ(fields_of(hit.headers),
            hit_fields("16384", nullptr, "0000000000000002"));
}

TEST_F(AkamaiHitTest, OneByteRangeHit) {
  http::Request request = http::make_get("shop.example.com", "/obj/1");
  request.headers.add("Range", "bytes=0-0");
  const http::Response hit = bed_.send(request);
  EXPECT_EQ(hit.status, 206);
  EXPECT_EQ(hit.body.size(), 1u);
  EXPECT_EQ(bed_.cdn().cache().hits(), 1u);
  EXPECT_EQ(fields_of(hit.headers),
            hit_fields("1", "bytes 0-0/16384", "0000000000000002"));
}

TEST_F(AkamaiHitTest, VendorErrorAndMultiDigitSerials) {
  const std::string note =
      "upstream failure: connection-reset after 1 attempt(s)";
  const http::Response error = bed_.cdn().error(502, note);
  EXPECT_EQ(error.status, 502);
  EXPECT_EQ(error.body.materialize(), note);
  EXPECT_EQ(fields_of(error.headers),
            (Fields{{"Date", std::string{kDate}},
                    {"Server", "AkamaiGHost"},
                    {"Mime-Version", "1.0"},
                    {"Content-Length", "53"},
                    {"Content-Type", "text/plain"},
                    {"Accept-Ranges", "bytes"},
                    {"X-Edge-Trace", pad("0000000000000002", 296)}}));

  // Serials are zero-padded lowercase hex ("%016llx").
  std::string last;
  for (int i = 0; i < 0x1ad; ++i) {
    last = std::string{bed_.cdn().error(502, note).headers.get_or(
        "X-Edge-Trace", "")};
  }
  EXPECT_EQ(last, pad("00000000000001af", 296));
}

}  // namespace
}  // namespace rangeamp::cdn
