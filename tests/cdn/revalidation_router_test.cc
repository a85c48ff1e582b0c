// Cache TTL / conditional revalidation and host-based routing.
#include <gtest/gtest.h>

#include "cdn/logic.h"
#include "core/testbed.h"
#include "http/chunked.h"
#include "net/handler.h"

namespace rangeamp::cdn {
namespace {

using http::Request;
using http::Response;

// ---------------------------------------------------------------------------
// Origin conditional GET
// ---------------------------------------------------------------------------

TEST(OriginConditional, IfNoneMatchHits304) {
  origin::OriginServer origin;
  origin.resources().add_synthetic("/x.bin", 4096);
  const auto etag = origin.resources().find("/x.bin")->etag;

  Request req = http::make_get("h.example", "/x.bin");
  req.headers.add("If-None-Match", etag);
  const Response resp = origin.handle(req);
  EXPECT_EQ(resp.status, 304);
  EXPECT_EQ(resp.body.size(), 0u);
  EXPECT_EQ(resp.headers.get("ETag"), etag);

  Request star = http::make_get("h.example", "/x.bin");
  star.headers.add("If-None-Match", "*");
  EXPECT_EQ(origin.handle(star).status, 304);

  Request stale = http::make_get("h.example", "/x.bin");
  stale.headers.add("If-None-Match", "\"other\"");
  EXPECT_EQ(origin.handle(stale).status, 200);
}

// ---------------------------------------------------------------------------
// Node revalidation
// ---------------------------------------------------------------------------

struct RevalidationBed {
  explicit RevalidationBed(double ttl) {
    VendorProfile profile;
    profile.traits.name = "TtlCdn";
    profile.traits.cache_ttl_seconds = ttl;
    profile.logic = std::make_unique<DeletionLogic>();
    bed = std::make_unique<core::SingleCdnTestbed>(std::move(profile));
    bed->origin().resources().add_synthetic("/t.bin", 8192);
    bed->cdn().set_clock([this] { return now; });
  }

  Response get() {
    return bed->send(http::make_get("h.example", "/t.bin"));
  }

  double now = 0;
  std::unique_ptr<core::SingleCdnTestbed> bed;
};

TEST(Revalidation, FreshEntryServedWithoutOriginContact) {
  RevalidationBed rb(60);
  rb.get();
  const auto after_fill = rb.bed->origin_traffic().response_bytes();
  rb.now = 30;  // still fresh
  rb.get();
  EXPECT_EQ(rb.bed->origin_traffic().response_bytes(), after_fill);
}

TEST(Revalidation, StaleEntryRevalidatesWith304AndServesFromCache) {
  RevalidationBed rb(60);
  const Response first = rb.get();
  const auto after_fill = rb.bed->origin_traffic().response_bytes();
  rb.now = 61;  // expired
  const Response second = rb.get();
  EXPECT_EQ(second.status, 200);
  EXPECT_EQ(second.body, first.body);
  // The origin saw a conditional GET and answered 304: tiny traffic delta.
  const auto revalidation_cost =
      rb.bed->origin_traffic().response_bytes() - after_fill;
  EXPECT_GT(revalidation_cost, 0u);
  EXPECT_LT(revalidation_cost, 400u);
  ASSERT_EQ(rb.bed->origin().request_log().size(), 2u);
  EXPECT_TRUE(rb.bed->origin().request_log()[1].headers.has("If-None-Match"));
  // And the entry is fresh again.
  rb.now = 100;
  rb.get();
  EXPECT_EQ(rb.bed->origin().request_log().size(), 2u);
}

TEST(Revalidation, ChangedEntityIsRefetched) {
  RevalidationBed rb(60);
  rb.get();
  // The origin's content changes (same path, new bytes & etag).
  rb.bed->origin().resources().add_synthetic("/t.bin", 9999);
  rb.now = 61;
  const Response refreshed = rb.get();
  EXPECT_EQ(refreshed.status, 200);
  EXPECT_EQ(refreshed.body.size(), 9999u);
}

TEST(Revalidation, NoClockMeansNoExpiry) {
  VendorProfile profile;
  profile.traits.name = "NoClock";
  profile.traits.cache_ttl_seconds = 1;  // would expire instantly...
  profile.logic = std::make_unique<DeletionLogic>();
  core::SingleCdnTestbed bed(std::move(profile));  // ...but no clock is set
  bed.origin().resources().add_synthetic("/t.bin", 1024);
  bed.send(http::make_get("h.example", "/t.bin"));
  bed.send(http::make_get("h.example", "/t.bin"));
  EXPECT_EQ(bed.origin().request_log().size(), 1u);
}

// ---------------------------------------------------------------------------
// If-Modified-Since (origin) and Vary (node cache variants)
// ---------------------------------------------------------------------------

TEST(OriginConditional, IfModifiedSinceComparesInstants) {
  origin::OriginServer origin;
  origin.resources().add_synthetic("/x.bin", 1024);
  // The resource's Last-Modified is Mon, 06 Jul 2020 11:22:33 GMT.
  Request later = http::make_get("h.example", "/x.bin");
  later.headers.add("If-Modified-Since", "Tue, 07 Jul 2020 03:14:15 GMT");
  EXPECT_EQ(origin.handle(later).status, 304);

  Request earlier = http::make_get("h.example", "/x.bin");
  earlier.headers.add("If-Modified-Since", "Wed, 01 Jul 2020 00:00:00 GMT");
  EXPECT_EQ(origin.handle(earlier).status, 200);

  // Malformed dates are ignored (full response).
  Request garbage = http::make_get("h.example", "/x.bin");
  garbage.headers.add("If-Modified-Since", "yesterday-ish");
  EXPECT_EQ(origin.handle(garbage).status, 200);
}

TEST(VaryCache, VariantsAreCachedSeparately) {
  origin::OriginConfig config;
  config.extra_headers = {{"Vary", "Accept-Encoding"}};
  core::SingleCdnTestbed bed(make_profile(Vendor::kFastly), config);
  bed.origin().resources().add_synthetic("/v.bin", 2048);

  const auto request_with = [&](std::string encoding) {
    Request req = http::make_get("h.example", "/v.bin");
    if (!encoding.empty()) req.headers.add("Accept-Encoding", std::move(encoding));
    return req;
  };

  bed.send(request_with("gzip"));
  EXPECT_EQ(bed.origin().request_log().size(), 1u);
  // A different Accept-Encoding is a different variant -> second miss.
  bed.send(request_with("br"));
  EXPECT_EQ(bed.origin().request_log().size(), 2u);
  // Repeats of either variant hit the cache.
  bed.send(request_with("gzip"));
  bed.send(request_with("br"));
  EXPECT_EQ(bed.origin().request_log().size(), 2u);
  // Absent header is its own variant.
  bed.send(request_with(""));
  EXPECT_EQ(bed.origin().request_log().size(), 3u);
}

// RFC 9111 section 4.1: a stored response whose Vary contains "*" always
// fails to match, so every request for it goes to the origin.
TEST(VaryCache, StarNeverMatches) {
  origin::OriginConfig config;
  config.extra_headers = {{"Vary", "*"}};
  core::SingleCdnTestbed bed(make_profile(Vendor::kFastly), config);
  bed.origin().resources().add_synthetic("/star.bin", 2048);
  EXPECT_EQ(bed.send(http::make_get("h.example", "/star.bin")).status, 200);
  EXPECT_EQ(bed.send(http::make_get("h.example", "/star.bin")).status, 200);
  EXPECT_EQ(bed.origin().request_log().size(), 2u);

  // "*" among other members, after optional whitespace, still never matches.
  bed.origin().config().extra_headers = {{"Vary", "Accept-Encoding,\t*"}};
  bed.origin().resources().add_synthetic("/star-list.bin", 2048);
  bed.send(http::make_get("h.example", "/star-list.bin"));
  bed.send(http::make_get("h.example", "/star-list.bin"));
  EXPECT_EQ(bed.origin().request_log().size(), 4u);
}

// RFC 9110 section 5.6.1: OWS around a list member is SP or HTAB, so a
// member after a tab names its field like any other.
TEST(VaryCache, MembersTrimTabs) {
  origin::OriginConfig config;
  config.extra_headers = {{"Vary", "Accept-Encoding,\tUser-Agent"}};
  core::SingleCdnTestbed bed(make_profile(Vendor::kFastly), config);
  bed.origin().resources().add_synthetic("/v.bin", 2048);

  const auto request_from = [](const char* agent) {
    Request req = http::make_get("h.example", "/v.bin");
    req.headers.add("Accept-Encoding", "gzip");
    req.headers.add("User-Agent", agent);
    return req;
  };
  bed.send(request_from("curl/8.0"));
  bed.send(request_from("Wget/1.21"));
  EXPECT_EQ(bed.origin().request_log().size(), 2u);
  bed.send(request_from("curl/8.0"));  // a stored variant
  EXPECT_EQ(bed.origin().request_log().size(), 2u);
}

TEST(VaryCache, NonVaryingResourcesShareOneEntry) {
  core::SingleCdnTestbed bed(make_profile(Vendor::kFastly));
  bed.origin().resources().add_synthetic("/plain.bin", 2048);
  Request a = http::make_get("h.example", "/plain.bin");
  a.headers.add("Accept-Encoding", "gzip");
  Request b = http::make_get("h.example", "/plain.bin");
  b.headers.add("Accept-Encoding", "br");
  bed.send(a);
  bed.send(b);
  EXPECT_EQ(bed.origin().request_log().size(), 1u);
}

// ---------------------------------------------------------------------------
// Host routing
// ---------------------------------------------------------------------------

// Two customer origins behind one upstream, picked by the Host header.
class TwoTenantOrigin final : public net::HttpHandler {
 public:
  TwoTenantOrigin(net::HttpHandler& a, net::HttpHandler& b) : a_(a), b_(b) {}

  Response handle(const Request& request) override {
    return request.headers.get_or("Host", "") == "a.example" ? a_.handle(request)
                                                             : b_.handle(request);
  }

 private:
  net::HttpHandler& a_;
  net::HttpHandler& b_;
};

TEST(HostRouter, MultiTenantCdnKeepsCachesIsolated) {
  // One CDN node, two customer origins: the cache key includes the Host, so
  // tenants never see each other's bytes.
  origin::OriginServer site_a, site_b;
  site_a.resources().add_literal("/page", "AAAA", "text/plain");
  site_b.resources().add_literal("/page", "BBBB", "text/plain");
  TwoTenantOrigin router(site_a, site_b);

  CdnNode node(make_profile(Vendor::kFastly), router);
  EXPECT_EQ(node.handle(http::make_get("a.example", "/page")).body.materialize(),
            "AAAA");
  EXPECT_EQ(node.handle(http::make_get("b.example", "/page")).body.materialize(),
            "BBBB");
  // Both now cached; repeat hits stay correct per tenant.
  EXPECT_EQ(node.handle(http::make_get("a.example", "/page")).body.materialize(),
            "AAAA");
  EXPECT_EQ(site_a.request_log().size(), 1u);
  EXPECT_EQ(site_b.request_log().size(), 1u);
}

// ---------------------------------------------------------------------------
// Chunked origin through a CDN
// ---------------------------------------------------------------------------

TEST(ChunkedOrigin, CdnDechunksAndServesRanges) {
  origin::OriginConfig config;
  config.chunked_full_responses = true;
  core::SingleCdnTestbed bed(make_profile(Vendor::kAkamai), config);
  bed.origin().resources().add_synthetic("/c.bin", 50000);
  const std::string entity =
      bed.origin().resources().find("/c.bin")->entity.materialize();

  // Deletion policy: the CDN pulls the chunked 200, de-frames it, caches the
  // entity and serves the requested range.
  http::Request request = http::make_get("h.example", "/c.bin");
  request.headers.add("Range", "bytes=100-199");
  const Response resp = bed.send(request);
  ASSERT_EQ(resp.status, 206);
  EXPECT_EQ(resp.body.materialize(), entity.substr(100, 100));
  // The origin-side traffic includes the chunk framing overhead.
  EXPECT_GT(bed.origin_traffic().response_bytes(),
            50000u + http::chunked_size(50000) - 50000u);
}

TEST(ChunkedOrigin, PlainGetRoundTrips) {
  origin::OriginConfig config;
  config.chunked_full_responses = true;
  core::SingleCdnTestbed bed(make_profile(Vendor::kCloudflare), config);
  bed.origin().resources().add_synthetic("/c.bin", 10000);
  const Response resp = bed.send(http::make_get("h.example", "/c.bin"));
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body.size(), 10000u);  // client gets the de-chunked entity
}

}  // namespace
}  // namespace rangeamp::cdn
