// Invariant suite for the Byzantine-origin hardening layer: fixed-seed
// chaos cascades against MaliciousOrigin, asserting the same global
// invariants the bench_byzantine_origin harness checks --
//
//   I1  byte conservation per hop (tracer wire-span sums == recorder totals),
//   I2  no validator-flagged response ever enters a cache (strict/lenient),
//   I3  strict-mode client bytes bounded by the client's own range selections
//       plus a fixed per-response header allowance,
//
// plus targeted end-to-end checks for individual malicious behaviours
// (cache poisoning in off mode, its suppression under conformance, budget
// overflows answered 502).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/rangeamp.h"
#include "obs/trace.h"
#include "origin/malicious_origin.h"

namespace rangeamp {
namespace {

constexpr std::uint64_t kFileSize = 256 * 1024;
constexpr std::string_view kPath = "/asset.bin";
constexpr std::uint64_t kSeed = 0xFEED5EED;
constexpr std::uint64_t kHeaderAllowance = 8 * 1024;

cdn::ConformancePolicy conformance(cdn::ConformanceMode mode) {
  cdn::ConformancePolicy cp;
  cp.mode = mode;
  cp.max_body_bytes = 1ull * 1024 * 1024;
  cp.max_multipart_assembly_bytes = 1ull * 1024 * 1024;
  return cp;
}

origin::MaliciousOriginConfig malicious_config(std::uint64_t seed) {
  origin::MaliciousOriginConfig cfg;
  cfg.seed = seed;
  cfg.chunked_stream_bytes = 2ull * 1024 * 1024;  // over the body budget
  return cfg;
}

int poisoned_entries(const cdn::Cache& cache, const std::string& honest) {
  int poisoned = 0;
  cache.for_each([&](const std::string&, const cdn::CachedEntity& entry) {
    if (entry.content_type == "#negative") return;
    if (entry.entity.empty() && !entry.vary.empty()) return;
    if (entry.entity.size() != honest.size() ||
        entry.entity.materialize() != honest) {
      ++poisoned;
    }
  });
  return poisoned;
}

struct ChaosOutcome {
  std::uint64_t requested_bytes = 0;
  std::uint64_t client_response_bytes = 0;
  int requests = 0;
  int poisoned = 0;
  cdn::ValidationStats stats;
  bool bytes_conserved = true;
};

// Single-CDN chaos run: Akamai profile (Deletion) over MaliciousOrigin.
ChaosOutcome run_chaos(cdn::ConformanceMode mode) {
  origin::MaliciousOrigin mal(malicious_config(kSeed));
  mal.resources().add_synthetic(std::string{kPath}, kFileSize);

  cdn::VendorProfile profile = cdn::make_profile(cdn::Vendor::kAkamai);
  profile.traits.conformance = conformance(mode);
  cdn::CdnNode cdn(std::move(profile), mal, "cdn-origin");

  net::TrafficRecorder client_traffic("client-cdn");
  net::Wire client_wire(client_traffic, cdn);

  obs::Tracer tracer;
  client_wire.set_tracer(&tracer);
  cdn.set_tracer(&tracer);

  http::Rng rng(kSeed ^ 0xABCD);
  ChaosOutcome out;
  out.requests = 32;
  for (int i = 0; i < out.requests; ++i) {
    auto request = http::make_get(std::string{core::kDefaultHost},
                                  std::string{kPath} + "?cb=" + std::to_string(i));
    const std::uint64_t first = rng.below(kFileSize);
    const std::uint64_t last =
        std::min<std::uint64_t>(kFileSize - 1, first + rng.below(512));
    request.headers.add("Range", "bytes=" + std::to_string(first) + "-" +
                                     std::to_string(last));
    out.requested_bytes += last - first + 1;
    client_wire.transfer(request);
  }

  for (const net::TrafficRecorder* rec :
       {&client_traffic, &cdn.upstream_traffic()}) {
    const net::TrafficTotals traced = tracer.segment_totals(rec->segment());
    if (traced.request_bytes != rec->totals().request_bytes ||
        traced.response_bytes != rec->totals().response_bytes) {
      out.bytes_conserved = false;
    }
  }
  out.client_response_bytes = client_traffic.response_bytes();
  out.stats = cdn.validation_stats();
  const std::string honest = mal.resources().find(kPath)->entity.materialize();
  out.poisoned = poisoned_entries(cdn.cache(), honest);
  return out;
}

TEST(ByzantineInvariants, BytesConservedInEveryMode) {
  for (const auto mode :
       {cdn::ConformanceMode::kOff, cdn::ConformanceMode::kLenient,
        cdn::ConformanceMode::kStrict}) {
    EXPECT_TRUE(run_chaos(mode).bytes_conserved)
        << cdn::conformance_mode_name(mode);
  }
}

TEST(ByzantineInvariants, OffModePermitsCachePoisoning) {
  // The baseline the hardening exists for: at least one poisoned entity
  // survives in cache when validation is off.
  const ChaosOutcome off = run_chaos(cdn::ConformanceMode::kOff);
  EXPECT_GT(off.poisoned, 0);
  EXPECT_EQ(off.stats.upstream_responses_validated, 0u);
}

TEST(ByzantineInvariants, ConformanceEliminatesCachePoisoning) {
  for (const auto mode :
       {cdn::ConformanceMode::kLenient, cdn::ConformanceMode::kStrict}) {
    const ChaosOutcome hardened = run_chaos(mode);
    EXPECT_EQ(hardened.poisoned, 0) << cdn::conformance_mode_name(mode);
    EXPECT_GT(hardened.stats.violations, 0u);
  }
}

TEST(ByzantineInvariants, StrictModeBoundsClientBytes) {
  const ChaosOutcome strict = run_chaos(cdn::ConformanceMode::kStrict);
  const std::uint64_t bound =
      strict.requested_bytes +
      static_cast<std::uint64_t>(strict.requests) * kHeaderAllowance;
  EXPECT_LE(strict.client_response_bytes, bound);
  EXPECT_EQ(strict.stats.passed_uncached, 0u);  // strict never passes a lie
}

TEST(ByzantineInvariants, OffModeIsByteIdenticalToSeedBehaviour) {
  // An honest origin behind a conformance-off node must produce exactly the
  // bytes a pre-hardening node produced: the validator must not run at all.
  auto run_bytes = [](cdn::ConformanceMode mode) {
    origin::MaliciousOriginConfig cfg = malicious_config(kSeed);
    cfg.rotation = {origin::MaliciousBehavior::kHonest};
    origin::MaliciousOrigin mal(cfg);
    mal.resources().add_synthetic(std::string{kPath}, kFileSize);
    cdn::VendorProfile profile = cdn::make_profile(cdn::Vendor::kAkamai);
    profile.traits.conformance = conformance(mode);
    cdn::CdnNode cdn(std::move(profile), mal, "cdn-origin");
    net::TrafficRecorder client_traffic("client-cdn");
    net::Wire client_wire(client_traffic, cdn);
    auto request =
        http::make_get(std::string{core::kDefaultHost}, std::string{kPath});
    request.headers.add("Range", "bytes=0-0");
    client_wire.transfer(request);
    return client_traffic.response_bytes();
  };
  EXPECT_EQ(run_bytes(cdn::ConformanceMode::kOff),
            run_bytes(cdn::ConformanceMode::kStrict));
}

// ---------------------------------------------------------------------------
// Targeted behaviour-level checks.
// ---------------------------------------------------------------------------

struct PinnedBed {
  origin::MaliciousOrigin mal;
  cdn::CdnNode cdn;
  net::TrafficRecorder client_traffic{"client-cdn"};
  net::Wire client_wire;

  PinnedBed(origin::MaliciousBehavior behavior, cdn::ConformanceMode mode)
      : mal(malicious_config(kSeed)),
        cdn(make_node_profile(mode), mal, "cdn-origin"),
        client_wire(client_traffic, cdn) {
    mal.resources().add_synthetic(std::string{kPath}, kFileSize);
    mal.set_behavior(behavior);
  }

  static cdn::VendorProfile make_node_profile(cdn::ConformanceMode mode) {
    cdn::VendorProfile profile = cdn::make_profile(cdn::Vendor::kAkamai);
    profile.traits.conformance = conformance(mode);
    return profile;
  }

  http::Response get(const std::string& target) {
    auto request = http::make_get(std::string{core::kDefaultHost}, target);
    request.headers.add("Range", "bytes=0-0");
    return client_wire.transfer(request);
  }
};

TEST(ByzantineBehaviors, DuplicateContentLengthPoisonsOffModeCache) {
  PinnedBed bed(origin::MaliciousBehavior::kDuplicateContentLength,
                cdn::ConformanceMode::kOff);
  bed.get(std::string{kPath});
  const std::string honest =
      bed.mal.resources().find(kPath)->entity.materialize();
  // The garbage-tail entity slipped past the legacy Content-Length guard.
  EXPECT_EQ(poisoned_entries(bed.cdn.cache(), honest), 1);
}

TEST(ByzantineBehaviors, StrictModeRejectsDuplicateContentLength) {
  PinnedBed bed(origin::MaliciousBehavior::kDuplicateContentLength,
                cdn::ConformanceMode::kStrict);
  const auto response = bed.get(std::string{kPath});
  EXPECT_EQ(response.status, http::kBadGateway);
  EXPECT_EQ(bed.cdn.cache().size(), 0u);
  EXPECT_EQ(bed.cdn.validation_stats().rejected_502, 1u);
}

TEST(ByzantineBehaviors, LenientModeNeverCachesSoftLiars) {
  // status-range-mismatch is soft: lenient relays it but must not cache.
  PinnedBed bed(origin::MaliciousBehavior::kStatusRangeMismatch,
                cdn::ConformanceMode::kLenient);
  bed.get(std::string{kPath});
  EXPECT_EQ(bed.cdn.cache().size(), 0u);
  EXPECT_EQ(bed.cdn.validation_stats().passed_uncached, 1u);
}

TEST(ByzantineBehaviors, BodyBudgetOverflowIsAnswered502) {
  PinnedBed bed(origin::MaliciousBehavior::kUnboundedChunked,
                cdn::ConformanceMode::kStrict);
  const auto response = bed.get(std::string{kPath});
  EXPECT_EQ(response.status, http::kBadGateway);
  EXPECT_GE(bed.cdn.validation_stats().budget_overflows, 1u);
}

TEST(ByzantineBehaviors, HonestTrafficSurvivesStrictMode) {
  PinnedBed bed(origin::MaliciousBehavior::kHonest,
                cdn::ConformanceMode::kStrict);
  const auto response = bed.get(std::string{kPath});
  EXPECT_EQ(response.status, http::kPartialContent);
  EXPECT_EQ(bed.cdn.validation_stats().violations, 0u);
  EXPECT_EQ(bed.cdn.cache().size(), 1u);
}

TEST(ByzantineBehaviors, ShortSliceIsNeitherCachedNorServed) {
  // Slicing over a short-body origin: a 206 slice carrying half the bytes
  // its Content-Range names.  Kept, it would later answer multipart parts
  // that promise bytes they do not carry.
  origin::MaliciousOrigin mal(malicious_config(kSeed));
  mal.resources().add_synthetic("/s.bin", 4096);
  mal.set_behavior(origin::MaliciousBehavior::kShortBody);
  cdn::VendorProfile profile = cdn::make_profile(cdn::Vendor::kAkamai);
  profile.logic = std::make_unique<cdn::SliceLogic>(1024);
  cdn::CdnNode node(std::move(profile), mal, "cdn-origin");
  net::TrafficRecorder client_traffic("client-cdn");
  net::Wire client_wire(client_traffic, node);
  const auto get = [&](const std::string& target, const std::string& range) {
    auto request = http::make_get(std::string{core::kDefaultHost}, target);
    request.headers.add("Range", range);
    return client_wire.transfer(request);
  };

  EXPECT_EQ(get("/s.bin?q=1", "bytes=0-99,300-399").status, http::kBadGateway);

  // Honest from here on: the next answer must come from a fresh slice.
  mal.set_behavior(origin::MaliciousBehavior::kHonest);
  const std::uint64_t fetches = node.upstream_traffic().exchange_count();
  const http::Response answer = get("/s.bin?q=2", "bytes=0-9,600-699");
  ASSERT_EQ(answer.status, http::kPartialContent);
  EXPECT_GT(node.upstream_traffic().exchange_count(), fetches);
  const auto boundary =
      http::boundary_from_content_type(answer.headers.get_or("Content-Type", ""));
  ASSERT_TRUE(boundary);
  const auto parts =
      http::parse_multipart_byteranges(answer.body.materialize(), *boundary);
  ASSERT_TRUE(parts);
  ASSERT_EQ(parts->size(), 2u);
  const std::string entity = mal.resources().find("/s.bin")->entity.materialize();
  EXPECT_EQ((*parts)[0].payload.materialize(), entity.substr(0, 10));
  EXPECT_EQ((*parts)[1].payload.materialize(), entity.substr(600, 100));
}

// Answers each ranged request with the first half of the range asked for,
// under a Content-Range that says so: a consistent answer, but short.
class HalfRangeOrigin final : public net::HttpHandler {
 public:
  http::Response handle(const http::Request& request) override {
    http::Response response = origin.handle(request);
    const auto cr =
        http::parse_content_range(response.headers.get_or("Content-Range", ""));
    if (response.status != http::kPartialContent || !cr) return response;
    const std::uint64_t half = (cr->range.length() + 1) / 2;
    response.body = response.body.slice(0, half);
    response.headers.set(
        "Content-Range",
        http::content_range({cr->range.first, cr->range.first + half - 1},
                            cr->resource_size));
    response.headers.set("Content-Length", std::to_string(half));
    return response;
  }

  origin::OriginServer origin;
};

TEST(ByzantineBehaviors, SliceShortOfAPartsBytesIsAnswered502) {
  HalfRangeOrigin upstream;
  upstream.origin.resources().add_synthetic("/s.bin", 4096);
  cdn::VendorProfile profile = cdn::make_profile(cdn::Vendor::kAkamai);
  profile.logic = std::make_unique<cdn::SliceLogic>(1024);
  cdn::CdnNode node(std::move(profile), upstream, "cdn-origin");
  net::TrafficRecorder client_traffic("client-cdn");
  net::Wire client_wire(client_traffic, node);
  const auto get = [&](const std::string& range) {
    auto request = http::make_get(std::string{core::kDefaultHost}, "/s.bin");
    request.headers.add("Range", range);
    return client_wire.transfer(request);
  };

  // Slice 0 holds bytes 0-511 only; 600-699 is not there to serve.
  EXPECT_EQ(get("bytes=0-9,600-699").status, http::kBadGateway);

  // Parts inside the bytes the slice holds are still answered in full.
  const http::Response answer = get("bytes=0-9,300-399");
  ASSERT_EQ(answer.status, http::kPartialContent);
  const auto boundary =
      http::boundary_from_content_type(answer.headers.get_or("Content-Type", ""));
  ASSERT_TRUE(boundary);
  const auto parts =
      http::parse_multipart_byteranges(answer.body.materialize(), *boundary);
  ASSERT_TRUE(parts);
  ASSERT_EQ(parts->size(), 2u);
  const std::string entity =
      upstream.origin.resources().find("/s.bin")->entity.materialize();
  EXPECT_EQ((*parts)[0].payload.materialize(), entity.substr(0, 10));
  EXPECT_EQ((*parts)[1].payload.materialize(), entity.substr(300, 100));
}

TEST(ByzantineBehaviors, ServedLogRecordsRotation) {
  origin::MaliciousOrigin mal(malicious_config(kSeed));
  mal.resources().add_synthetic(std::string{kPath}, kFileSize);
  for (int i = 0; i < 8; ++i) {
    mal.handle(http::make_get(std::string{core::kDefaultHost},
                              std::string{kPath}));
  }
  EXPECT_EQ(mal.served_log().size(), 8u);
}

}  // namespace
}  // namespace rangeamp
