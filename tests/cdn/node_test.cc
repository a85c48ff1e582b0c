#include "cdn/node.h"

#include <gtest/gtest.h>

#include "cdn/gossip.h"
#include "cdn/logic.h"
#include "cdn/profiles.h"
#include "core/testbed.h"
#include "http/multipart.h"
#include "http/serialize.h"
#include "obs/metrics.h"

namespace rangeamp::cdn {
namespace {

using http::Body;
using http::Request;
using http::Response;

// A minimal neutral vendor for exercising the node mechanics.
VendorProfile generic_profile(std::unique_ptr<VendorLogic> logic,
                              MultiRangeReplyPolicy reply =
                                  MultiRangeReplyPolicy::kHonorOverlapping) {
  VendorProfile profile;
  profile.traits.name = "TestCDN";
  profile.traits.response_identity_headers = {{"Server", "TestCDN"}};
  profile.traits.multipart_boundary = "test_boundary_123";
  profile.traits.multi_reply = reply;
  profile.logic = std::move(logic);
  return profile;
}

Request ranged(std::string target, std::string range) {
  Request req = http::make_get("site.example", std::move(target));
  if (!range.empty()) req.headers.add("Range", std::move(range));
  return req;
}

class NodeTest : public ::testing::Test {
 protected:
  core::SingleCdnTestbed make_bed(std::unique_ptr<VendorLogic> logic,
                                  MultiRangeReplyPolicy reply =
                                      MultiRangeReplyPolicy::kHonorOverlapping) {
    core::SingleCdnTestbed bed(generic_profile(std::move(logic), reply));
    bed.origin().resources().add_synthetic("/r.bin", 1000);
    return bed;
  }
};

// ---------------------------------------------------------------------------
// Deletion logic
// ---------------------------------------------------------------------------

TEST_F(NodeTest, DeletionFetchesFullEntityForTinyRange) {
  auto bed = make_bed(std::make_unique<DeletionLogic>());
  const Response resp = bed.send(ranged("/r.bin", "bytes=0-0"));
  EXPECT_EQ(resp.status, 206);
  EXPECT_EQ(resp.body.size(), 1u);
  // Origin saw no Range header and shipped the whole entity.
  ASSERT_EQ(bed.origin().request_log().size(), 1u);
  EXPECT_FALSE(bed.origin().request_log()[0].headers.has("Range"));
  EXPECT_GT(bed.origin_traffic().response_bytes(), 1000u);
}

TEST_F(NodeTest, DeletionCachesSoSecondRequestStaysLocal) {
  auto bed = make_bed(std::make_unique<DeletionLogic>());
  bed.send(ranged("/r.bin", "bytes=0-0"));
  const auto origin_after_first = bed.origin_traffic().response_bytes();
  const Response resp = bed.send(ranged("/r.bin", "bytes=5-9"));
  EXPECT_EQ(resp.status, 206);
  EXPECT_EQ(resp.body.size(), 5u);
  EXPECT_EQ(bed.origin_traffic().response_bytes(), origin_after_first);
  EXPECT_EQ(bed.cdn().cache().hits(), 1u);
}

TEST_F(NodeTest, RangeServedFromCacheMatchesOriginBytes) {
  auto bed = make_bed(std::make_unique<DeletionLogic>());
  const Response full = bed.send(ranged("/r.bin", ""));
  const Response part = bed.send(ranged("/r.bin", "bytes=100-199"));
  EXPECT_EQ(part.body.materialize(), full.body.materialize().substr(100, 100));
}

// ---------------------------------------------------------------------------
// Laziness logic
// ---------------------------------------------------------------------------

TEST_F(NodeTest, LazinessForwardsRangeUnchanged) {
  auto bed = make_bed(std::make_unique<LazinessLogic>());
  const Response resp = bed.send(ranged("/r.bin", "bytes=3-7"));
  EXPECT_EQ(resp.status, 206);
  EXPECT_EQ(resp.body.size(), 5u);
  ASSERT_EQ(bed.origin().request_log().size(), 1u);
  EXPECT_EQ(bed.origin().request_log()[0].headers.get("Range"), "bytes=3-7");
  // Origin only shipped the 5 bytes + headers: no amplification.
  EXPECT_LT(bed.origin_traffic().response_bytes(), 600u);
}

TEST_F(NodeTest, LazinessServesRangeFrom200WhenOriginIgnoresRanges) {
  origin::OriginConfig config;
  config.supports_ranges = false;
  core::SingleCdnTestbed bed(generic_profile(std::make_unique<LazinessLogic>()),
                             config);
  bed.origin().resources().add_synthetic("/r.bin", 1000);
  const Response resp = bed.send(ranged("/r.bin", "bytes=0-9"));
  // RFC 2616: a proxy that receives the entire entity returns just the range.
  EXPECT_EQ(resp.status, 206);
  EXPECT_EQ(resp.body.size(), 10u);
  // And the entity is now cached.
  EXPECT_EQ(bed.cdn().cache().size(), 1u);
}

TEST_F(NodeTest, LazinessRelayModePassesThe200Through) {
  origin::OriginConfig config;
  config.supports_ranges = false;
  core::SingleCdnTestbed bed(
      generic_profile(std::make_unique<LazinessLogic>(/*serve_range_on_200=*/false)),
      config);
  bed.origin().resources().add_synthetic("/r.bin", 1000);
  const Response resp = bed.send(ranged("/r.bin", "bytes=0-9"));
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body.size(), 1000u);
}

// ---------------------------------------------------------------------------
// Bounded expansion logic (the mitigation)
// ---------------------------------------------------------------------------

TEST_F(NodeTest, BoundedExpansionGrowsClosedRangeBySlack) {
  core::SingleCdnTestbed bed(
      generic_profile(std::make_unique<BoundedExpansionLogic>(100)));
  bed.origin().resources().add_synthetic("/r.bin", 1000);
  const Response resp = bed.send(ranged("/r.bin", "bytes=10-19"));
  EXPECT_EQ(resp.status, 206);
  EXPECT_EQ(resp.body.size(), 10u);
  ASSERT_EQ(bed.origin().request_log().size(), 1u);
  EXPECT_EQ(bed.origin().request_log()[0].headers.get("Range"), "bytes=10-119");
}

TEST_F(NodeTest, BoundedExpansionGrowsSuffix) {
  core::SingleCdnTestbed bed(
      generic_profile(std::make_unique<BoundedExpansionLogic>(100)));
  bed.origin().resources().add_synthetic("/r.bin", 1000);
  const Response resp = bed.send(ranged("/r.bin", "bytes=-5"));
  EXPECT_EQ(resp.status, 206);
  EXPECT_EQ(resp.body.size(), 5u);
  EXPECT_EQ(bed.origin().request_log()[0].headers.get("Range"), "bytes=-105");
}

TEST_F(NodeTest, BoundedExpansionCapsOriginExposure) {
  core::SingleCdnTestbed bed(
      generic_profile(std::make_unique<BoundedExpansionLogic>(8 * 1024)));
  bed.origin().resources().add_synthetic("/big.bin", 10u << 20);
  bed.send(ranged("/big.bin", "bytes=0-0"));
  // Origin sends ~8 KB, not 10 MB.
  EXPECT_LT(bed.origin_traffic().response_bytes(), 16 * 1024u);
}

std::size_t part_count(const Response& resp) {
  const auto ct = resp.headers.get("Content-Type");
  if (!ct) return 0;
  const auto boundary = http::boundary_from_content_type(*ct);
  if (!boundary) return resp.status == 206 ? 1 : 0;
  const auto parts =
      http::parse_multipart_byteranges(resp.body.materialize(), *boundary);
  return parts ? parts->size() : 0;
}

// ---------------------------------------------------------------------------
// Slice logic (G-Core's shipped fix)
// ---------------------------------------------------------------------------

TEST_F(NodeTest, SliceLogicCapsOriginExposurePerRequest) {
  core::SingleCdnTestbed bed(
      generic_profile(std::make_unique<SliceLogic>(1u << 20)));
  bed.origin().resources().add_synthetic("/big.bin", 25u << 20);
  const Response resp = bed.send(ranged("/big.bin?cb=1", "bytes=0-0"));
  EXPECT_EQ(resp.status, 206);
  EXPECT_EQ(resp.body.size(), 1u);
  // One 1 MiB slice, not 25 MB.
  EXPECT_GT(bed.origin_traffic().response_bytes(), 1u << 20);
  EXPECT_LT(bed.origin_traffic().response_bytes(), (1u << 20) + 2048);
  // The origin saw a slice-aligned range, never a naked request.
  EXPECT_EQ(bed.origin().request_log()[0].headers.get("Range"),
            "bytes=0-1048575");
}

TEST_F(NodeTest, SliceCacheSurvivesQueryRotation) {
  // The attacker's cache-busting query does not defeat the slice cache: the
  // slice key is the path.
  core::SingleCdnTestbed bed(
      generic_profile(std::make_unique<SliceLogic>(1u << 20)));
  bed.origin().resources().add_synthetic("/big.bin", 25u << 20);
  bed.send(ranged("/big.bin?cb=1", "bytes=0-0"));
  const auto after_first = bed.origin_traffic().response_bytes();
  bed.send(ranged("/big.bin?cb=2", "bytes=0-0"));
  bed.send(ranged("/big.bin?cb=3", "bytes=1-1"));
  EXPECT_EQ(bed.origin_traffic().response_bytes(), after_first);
}

TEST_F(NodeTest, SliceAssemblyServesCorrectBytesAcrossSliceBoundaries) {
  core::SingleCdnTestbed bed(
      generic_profile(std::make_unique<SliceLogic>(4096)));
  bed.origin().resources().add_synthetic("/f.bin", 64 * 1024);
  const std::string entity =
      bed.origin().resources().find("/f.bin")->entity.materialize();
  // A range spanning three 4 KB slices.
  const Response resp = bed.send(ranged("/f.bin", "bytes=5000-14999"));
  ASSERT_EQ(resp.status, 206);
  EXPECT_EQ(resp.body.materialize(), entity.substr(5000, 10000));
  // Slices 1..3 fetched (plus slice 0 for size discovery).
  EXPECT_LE(bed.origin().request_log().size(), 4u);
}

TEST_F(NodeTest, SliceLogicHandlesSuffixAndFullRequests) {
  core::SingleCdnTestbed bed(
      generic_profile(std::make_unique<SliceLogic>(4096)));
  bed.origin().resources().add_synthetic("/f.bin", 10000);
  const std::string entity =
      bed.origin().resources().find("/f.bin")->entity.materialize();
  const Response suffix = bed.send(ranged("/f.bin", "bytes=-100"));
  ASSERT_EQ(suffix.status, 206);
  EXPECT_EQ(suffix.body.materialize(), entity.substr(9900));
  const Response full = bed.send(ranged("/f.bin?plain=1", ""));
  ASSERT_EQ(full.status, 200);
  EXPECT_EQ(full.body.materialize(), entity);
  const Response bad = bed.send(ranged("/f.bin?x=2", "bytes=90000-90001"));
  EXPECT_EQ(bad.status, 416);
}

TEST_F(NodeTest, SliceLogicNeverFetchesGapsBetweenScatteredRanges) {
  // The bypass the auto-planner found in a naive implementation: a
  // "bytes=0-0,<far>-<far>" request must pull only the two intersecting
  // slices, never the covering span.
  core::SingleCdnTestbed bed(
      generic_profile(std::make_unique<SliceLogic>(1u << 20)));
  bed.origin().resources().add_synthetic("/big.bin", 10u << 20);
  const Response resp =
      bed.send(ranged("/big.bin", "bytes=0-0,9437184-9437184"));
  ASSERT_EQ(resp.status, 206);
  EXPECT_EQ(part_count(resp), 2u);
  // Two 1 MiB slices, not ten.
  EXPECT_LT(bed.origin_traffic().response_bytes(), (2u << 20) + 4096);
  // And the payloads are the right bytes.
  const std::string entity =
      bed.origin().resources().find("/big.bin")->entity.materialize();
  const auto boundary = http::boundary_from_content_type(
      std::string{*resp.headers.get("Content-Type")});
  const auto parts =
      http::parse_multipart_byteranges(resp.body.materialize(), *boundary);
  ASSERT_TRUE(parts);
  EXPECT_EQ((*parts)[0].payload.materialize(), entity.substr(0, 1));
  EXPECT_EQ((*parts)[1].payload.materialize(), entity.substr(9437184, 1));
}

TEST_F(NodeTest, SliceLogicCoalescesOverlappingObrSets) {
  // Slice serving merges overlaps: the OBR shape collapses to one part.
  core::SingleCdnTestbed bed(
      generic_profile(std::make_unique<SliceLogic>(4096),
                      MultiRangeReplyPolicy::kHonorOverlapping));
  bed.origin().resources().add_synthetic("/r.bin", 1000);
  const Response resp = bed.send(ranged("/r.bin", "bytes=0-,0-,0-,0-"));
  ASSERT_EQ(resp.status, 206);
  EXPECT_EQ(resp.body.size(), 1000u);  // one part, not four
  EXPECT_EQ(resp.headers.get("Content-Range"), "bytes 0-999/1000");
}

TEST_F(NodeTest, RespondAssembledSinglePartIsPlain206) {
  VendorProfile profile = generic_profile(std::make_unique<DeletionLogic>());
  core::SingleCdnTestbed bed(std::move(profile));
  bed.origin().resources().add_synthetic("/r.bin", 1000);
  auto& node = bed.cdn();
  const auto resp = node.respond_assembled(
      1000, "text/plain", "\"e\"", "",
      {{http::ResolvedRange{5, 9}, http::Body::literal("abcde")}});
  EXPECT_EQ(resp.status, 206);
  EXPECT_EQ(resp.headers.get("Content-Range"), "bytes 5-9/1000");
  EXPECT_EQ(resp.body.materialize(), "abcde");
  // Empty part list -> 416.
  EXPECT_EQ(node.respond_assembled(1000, "text/plain", "", "", {}).status, 416);
}

// ---------------------------------------------------------------------------
// Multipart framing, pinned byte for byte.  The goldens were recorded before
// the node's part loops moved into http::MultipartWriter.
// ---------------------------------------------------------------------------

constexpr std::string_view kAlphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";

TEST(MultipartGolden, AzureWindowAnswerCarriesItsPerPartFields) {
  // Azure is the one profile with extra per-part header fields.
  core::SingleCdnTestbed bed(make_profile(Vendor::kAzure));
  bed.origin().resources().add_literal("/a.txt", std::string{kAlphabet});
  const Response resp = bed.send(ranged("/a.txt", "bytes=0-3,2-5,20-"));
  ASSERT_EQ(resp.status, 206);
  EXPECT_EQ(resp.headers.get("Content-Length"), "963");
  EXPECT_EQ(resp.headers.get("Content-Type"),
            "multipart/byteranges; "
            "boundary=batchresponse_9f63aa5b-4f21-47e5-ae0c-9f63aa5b4f21");
  const std::string head =
      "--batchresponse_9f63aa5b-4f21-47e5-ae0c-9f63aa5b4f21\r\n"
      "X-Ms-Request-Id: 9f63aa5b-4f21-47e5-ae0c-0123456789ab\r\n"
      "X-Part-Trace: "
      "pppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppp"
      "ppppppppppppppppppppppppppppppppppppppppppp\r\n"
      "Content-Type: text/plain\r\n";
  EXPECT_EQ(resp.body.materialize(),
            head + "Content-Range: bytes 0-3/26\r\n\r\nABCD\r\n" +  //
                head + "Content-Range: bytes 2-5/26\r\n\r\nCDEF\r\n" +
                head + "Content-Range: bytes 20-25/26\r\n\r\nUVWXYZ\r\n" +
                "--batchresponse_9f63aa5b-4f21-47e5-ae0c-9f63aa5b4f21--\r\n");
}

TEST(MultipartGolden, SliceAssembledAnswer) {
  // SliceLogic answers through respond_assembled; the last part's payload is
  // stitched from two 8-byte slices.
  VendorProfile profile = generic_profile(std::make_unique<SliceLogic>(8));
  profile.traits.multipart_part_extra_headers = {{"X-Slice", "8"}};
  core::SingleCdnTestbed bed(std::move(profile));
  bed.origin().resources().add_literal("/a.txt", std::string{kAlphabet});
  const Response resp = bed.send(ranged("/a.txt", "bytes=1-2,0-1,9-12,-3"));
  ASSERT_EQ(resp.status, 206);
  EXPECT_EQ(resp.headers.get("Content-Length"), "312");
  EXPECT_EQ(resp.body.materialize(),
            "--test_boundary_123\r\n"
            "X-Slice: 8\r\n"
            "Content-Type: text/plain\r\n"
            "Content-Range: bytes 0-2/26\r\n"
            "\r\n"
            "ABC\r\n"
            "--test_boundary_123\r\n"
            "X-Slice: 8\r\n"
            "Content-Type: text/plain\r\n"
            "Content-Range: bytes 9-12/26\r\n"
            "\r\n"
            "JKLM\r\n"
            "--test_boundary_123\r\n"
            "X-Slice: 8\r\n"
            "Content-Type: text/plain\r\n"
            "Content-Range: bytes 23-25/26\r\n"
            "\r\n"
            "XYZ\r\n"
            "--test_boundary_123--\r\n");
}

TEST(MultipartGolden, OverBudgetAnswersKeepTheir502AndCounters) {
  // The budget is checked against the computed size before any part is
  // assembled; the 502, its message and the counters are pinned.
  VendorProfile profile = generic_profile(std::make_unique<DeletionLogic>());
  profile.traits.conformance.mode = ConformanceMode::kLenient;
  profile.traits.conformance.max_multipart_assembly_bytes = 400;
  core::SingleCdnTestbed bed(std::move(profile));
  bed.origin().resources().add_synthetic("/r.bin", 1000);
  obs::MetricsRegistry metrics;
  bed.cdn().set_metrics(&metrics);

  const Response window = bed.send(ranged("/r.bin", "bytes=0-99,100-199,0-99,5-"));
  EXPECT_EQ(window.status, 502);
  EXPECT_EQ(window.body.materialize(),
            "multipart assembly of 1710 bytes exceeds budget of 400");
  // Under the budget the same node still answers multipart.
  const Response small = bed.send(ranged("/r.bin", "bytes=0-9,20-29"));
  EXPECT_EQ(small.status, 206);
  EXPECT_EQ(small.body.size(), 237u);
  const Response assembled = bed.cdn().respond_assembled(
      1000, "text/plain", "", "",
      {{http::ResolvedRange{0, 199}, Body::synthetic(1, 0, 200)},
       {http::ResolvedRange{300, 499}, Body::synthetic(1, 300, 200)}});
  EXPECT_EQ(assembled.status, 502);
  EXPECT_EQ(assembled.body.materialize(),
            "multipart assembly of 593 bytes exceeds budget of 400");

  const ValidationStats& stats = bed.cdn().validation_stats();
  EXPECT_EQ(stats.assembly_overflows, 2u);
  EXPECT_EQ(stats.budget_overflows, 0u);
  EXPECT_EQ(stats.violations, 0u);
  EXPECT_EQ(
      metrics.counter("cdn_validator_budget_overflows_total{vendor=\"TestCDN\"}")
          .value(),
      2u);
  EXPECT_EQ(metrics
                .counter("cdn_validator_violations_total{vendor=\"TestCDN\","
                         "check=\"multipart-budget\",action=\"reject-502\"}")
                .value(),
            2u);
}

TEST_F(NodeTest, SliceLogicFallsBackWhenOriginLacksRanges) {
  origin::OriginConfig config;
  config.supports_ranges = false;
  core::SingleCdnTestbed bed(
      generic_profile(std::make_unique<SliceLogic>(4096)), config);
  bed.origin().resources().add_synthetic("/f.bin", 10000);
  const Response resp = bed.send(ranged("/f.bin", "bytes=0-9"));
  EXPECT_EQ(resp.status, 206);
  EXPECT_EQ(resp.body.size(), 10u);
}

// ---------------------------------------------------------------------------
// Multi-range reply policies
// ---------------------------------------------------------------------------

TEST_F(NodeTest, HonorOverlappingProducesNParts) {
  auto bed = make_bed(std::make_unique<DeletionLogic>(),
                      MultiRangeReplyPolicy::kHonorOverlapping);
  const Response resp = bed.send(ranged("/r.bin", "bytes=0-,0-,0-,0-"));
  EXPECT_EQ(resp.status, 206);
  EXPECT_EQ(part_count(resp), 4u);
  EXPECT_GE(resp.body.size(), 4000u);
}

TEST_F(NodeTest, HonorOverlappingCapFallsBackTo200) {
  VendorProfile profile = generic_profile(std::make_unique<DeletionLogic>(),
                                          MultiRangeReplyPolicy::kHonorOverlapping);
  profile.traits.multi_reply_max_ranges = 3;
  core::SingleCdnTestbed bed(std::move(profile));
  bed.origin().resources().add_synthetic("/r.bin", 1000);
  const Response over = bed.send(ranged("/r.bin", "bytes=0-,0-,0-,0-"));
  EXPECT_EQ(over.status, 200);
  EXPECT_EQ(over.body.size(), 1000u);
  const Response at = bed.send(ranged("/r.bin?x=2", "bytes=0-,0-,0-"));
  EXPECT_EQ(at.status, 206);
  EXPECT_EQ(part_count(at), 3u);
}

TEST_F(NodeTest, CoalescePolicyMergesOverlaps) {
  auto bed = make_bed(std::make_unique<DeletionLogic>(),
                      MultiRangeReplyPolicy::kCoalesce);
  const Response resp = bed.send(ranged("/r.bin", "bytes=0-,0-,0-,0-"));
  EXPECT_EQ(resp.status, 206);
  // Merged to a single whole-entity range.
  EXPECT_EQ(resp.body.size(), 1000u);
  EXPECT_EQ(resp.headers.get("Content-Range"), "bytes 0-999/1000");
}

TEST_F(NodeTest, CoalescePolicyKeepsDisjointPartsApart) {
  auto bed = make_bed(std::make_unique<DeletionLogic>(),
                      MultiRangeReplyPolicy::kCoalesce);
  const Response resp = bed.send(ranged("/r.bin", "bytes=0-1,500-501"));
  EXPECT_EQ(resp.status, 206);
  EXPECT_EQ(part_count(resp), 2u);
}

TEST_F(NodeTest, FirstRangeOnlyPolicy) {
  auto bed = make_bed(std::make_unique<DeletionLogic>(),
                      MultiRangeReplyPolicy::kFirstRangeOnly);
  const Response resp = bed.send(ranged("/r.bin", "bytes=5-9,100-199"));
  EXPECT_EQ(resp.status, 206);
  EXPECT_EQ(resp.body.size(), 5u);
  EXPECT_EQ(resp.headers.get("Content-Range"), "bytes 5-9/1000");
}

TEST_F(NodeTest, IgnoreRangePolicyReturnsFull200) {
  auto bed = make_bed(std::make_unique<DeletionLogic>(),
                      MultiRangeReplyPolicy::kIgnoreRange);
  const Response resp = bed.send(ranged("/r.bin", "bytes=0-0,5-5"));
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body.size(), 1000u);
}

TEST_F(NodeTest, Reject416Policy) {
  auto bed = make_bed(std::make_unique<DeletionLogic>(),
                      MultiRangeReplyPolicy::kReject416);
  const Response resp = bed.send(ranged("/r.bin", "bytes=0-0,5-5"));
  EXPECT_EQ(resp.status, 416);
}

TEST_F(NodeTest, RejectOverlapping416AllowsDisjoint) {
  auto bed = make_bed(std::make_unique<DeletionLogic>(),
                      MultiRangeReplyPolicy::kRejectOverlapping416);
  EXPECT_EQ(bed.send(ranged("/r.bin", "bytes=0-0,5-5")).status, 206);
  EXPECT_EQ(bed.send(ranged("/r.bin?x", "bytes=0-5,3-9")).status, 416);
  // A repeated range overlaps itself.
  EXPECT_EQ(bed.send(ranged("/r.bin?y", "bytes=0-0,0-0")).status, 416);
  EXPECT_EQ(bed.send(ranged("/r.bin?z", "bytes=0-0,5-5,5-5")).status, 416);
}

// Equal adjacent ranges fold into one run part with a count (the cap and
// coalesce tests above send repeats too); equal ranges apart stay apart.
TEST_F(NodeTest, NonAdjacentDuplicatesKeepTheirPartsInOrder) {
  auto bed = make_bed(std::make_unique<DeletionLogic>());
  const Response resp = bed.send(ranged("/r.bin", "bytes=0-0,5-5,0-0"));
  ASSERT_EQ(resp.status, 206);
  const auto parts = http::parse_multipart_byteranges(
      resp.body.materialize(), "test_boundary_123");
  ASSERT_TRUE(parts);
  ASSERT_EQ(parts->size(), 3u);
  const std::string entity =
      bed.origin().resources().find("/r.bin")->entity.materialize();
  const http::ResolvedRange want[] = {{0, 0}, {5, 5}, {0, 0}};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*parts)[i].range, want[i]) << i;
    EXPECT_EQ((*parts)[i].payload.materialize(),
              entity.substr(static_cast<std::size_t>(want[i].first), 1));
  }
}

// ---------------------------------------------------------------------------
// Range edge cases through the node
// ---------------------------------------------------------------------------

TEST_F(NodeTest, UnsatisfiableRangeYields416) {
  auto bed = make_bed(std::make_unique<DeletionLogic>());
  const Response resp = bed.send(ranged("/r.bin", "bytes=5000-6000"));
  EXPECT_EQ(resp.status, 416);
  EXPECT_EQ(resp.headers.get("Content-Range"), "bytes */1000");
}

TEST_F(NodeTest, MalformedRangeIsIgnored) {
  auto bed = make_bed(std::make_unique<DeletionLogic>());
  const Response resp = bed.send(ranged("/r.bin", "bytes=9-2"));
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body.size(), 1000u);
}

TEST_F(NodeTest, PartiallySatisfiableMultiServesGoodRanges) {
  auto bed = make_bed(std::make_unique<DeletionLogic>());
  const Response resp = bed.send(ranged("/r.bin", "bytes=0-0,5000-6000"));
  EXPECT_EQ(resp.status, 206);
  EXPECT_EQ(resp.body.size(), 1u);
}

TEST_F(NodeTest, IngressRangeCountCapRejects) {
  VendorProfile profile = generic_profile(std::make_unique<DeletionLogic>());
  profile.traits.ingress_max_range_count = 2;
  core::SingleCdnTestbed bed(std::move(profile));
  bed.origin().resources().add_synthetic("/r.bin", 1000);
  EXPECT_EQ(bed.send(ranged("/r.bin", "bytes=0-0,1-1")).status, 206);
  EXPECT_EQ(bed.send(ranged("/r.bin?x", "bytes=0-0,1-1,2-2")).status, 400);
  // The rejection happens before any origin contact.
  EXPECT_EQ(bed.origin().request_log().size(), 1u);
}

TEST_F(NodeTest, IngressHeaderLimitRejectsWith431) {
  VendorProfile profile = generic_profile(std::make_unique<DeletionLogic>());
  profile.traits.limits.total_header_bytes = 64;
  core::SingleCdnTestbed bed(std::move(profile));
  bed.origin().resources().add_synthetic("/r.bin", 1000);
  Request req = ranged("/r.bin", "");
  req.headers.add("X-Big", std::string(100, 'x'));
  EXPECT_EQ(bed.send(req).status, 431);
  EXPECT_TRUE(bed.origin().request_log().empty());
}

TEST_F(NodeTest, ForwardHeadersReachOriginAndHopByHopStripped) {
  VendorProfile profile = generic_profile(std::make_unique<DeletionLogic>());
  profile.traits.forward_headers = {{"Via", "1.1 testcdn"}};
  core::SingleCdnTestbed bed(std::move(profile));
  bed.origin().resources().add_synthetic("/r.bin", 1000);
  Request req = ranged("/r.bin", "bytes=0-0");
  req.headers.add("Connection", "keep-alive");
  req.headers.add("X-Client", "yes");
  bed.send(req);
  const auto& seen = bed.origin().request_log()[0];
  EXPECT_EQ(seen.headers.get("Via"), "1.1 testcdn");
  EXPECT_EQ(seen.headers.get("X-Client"), "yes");
  EXPECT_FALSE(seen.headers.has("Connection"));
  EXPECT_FALSE(seen.headers.has("Range"));
}

TEST_F(NodeTest, CacheDisabledAlwaysGoesUpstream) {
  VendorProfile profile = generic_profile(std::make_unique<DeletionLogic>());
  profile.traits.cache_enabled = false;
  core::SingleCdnTestbed bed(std::move(profile));
  bed.origin().resources().add_synthetic("/r.bin", 1000);
  bed.send(ranged("/r.bin", ""));
  bed.send(ranged("/r.bin", ""));
  EXPECT_EQ(bed.origin().request_log().size(), 2u);
  EXPECT_EQ(bed.cdn().cache().size(), 0u);
}

// ---------------------------------------------------------------------------
// Calibration
// ---------------------------------------------------------------------------

TEST(Calibration, PadHitsTargetExactly) {
  VendorTraits traits;
  traits.name = "CalTest";
  traits.response_identity_headers = {{"Server", "CalTest"}};
  traits.client_response_target_bytes = 700;
  traits.response_pad_bytes = calibrate_response_pad(traits);
  ASSERT_GT(traits.response_pad_bytes, 0u);

  // Rebuild the canonical response the calibration routine targets and
  // check its exact size.
  VendorProfile profile;
  profile.traits = traits;
  profile.logic = std::make_unique<DeletionLogic>();
  origin::OriginConfig origin_config;
  core::SingleCdnTestbed bed(std::move(profile), origin_config);
  bed.origin().resources().add_synthetic("/cal.bin", 26214400);
  Request req = http::make_get("h", "/cal.bin");
  req.headers.add("Range", "bytes=0-0");
  const Response resp = bed.send(req);
  // ETag/Last-Modified digits match the canonical assumption to within a
  // few bytes; exactness of the pad mechanism is what matters here.
  EXPECT_NEAR(static_cast<double>(http::serialized_size(resp)), 700.0, 4.0);
}

TEST(Calibration, ZeroTargetMeansNoPad) {
  VendorTraits traits;
  EXPECT_EQ(calibrate_response_pad(traits), 0u);
  traits.client_response_target_bytes = 10;  // below base size
  EXPECT_EQ(calibrate_response_pad(traits), 0u);
}

// ---------------------------------------------------------------------------
// Budgeted cache through the node
// ---------------------------------------------------------------------------

namespace {

core::SingleCdnTestbed budgeted_bed(std::uint64_t max_bytes,
                                    CacheEvictionPolicy policy, int objects,
                                    std::uint64_t object_bytes) {
  VendorProfile profile;
  profile.traits.name = "BudgetCdn";
  profile.traits.cache.max_bytes = max_bytes;
  profile.traits.cache.policy = policy;
  profile.logic = std::make_unique<DeletionLogic>();
  core::SingleCdnTestbed bed(std::move(profile));
  for (int i = 0; i < objects; ++i) {
    bed.origin().resources().add_synthetic("/o" + std::to_string(i) + ".bin",
                                           object_bytes);
  }
  return bed;
}

}  // namespace

TEST(BudgetedNode, CacheStaysWithinBudgetAndEvictedEntriesRefetch) {
  auto bed = budgeted_bed(64 * 1024, CacheEvictionPolicy::kFifoNaive,
                          /*objects=*/32, /*object_bytes=*/4096);
  for (int i = 0; i < 32; ++i) {
    bed.send(http::make_get("h.example", "/o" + std::to_string(i) + ".bin"));
    EXPECT_LE(bed.cdn().cache().bytes(), 64u * 1024u);
  }
  EXPECT_GT(bed.cdn().cache().evictions(), 0u);

  // An evicted object is simply a miss again: refetched from the origin,
  // byte-for-byte correct.
  const auto origin_before = bed.origin_traffic().response_bytes();
  const Response again = bed.send(http::make_get("h.example", "/o0.bin"));
  EXPECT_EQ(again.status, 200);
  EXPECT_EQ(again.body.size(), 4096u);
  EXPECT_GT(bed.origin_traffic().response_bytes(), origin_before);
}

TEST(BudgetedNode, PublishesCacheMetricsAsDeltas) {
  auto bed = budgeted_bed(64 * 1024, CacheEvictionPolicy::kFifoNaive,
                          /*objects=*/32, /*object_bytes=*/4096);
  obs::MetricsRegistry metrics;
  bed.cdn().set_metrics(&metrics);
  for (int i = 0; i < 32; ++i) {
    bed.send(http::make_get("h.example", "/o" + std::to_string(i) + ".bin"));
  }
  const auto labelled = [](std::string base) {
    return base + "{vendor=\"BudgetCdn\"}";
  };
  EXPECT_EQ(metrics.counter(labelled("cdn_cache_evictions_total")).value(),
            bed.cdn().cache().evictions());
  // The gauge tracks resident bytes exactly (delta-published per request).
  EXPECT_EQ(metrics.gauge(labelled("cdn_cache_bytes")).value(),
            static_cast<double>(bed.cdn().cache().bytes()));
  EXPECT_LE(metrics.gauge(labelled("cdn_cache_bytes")).value(), 64.0 * 1024.0);
}

TEST(BudgetedNode, AttachingMetricsMidLifeBaselinesResidentBytes) {
  auto bed = budgeted_bed(0, CacheEvictionPolicy::kS3Fifo, /*objects=*/4,
                          /*object_bytes=*/1024);
  bed.send(http::make_get("h.example", "/o0.bin"));
  bed.send(http::make_get("h.example", "/o1.bin"));
  ASSERT_GT(bed.cdn().cache().bytes(), 0u);

  // Attach late: the gauge must start from the bytes already resident, not
  // drift by publishing the full residency as a fresh delta on top of zero.
  obs::MetricsRegistry metrics;
  bed.cdn().set_metrics(&metrics);
  bed.send(http::make_get("h.example", "/o2.bin"));
  EXPECT_EQ(metrics.gauge("cdn_cache_bytes{vendor=\"BudgetCdn\"}").value(),
            static_cast<double>(bed.cdn().cache().bytes()));
}

// ---------------------------------------------------------------------------
// Detection + quarantine at the node (docs/detection-model.md)
// ---------------------------------------------------------------------------

// Deletion-logic node with inline detection on a 1 MiB target: three 1-byte
// cache-busting probes fill the detector window (min_samples = 3) and trip
// all three signals at once.
core::SingleCdnTestbed detection_bed(bool quarantine = true,
                                     bool pattern = false) {
  VendorProfile profile = generic_profile(std::make_unique<DeletionLogic>());
  profile.traits.detection.enabled = true;
  profile.traits.detection.quarantine_enabled = quarantine;
  profile.traits.detection.pattern_quarantine = pattern;
  profile.traits.detection.detector.window = 5;
  profile.traits.detection.detector.min_samples = 3;
  core::SingleCdnTestbed bed(std::move(profile));
  bed.origin().resources().add_synthetic("/big.bin", 1 << 20);
  return bed;
}

Request attack_probe(int i, std::string client = "evil") {
  Request req =
      http::make_get("site.example", "/big.bin?cb=" + std::to_string(i));
  req.headers.add("Range", "bytes=0-0");
  req.headers.add(std::string(kClientKeyHeader), std::move(client));
  return req;
}

TEST(NodeQuarantine, ClientKeyMatchAnswers429WithRetryAfter) {
  auto bed = detection_bed();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(bed.send(attack_probe(i)).status, 206);
  const Response blocked = bed.send(attack_probe(3));
  EXPECT_EQ(blocked.status, 429);
  EXPECT_TRUE(blocked.headers.has("Retry-After"));
  EXPECT_EQ(bed.cdn().detection()->stats().alarms, 1u);
}

TEST(NodeQuarantine, QuarantinePrecedesCacheAndOriginWork) {
  auto bed = detection_bed();
  for (int i = 0; i < 3; ++i) bed.send(attack_probe(i));
  const std::size_t origin_requests = bed.origin().request_log().size();
  const auto origin_bytes = bed.origin_traffic().response_bytes();
  // Re-sending the first probe would be a cache HIT if it were admitted --
  // quarantine outranks the cache, so it is refused before any lookup and
  // without a single further origin byte.
  const Response blocked = bed.send(attack_probe(0));
  EXPECT_EQ(blocked.status, 429);
  EXPECT_EQ(bed.origin().request_log().size(), origin_requests);
  EXPECT_EQ(bed.origin_traffic().response_bytes(), origin_bytes);
}

TEST(NodeQuarantine, BenignClientIsStillServedWhileAttackerIsBlocked) {
  auto bed = detection_bed();
  for (int i = 0; i < 3; ++i) bed.send(attack_probe(i));
  EXPECT_EQ(bed.send(attack_probe(3)).status, 429);
  Request benign = http::make_get("site.example", "/big.bin");
  benign.headers.add(std::string(kClientKeyHeader), "good");
  EXPECT_EQ(bed.send(benign).status, 200);
}

TEST(NodeQuarantine, ShadowModeDetectsWithoutRejecting) {
  auto bed = detection_bed(/*quarantine=*/false);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(bed.send(attack_probe(i)).status, 206);
  }
  EXPECT_EQ(bed.cdn().detection()->stats().alarms, 1u);
  EXPECT_EQ(bed.cdn().detection()->table().size(), 1u);
}

TEST(NodeQuarantine, PatternQuarantineCatchesRotatedClientKey) {
  auto bed = detection_bed(/*quarantine=*/true, /*pattern=*/true);
  for (int i = 0; i < 3; ++i) bed.send(attack_probe(i, "evil"));
  // A fresh identity sending the same (base key, tiny shape) is caught by
  // the pattern arm...
  EXPECT_EQ(bed.send(attack_probe(3, "fresh-identity")).status, 429);

  // ...but with pattern matching off (the default), identity rotation
  // evades the client-key signature.
  auto keyed = detection_bed(/*quarantine=*/true, /*pattern=*/false);
  for (int i = 0; i < 3; ++i) keyed.send(attack_probe(i, "evil"));
  EXPECT_EQ(keyed.send(attack_probe(3, "fresh-identity")).status, 206);
}

// ---------------------------------------------------------------------------
// '#' at ingress: the node's own cache entries live under '#'-suffixed keys,
// so a client that could spell one would alias them.
// ---------------------------------------------------------------------------

class FragmentIngressTest : public ::testing::Test {
 protected:
  FragmentIngressTest() : bed_(make_profile(Vendor::kAkamai)) {
    bed_.origin().resources().add_synthetic("/b", 1000);
    bed_.origin().resources().add_synthetic("/d", 1000);
  }

  std::uint64_t origin_fetches() { return bed_.origin_traffic().exchange_count(); }

  core::SingleCdnTestbed bed_;
};

TEST_F(FragmentIngressTest, VarySuffixCannotPoisonTheUrl) {
  const Response poison = bed_.send(http::make_get("site.example", "/b?x#vary"));
  EXPECT_EQ(poison.status, 400);
  EXPECT_EQ(origin_fetches(), 0u);
  EXPECT_EQ(bed_.cdn().cache().size(), 0u);
  // The URL caches normally: one fill, then hits.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(bed_.send(http::make_get("site.example", "/b?x")).status, 200);
  }
  EXPECT_EQ(origin_fetches(), 1u);
  EXPECT_EQ(bed_.cdn().cache().hits(), 2u);
}

TEST_F(FragmentIngressTest, NegSuffixCannotForgeANegativeEntry) {
  EXPECT_EQ(bed_.send(http::make_get("site.example", "/d?x#neg")).status, 400);
  EXPECT_EQ(origin_fetches(), 0u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(bed_.send(http::make_get("site.example", "/d?x")).status, 200);
  }
  EXPECT_EQ(origin_fetches(), 1u);
}

TEST_F(FragmentIngressTest, HashInHostIsRejected) {
  EXPECT_EQ(bed_.send(http::make_get("site.example#vary", "/b")).status, 400);
  EXPECT_EQ(origin_fetches(), 0u);
  EXPECT_EQ(bed_.send(http::make_get("site.example", "/b")).status, 200);
}

}  // namespace
}  // namespace rangeamp::cdn
