#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "core/campaign.h"
#include "core/cost.h"
#include "core/detector.h"
#include "http/generator.h"
#include "http/range.h"

namespace rangeamp::core {
namespace {

// ---------------------------------------------------------------------------
// Detector unit behaviour
// ---------------------------------------------------------------------------

DetectorSample attack_sample() {
  DetectorSample s;
  s.selected_bytes = 1;
  s.resource_bytes = 10u << 20;
  s.client.response_bytes = 800;
  s.origin.response_bytes = 10u << 20;
  s.cache_hit = false;
  return s;
}

DetectorSample benign_page_sample() {
  DetectorSample s;
  s.selected_bytes = UINT64_MAX;  // no Range
  s.resource_bytes = 128 * 1024;
  s.client.response_bytes = 128 * 1024;
  s.origin.response_bytes = 0;  // cache hit
  s.cache_hit = true;
  return s;
}

TEST(Detector, AlarmsOnSustainedAttackPattern) {
  RangeAmpDetector detector;
  for (int i = 0; i < 19; ++i) {
    detector.observe(attack_sample());
    EXPECT_FALSE(detector.alarmed()) << "below min_samples at " << i;
  }
  detector.observe(attack_sample());
  EXPECT_TRUE(detector.alarmed());
  const auto stats = detector.stats();
  EXPECT_GT(stats.asymmetry, 1000.0);
  EXPECT_DOUBLE_EQ(stats.tiny_fraction, 1.0);
  EXPECT_DOUBLE_EQ(stats.miss_fraction, 1.0);
}

TEST(Detector, AlarmIsLatched) {
  RangeAmpDetector detector;
  for (int i = 0; i < 25; ++i) detector.observe(attack_sample());
  ASSERT_TRUE(detector.alarmed());
  for (int i = 0; i < 100; ++i) detector.observe(benign_page_sample());
  EXPECT_TRUE(detector.alarmed());
  detector.reset();
  EXPECT_FALSE(detector.alarmed());
}

TEST(Detector, DecayUnlatchesAfterCleanWindows) {
  // decay_clean_windows=2 @ window=10: the alarm clears after 20
  // *consecutive* samples during which the window never evaluates hot.  The
  // first 2 benign samples after the burst still leave the blended window
  // hot (miss_fraction 8/10 >= 0.8), so the streak starts at the 3rd and
  // sample 22 is the one that clears.
  DetectorConfig config;
  config.window = 10;
  config.min_samples = 5;
  config.decay_clean_windows = 2;
  RangeAmpDetector detector(config);

  for (int i = 0; i < 12; ++i) detector.observe(attack_sample());
  ASSERT_TRUE(detector.alarmed());

  // One sample short of the decay horizon: still alarmed.
  for (int i = 0; i < 21; ++i) detector.observe(benign_page_sample());
  EXPECT_TRUE(detector.alarmed());
  detector.observe(benign_page_sample());
  EXPECT_FALSE(detector.alarmed()) << "22nd clean sample must clear the alarm";
}

TEST(Detector, DecayedDetectorReAlarmsOnSecondBurst) {
  // The regression the distributed campaign depends on: alarm -> recovery ->
  // re-alarm across two attack bursts.  A decayed detector must be armed
  // again, not stuck half-latched.
  DetectorConfig config;
  config.window = 10;
  config.min_samples = 5;
  config.decay_clean_windows = 1;
  RangeAmpDetector detector(config);

  for (int i = 0; i < 12; ++i) detector.observe(attack_sample());
  ASSERT_TRUE(detector.alarmed());
  for (int i = 0; i < 12; ++i) detector.observe(benign_page_sample());
  ASSERT_FALSE(detector.alarmed()) << "first burst must decay";

  for (int i = 0; i < 12; ++i) detector.observe(attack_sample());
  EXPECT_TRUE(detector.alarmed()) << "second burst must re-alarm";
}

TEST(Detector, ResumedAttackRestartsDecayStreak) {
  // decay_clean_windows=2 (20 clean samples to clear): an attacker who
  // resumes mid-decay re-heats the window, which zeroes the streak -- so a
  // benign tail that would have cleared a *fresh* countdown must not clear
  // this one.
  DetectorConfig config;
  config.window = 10;
  config.min_samples = 5;
  config.decay_clean_windows = 2;
  RangeAmpDetector detector(config);

  for (int i = 0; i < 12; ++i) detector.observe(attack_sample());
  ASSERT_TRUE(detector.alarmed());
  for (int i = 0; i < 9; ++i) detector.observe(benign_page_sample());
  for (int i = 0; i < 10; ++i) detector.observe(attack_sample());  // re-heat
  ASSERT_TRUE(detector.alarmed());
  for (int i = 0; i < 15; ++i) detector.observe(benign_page_sample());
  EXPECT_TRUE(detector.alarmed())
      << "15 clean samples after the resume must not clear a 20-sample decay";
}

TEST(Detector, SilentOnBenignTraffic) {
  RangeAmpDetector detector;
  for (int i = 0; i < 200; ++i) detector.observe(benign_page_sample());
  EXPECT_FALSE(detector.alarmed());
}

TEST(Detector, SilentOnColdCacheWarmup) {
  // A burst of cache misses without tiny ranges (a crawler, a deploy) must
  // not alarm: asymmetry ~1 and no tiny ranges.
  RangeAmpDetector detector;
  for (int i = 0; i < 100; ++i) {
    DetectorSample s;
    s.selected_bytes = UINT64_MAX;
    s.resource_bytes = 1u << 20;
    s.client.response_bytes = 1u << 20;
    s.origin.response_bytes = 1u << 20;
    s.cache_hit = false;
    detector.observe(s);
  }
  EXPECT_FALSE(detector.alarmed());
}

TEST(Detector, SilentOnLegitProbeRequests) {
  // Occasional tiny probes (players asking bytes=0-1 for metadata) mixed
  // into normal traffic stay under the tiny-fraction threshold.
  RangeAmpDetector detector;
  for (int i = 0; i < 200; ++i) {
    if (i % 5 == 0) {
      DetectorSample s = attack_sample();
      s.origin.response_bytes = 0;  // served from cache
      s.cache_hit = true;
      detector.observe(s);
    } else {
      detector.observe(benign_page_sample());
    }
  }
  EXPECT_FALSE(detector.alarmed());
}

TEST(Detector, SlidingWindowForgetsOldAttack) {
  DetectorConfig config;
  config.window = 30;
  RangeAmpDetector detector(config);
  for (int i = 0; i < 10; ++i) detector.observe(attack_sample());
  for (int i = 0; i < 60; ++i) detector.observe(benign_page_sample());
  EXPECT_FALSE(detector.alarmed());
  EXPECT_EQ(detector.stats().samples, 30u);
  EXPECT_DOUBLE_EQ(detector.stats().tiny_fraction, 0.0);
}

// selected_bytes_of sums length x count per run; the resolved list it no
// longer builds must give the same total, wrapping mod 2^64 alike, on sets
// with unsatisfiable, suffix and repeated runs.
TEST(Detector, SelectedBytesPerRunMatchesTheResolvedListOnSeededSets) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  http::Rng rng(31'2020);
  // A position inside the resource, or at or past its end.
  const auto position = [&](std::uint64_t size) -> std::uint64_t {
    if (size == 0 || rng.chance(0.3)) return size + rng.below(3);
    return rng.below(size);
  };
  EXPECT_EQ(selected_bytes_of(std::nullopt, 1024), UINT64_MAX);
  std::size_t unsatisfiable = 0, suffix = 0, repeated = 0, wrapped = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const std::uint64_t size = trial % 5 == 0 ? kMax - rng.below(2)
                               : trial % 7 == 0 ? 0
                                                : 1 + rng.below(1u << 20);
    http::RangeSet set;
    const std::size_t runs = 1 + rng.below(6);
    for (std::size_t i = 0; i < runs; ++i) {
      http::ByteRangeSpec spec;
      switch (rng.below(3)) {
        case 0: {
          const std::uint64_t a = position(size);
          const std::uint64_t b = rng.chance(0.5) ? kMax - rng.below(2) : position(size);
          spec = http::ByteRangeSpec::closed(std::min(a, b), std::max(a, b));
          break;
        }
        case 1: spec = http::ByteRangeSpec::open(position(size)); break;
        default: spec = http::ByteRangeSpec::suffix_of(rng.chance(0.2) ? 0 : position(size)); break;
      }
      const std::uint64_t count = rng.chance(0.3) ? 2 + rng.below(200) : 1;
      unsatisfiable += !http::resolve(spec, size);
      suffix += spec.is_suffix();
      repeated += count > 1;
      set.push(spec, count);
    }
    const auto resolved = http::resolve_all(set, size);
    const std::uint64_t want = http::total_selected_bytes(resolved);
    std::uint64_t exact_high = 0;  // did the sum pass 2^64?
    std::uint64_t low = 0;
    for (const auto& r : resolved) exact_high += __builtin_add_overflow(low, r.length(), &low);
    wrapped += exact_high > 0;
    ASSERT_EQ(selected_bytes_of(set, size), want) << "trial " << trial;
  }
  EXPECT_GT(unsatisfiable, 100u);
  EXPECT_GT(suffix, 100u);
  EXPECT_GT(repeated, 100u);
  EXPECT_GT(wrapped, 10u);
}

// ---------------------------------------------------------------------------
// Campaign end-to-end
// ---------------------------------------------------------------------------

TEST(Campaign, BuilderValidatesAtBuildTime) {
  EXPECT_NO_THROW(SbrCampaignConfig::Builder().build());
  EXPECT_THROW(SbrCampaignConfig::Builder().same_key_burst(0).build(),
               std::invalid_argument);
  EXPECT_THROW(SbrCampaignConfig::Builder().edge_nodes(0).build(),
               std::invalid_argument);
  EXPECT_THROW(SbrCampaignConfig::Builder().requests_per_second(0).build(),
               std::invalid_argument);
  EXPECT_THROW(SbrCampaignConfig::Builder().duration_s(-1).build(),
               std::invalid_argument);
  EXPECT_THROW(SbrCampaignConfig::Builder().file_size(0).build(),
               std::invalid_argument);
  EXPECT_THROW(SbrCampaignConfig::Builder().origin_uplink_mbps(0).build(),
               std::invalid_argument);
}

TEST(Campaign, SbrCampaignAmplifiesAndTripsDetector) {
  const auto config = SbrCampaignConfig::Builder()
                          .requests_per_second(5)
                          .duration_s(10)
                          .edge_nodes(4)
                          .build();
  const auto result = run_sbr_campaign(config);
  EXPECT_GT(result.amplification, 5000.0);
  EXPECT_EQ(result.nodes_touched, 4u);
  EXPECT_TRUE(result.detector_alarmed);
  // 50 requests x ~10 MB from the origin.
  EXPECT_NEAR(static_cast<double>(result.origin.response_bytes),
              50.0 * 10 * (1u << 20), 50.0 * 64 * 1024);
}

TEST(Campaign, RoundRobinSpreadsOriginLoadEvenly) {
  const auto config = SbrCampaignConfig::Builder()
                          .requests_per_second(4)
                          .duration_s(8)
                          .edge_nodes(4)
                          .build();
  const auto result = run_sbr_campaign(config);
  ASSERT_EQ(result.per_node_upstream_bytes.size(), 4u);
  const auto expect = result.origin.response_bytes / 4;
  for (const auto bytes : result.per_node_upstream_bytes) {
    EXPECT_NEAR(static_cast<double>(bytes), static_cast<double>(expect),
                static_cast<double>(expect) * 0.05);
  }
}

TEST(Campaign, PinnedTargetsOneNode) {
  const auto config = SbrCampaignConfig::Builder()
                          .requests_per_second(3)
                          .duration_s(5)
                          .edge_nodes(6)
                          .selection(cdn::NodeSelection::kPinned)
                          .build();
  const auto result = run_sbr_campaign(config);
  EXPECT_EQ(result.nodes_touched, 1u);
  EXPECT_EQ(result.per_node_upstream_bytes[0], result.origin.response_bytes);
}

TEST(Campaign, TimeSeriesSaturatesForHighRate) {
  const auto config = SbrCampaignConfig::Builder()
                          .requests_per_second(14)
                          .duration_s(10)
                          .build();
  const auto result = run_sbr_campaign(config);
  EXPECT_TRUE(result.bandwidth.saturated);
  EXPECT_LT(result.bandwidth.peak_client_in_kbps, 500.0);
}

TEST(Campaign, KeyCdnCampaignUsesDoubleSends) {
  const auto config = SbrCampaignConfig::Builder()
                          .vendor(cdn::Vendor::kKeyCdn)
                          .requests_per_second(3)
                          .duration_s(10)
                          .build();
  const auto result = run_sbr_campaign(config);
  EXPECT_GT(result.amplification, 3000.0);
  EXPECT_TRUE(result.detector_alarmed);
}

TEST(Campaign, MitigatedDeploymentNeitherAmplifiesNorAlarms) {
  const auto config = SbrCampaignConfig::Builder()
                          .requests_per_second(4)
                          .duration_s(10)
                          .mitigation(Mitigation::kLaziness)
                          .build();
  const auto result = run_sbr_campaign(config);
  // With Laziness everywhere, the "attack" is just tiny requests: no
  // amplification, no uplink pressure -- and the detector correctly stays
  // silent (there is nothing to detect).
  EXPECT_LT(result.amplification, 2.0);
  EXPECT_FALSE(result.bandwidth.saturated);
  EXPECT_FALSE(result.detector_alarmed);
}

TEST(Campaign, SliceMitigatedClusterCostsOneFillPerNode) {
  const auto config = SbrCampaignConfig::Builder()
                          .requests_per_second(5)
                          .duration_s(10)
                          .edge_nodes(4)
                          .mitigation(Mitigation::kSlice1M)
                          .build();
  const auto result = run_sbr_campaign(config);
  // Each node's slice cache fills once (~1 MiB each); 50 attack requests
  // cost the origin ~4 slices total instead of 50 x 10 MB.
  EXPECT_LT(result.origin.response_bytes, 4ull * ((1u << 20) + 65536));
  EXPECT_GT(result.origin.response_bytes, 3ull << 20);
}

TEST(Campaign, LegitWorkloadDoesNotAlarm) {
  const auto config = LegitWorkloadConfig::Builder{}.requests(300).build();
  const auto result = run_legit_workload(config);
  EXPECT_FALSE(result.detector_alarmed);
  // A healthy cache: hit rate well above zero.
  EXPECT_GT(result.cache_hit_rate, 0.1);
  // And no amplification: origin traffic is bounded by client traffic plus
  // cold-cache pulls of the catalog (~70 MB).
  EXPECT_LT(result.detector_stats.asymmetry, 50.0);
}

TEST(Campaign, LegitWorkloadIsSeedDeterministic) {
  const auto config = LegitWorkloadConfig::Builder{}.requests(100).build();
  const auto a = run_legit_workload(config);
  const auto b = run_legit_workload(config);
  EXPECT_EQ(a.client, b.client);
  EXPECT_EQ(a.origin, b.origin);
}

// ---------------------------------------------------------------------------
// OBR campaign (the node-exhaustion experiment the paper could not run)
// ---------------------------------------------------------------------------

TEST(ObrCampaign, SustainedCascadeKeepsFullPerRequestTraffic) {
  const auto config =
      ObrCampaignConfig::Builder{}.requests_per_second(2).duration_s(5).build();
  const auto result = run_obr_campaign(config);
  ASSERT_GT(result.n, 10000u);
  // Every request moves ~n * 1KB across fcdn-bcdn: the FCDN cache must not
  // absorb the campaign (queries rotate).
  EXPECT_GT(result.fcdn_bcdn_bytes_per_request, result.n * 1024ull);
  // The origin serves each (cache-busted) request once: ~1.7 KB each.
  EXPECT_LT(result.bcdn_origin_response_bytes, 10ull * 2000);
  EXPECT_GT(result.amplification, 5000.0);
  // The attacker aborts every client download early (the OBR cost trick);
  // the recorder-level truncation tally must surface that in the result.
  EXPECT_EQ(result.attacker_truncated,
            static_cast<std::uint64_t>(config.requests_per_second) *
                config.duration_s);
}

TEST(ObrCampaign, SaturatesAGigabitNodeUplinkInSeconds) {
  const auto config = ObrCampaignConfig::Builder{}
                          .requests_per_second(20)
                          .duration_s(10)
                          .node_uplink_mbps(1000.0)
                          .build();
  const auto result = run_obr_campaign(config);
  EXPECT_TRUE(result.bandwidth.saturated);
  EXPECT_GE(result.seconds_to_saturation, 0.0);
  EXPECT_LE(result.seconds_to_saturation, 3.0);
}

TEST(ObrCampaign, AzureCapPreventsSaturation) {
  const auto config = ObrCampaignConfig::Builder{}
                          .bcdn(cdn::Vendor::kAzure)
                          .requests_per_second(20)
                          .duration_s(5)
                          .build();
  const auto result = run_obr_campaign(config);
  EXPECT_LE(result.n, 64u);
  EXPECT_FALSE(result.bandwidth.saturated);
  EXPECT_LT(result.seconds_to_saturation, 0.0);
}

TEST(ObrCampaign, InfeasibleCascadeReportsZero) {
  const auto config = ObrCampaignConfig::Builder{}
                          .fcdn(cdn::Vendor::kStackPath)
                          .bcdn(cdn::Vendor::kStackPath)
                          .build();
  const auto result = run_obr_campaign(config);
  EXPECT_EQ(result.n, 0u);
}

TEST(ObrCampaign, ExplicitNOverridesPlanner) {
  const auto config = ObrCampaignConfig::Builder{}
                          .overlapping_ranges(100)
                          .requests_per_second(1)
                          .duration_s(3)
                          .build();
  const auto result = run_obr_campaign(config);
  EXPECT_EQ(result.n, 100u);
  EXPECT_GT(result.fcdn_bcdn_bytes_per_request, 100u * 1024);
  EXPECT_LT(result.fcdn_bcdn_bytes_per_request, 140u * 1024);
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

TEST(Cost, PlansExistForAllVendors) {
  EXPECT_EQ(default_price_plans().size(), 13u);
  for (const cdn::Vendor vendor : cdn::kAllVendors) {
    const auto plan = price_plan(vendor);
    EXPECT_EQ(plan.vendor, vendor);
    EXPECT_GE(plan.egress_usd_per_gb, 0.0);
  }
}

TEST(Cost, EstimateArithmetic) {
  PricePlan plan;
  plan.egress_usd_per_gb = 0.10;
  plan.origin_pull_usd_per_gb = 0.05;
  plan.origin_bandwidth_usd_per_gb = 0.09;
  constexpr std::uint64_t kGiB = 1024ull * 1024 * 1024;
  const auto cost = estimate_victim_cost(plan, 10 * kGiB, 100 * kGiB);
  EXPECT_NEAR(cost.cdn_egress_usd, 1.0, 1e-9);
  EXPECT_NEAR(cost.cdn_origin_pull_usd, 5.0, 1e-9);
  EXPECT_NEAR(cost.origin_bandwidth_usd, 9.0, 1e-9);
  EXPECT_NEAR(cost.total_usd, 15.0, 1e-9);
}

TEST(Cost, SbrCampaignCostIsAsymmetric) {
  // One laptop at 10 req/s for a day against a 25 MB target: the victim's
  // origin-side bill dwarfs the attacker's tiny egress share.
  const auto plan = price_plan(cdn::Vendor::kCloudFront);
  const auto cost = estimate_campaign_cost(plan, /*client=*/700,
                                           /*origin=*/25u << 20,
                                           /*rps=*/10, /*hours=*/24);
  EXPECT_GT(cost.total_usd, 1000.0);  // thousands of dollars/day
  EXPECT_LT(cost.cdn_egress_usd, 1.0);
  EXPECT_GT(cost.origin_bandwidth_usd, 100.0 * cost.cdn_egress_usd);
}

}  // namespace
}  // namespace rangeamp::core
