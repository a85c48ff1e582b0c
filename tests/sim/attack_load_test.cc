#include "sim/attack_load.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace rangeamp::sim {
namespace {

AttackLoadConfig base_config(int m) {
  AttackLoadConfig config;
  config.requests_per_second = m;
  config.origin_response_bytes = 10'486'029;  // 10 MB + headers
  config.client_response_bytes = 822;
  config.duration_s = 30.0;
  return config;
}

TEST(AttackLoad, SubSaturationIsProportionalToM) {
  // Paper: "When m <= 10, it is ... almost proportional to m."
  for (const int m : {1, 4, 8, 10}) {
    const auto config = base_config(m);
    const auto series = simulate_attack_load(config);
    const auto stats = summarize(config, series);
    const double expected_mbps = m * 10'486'029 * 8.0 / 1e6;
    EXPECT_NEAR(stats.mean_origin_out_mbps, expected_mbps, expected_mbps * 0.02)
        << m;
    EXPECT_FALSE(stats.saturated) << m;
  }
}

TEST(AttackLoad, SaturatesAtUplinkCapacityForLargeM) {
  // Paper: "when m >= 14, the outgoing bandwidth ... is exhausted completely."
  for (const int m : {12, 14, 15}) {
    const auto config = base_config(m);
    const auto stats = summarize(config, simulate_attack_load(config));
    EXPECT_TRUE(stats.saturated) << m;
    EXPECT_LE(stats.peak_origin_out_mbps, 1000.0 + 1e-6);
    EXPECT_GE(stats.mean_origin_out_mbps, 995.0);
  }
}

TEST(AttackLoad, ClientIncomingStaysUnder500Kbps) {
  // Paper Fig 7a: the client's incoming bandwidth never exceeds 500 Kbps.
  for (const int m : {1, 5, 10, 15}) {
    const auto config = base_config(m);
    const auto stats = summarize(config, simulate_attack_load(config));
    EXPECT_LT(stats.peak_client_in_kbps, 500.0) << m;
    EXPECT_GT(stats.peak_client_in_kbps, 0.0) << m;
  }
}

TEST(AttackLoad, BacklogGrowsOnlyUnderSaturation) {
  const auto sub = simulate_attack_load(base_config(5));
  const auto sat = simulate_attack_load(base_config(15));
  // At t=29 (last attack second) the saturated run has a big backlog.
  const auto& sub29 = sub[29];
  const auto& sat29 = sat[29];
  EXPECT_LE(sub29.in_flight, 6u);
  EXPECT_GT(sat29.in_flight, 20u);
}

TEST(AttackLoad, TransfersDrainAfterAttackEnds) {
  auto config = base_config(5);
  config.drain_s = 20.0;
  const auto series = simulate_attack_load(config);
  EXPECT_EQ(series.back().in_flight, 0u);
  // Total bytes moved equal requests * per-request size.
  double total_mb = 0;
  for (const auto& s : series) total_mb += s.origin_out_mbps / 8.0;  // MB/s * 1s
  EXPECT_NEAR(total_mb * 1e6, 30.0 * 5 * 10'486'029, 30.0 * 5 * 10'486'029 * 0.001);
}

TEST(AttackLoad, SeriesCoversDurationPlusDrain) {
  auto config = base_config(2);
  config.duration_s = 10.0;
  config.drain_s = 5.0;
  const auto series = simulate_attack_load(config);
  EXPECT_EQ(series.size(), 15u);
  EXPECT_DOUBLE_EQ(series.front().second, 0.0);
  EXPECT_DOUBLE_EQ(series.back().second, 14.0);
}

TEST(AttackLoad, BenignTrafficSuffersOnlyPastTheKnee) {
  const auto run = [](int m) {
    auto config = base_config(m);
    config.benign_requests_per_second = 2;
    config.benign_response_bytes = 5u << 20;
    config.drain_s = 30.0;
    const auto series = simulate_attack_load(config);
    double goodput = 0, latency = 0;
    std::size_t n = 0, ln = 0;
    for (const auto& s : series) {
      if (s.second < 5 || s.second >= 30) continue;
      goodput += s.benign_goodput_mbps;
      ++n;
      if (s.benign_latency_s >= 0) {
        latency += s.benign_latency_s;
        ++ln;
      }
    }
    return std::pair{goodput / static_cast<double>(n),
                     ln ? latency / static_cast<double>(ln) : -1.0};
  };
  const auto [goodput0, latency0] = run(0);
  const auto [goodput8, latency8] = run(8);
  const auto [goodput15, latency15] = run(15);
  // Below the knee: goodput preserved, latency only inflated by sharing.
  EXPECT_NEAR(goodput8, goodput0, goodput0 * 0.05);
  EXPECT_GT(latency8, latency0);
  EXPECT_LT(latency8, 10 * latency0);
  // Past the knee: goodput degrades and latency explodes.
  EXPECT_LT(goodput15, goodput0 * 0.85);
  EXPECT_GT(latency15, 20 * latency0);
}

TEST(AttackLoad, BenignOnlyBaselineIsUnconstrained) {
  auto config = base_config(0);
  config.benign_requests_per_second = 2;
  config.benign_response_bytes = 5u << 20;
  const auto series = simulate_attack_load(config);
  for (const auto& s : series) {
    if (s.second >= 5 && s.second < 25 && s.benign_latency_s >= 0) {
      // 2 x 5 MB/s over 1000 Mbps: each fetch takes ~42 ms alone, ~84 ms
      // when both flows of a burst share the link.
      EXPECT_LT(s.benign_latency_s, 0.15);
    }
  }
}

TEST(AttackLoad, NetworkRttSetsTheLatencyFloor) {
  auto config = base_config(0);
  config.benign_requests_per_second = 1;
  config.benign_response_bytes = 1024;  // negligible transfer time
  config.network_rtt_s = 0.080;
  const auto series = simulate_attack_load(config);
  for (const auto& s : series) {
    if (s.benign_latency_s >= 0) {
      EXPECT_GE(s.benign_latency_s, 0.080);
      EXPECT_LT(s.benign_latency_s, 0.082);
    }
  }
}

TEST(AttackLoad, SaturationKneeMatchesArithmetic) {
  // 1000 Mbps / (10 MB * 8 bits) = 11.92 requests/s: m=11 fits, m=12 doesn't.
  const auto at11 = summarize(base_config(11), simulate_attack_load(base_config(11)));
  const auto at12 = summarize(base_config(12), simulate_attack_load(base_config(12)));
  EXPECT_FALSE(at11.saturated);
  EXPECT_TRUE(at12.saturated);
}

TEST(AttackLoad, ShortSaturatingRunIsSummarizedAsSaturated) {
  // A 4 s attack has no [5 s, duration) warm window; the summary averages
  // over the whole attack instead of reporting 0 Mbps.
  auto config = base_config(15);
  config.duration_s = 4.0;
  const auto stats = summarize(config, simulate_attack_load(config));
  EXPECT_TRUE(stats.saturated);
  EXPECT_NEAR(stats.mean_origin_out_mbps, 1000.0, 1e-6);
}

TEST(AttackLoad, ShortSubSaturationRunReportsItsOfferedLoad) {
  for (const double duration : {1.0, 4.0, 5.0}) {
    auto config = base_config(4);
    config.duration_s = duration;
    const auto stats = summarize(config, simulate_attack_load(config));
    const double expected_mbps = 4 * 10'486'029 * 8.0 / 1e6;
    EXPECT_NEAR(stats.mean_origin_out_mbps, expected_mbps, 1e-6) << duration;
    EXPECT_FALSE(stats.saturated) << duration;
  }
}

TEST(AttackLoad, RejectsInputsNoProjectionCanRun) {
  const auto rejects = [](auto&& mutate) {
    auto config = base_config(2);
    mutate(config);
    EXPECT_THROW(simulate_attack_load(config), std::invalid_argument);
    EXPECT_THROW(series_length(config), std::invalid_argument);
  };
  rejects([](AttackLoadConfig& c) { c.duration_s = -1.0; });
  rejects([](AttackLoadConfig& c) { c.duration_s = std::nan(""); });
  rejects([](AttackLoadConfig& c) { c.duration_s = HUGE_VAL; });
  rejects([](AttackLoadConfig& c) { c.drain_s = -0.5; });
  rejects([](AttackLoadConfig& c) { c.drain_s = std::nan(""); });
  rejects([](AttackLoadConfig& c) { c.drain_s = 1e300; });
  rejects([](AttackLoadConfig& c) { c.origin_uplink_mbps = 0; });
  rejects([](AttackLoadConfig& c) { c.origin_uplink_mbps = -1000.0; });
  rejects([](AttackLoadConfig& c) { c.origin_uplink_mbps = std::nan(""); });
  rejects([](AttackLoadConfig& c) { c.origin_uplink_mbps = HUGE_VAL; });
  rejects([](AttackLoadConfig& c) { c.requests_per_second = -1; });
  rejects([](AttackLoadConfig& c) { c.benign_requests_per_second = -1; });
  // The boundary itself is a valid, empty projection.
  auto config = base_config(3);
  config.duration_s = 0;
  config.drain_s = 0;
  EXPECT_TRUE(simulate_attack_load(config).empty());
}

TEST(AttackLoad, TwentyThousandRpsConservesBytes) {
  // 20k rps of 64 KiB for 10 s is 13.1 GB on a 125 MB/s uplink: ~200k flows
  // pile up in flight and drain by ~105 s.  Every offered byte shows up in
  // the series exactly once.
  AttackLoadConfig config;
  config.requests_per_second = 20'000;
  config.duration_s = 10.0;
  config.drain_s = 100.0;
  config.origin_response_bytes = 65'536;
  config.client_response_bytes = 800;
  const auto series = simulate_attack_load(config);
  ASSERT_EQ(series.size(), 110u);
  double origin_bytes = 0;
  double client_bytes = 0;
  std::size_t peak_in_flight = 0;
  for (const auto& s : series) {
    EXPECT_LE(s.origin_out_mbps, 1000.0 + 1e-6);
    origin_bytes += s.origin_out_mbps * 1e6 / 8.0;
    client_bytes += s.client_in_kbps * 1e3 / 8.0;
    peak_in_flight = std::max(peak_in_flight, s.in_flight);
  }
  const double offered = 20'000.0 * 10 * 65'536;
  EXPECT_NEAR(origin_bytes, offered, offered * 1e-9);
  EXPECT_NEAR(client_bytes, 20'000.0 * 10 * 800, 1e-3);
  EXPECT_EQ(series.back().in_flight, 0u);
  EXPECT_GT(peak_in_flight, 150'000u);
}

// ---------------------------------------------------------------------------
// The engine against the fixed-step fluid integrator it replaced: each
// expectation is a number that integrator produced (1 ms steps), checked at
// the tolerances the two engines were once pinned to each other with.
// ---------------------------------------------------------------------------

AttackLoadConfig fig7_config(int m) {
  AttackLoadConfig config;
  config.requests_per_second = m;
  config.origin_response_bytes = 10'486'029;
  config.client_response_bytes = 822;
  config.duration_s = 20.0;
  config.drain_s = 20.0;
  return config;
}

TEST(DesVsFluid, SteadyStateUtilizationAgrees) {
  // Sum of origin_out_mbps over seconds [5, 20) under the fluid integrator.
  const std::pair<int, double> fluid_sums[] = {
      {2, 2516.64696}, {8, 10066.58784}, {12, 15000.0}, {15, 15000.0}};
  for (const auto& [m, fluid_sum] : fluid_sums) {
    const auto series = simulate_attack_load(fig7_config(m));
    double sum = 0;
    for (std::size_t s = 5; s < 20; ++s) sum += series[s].origin_out_mbps;
    EXPECT_NEAR(sum, fluid_sum, fluid_sum * 0.02 + 1.0) << "m=" << m;
  }
}

TEST(DesVsFluid, CompletionDrivenClientTrafficAgrees) {
  // All 160 requests complete: 160 x 822 B x 8 / 1e3 under the integrator.
  const double fluid_total = 1052.16;
  double total = 0;
  for (const auto& s : simulate_attack_load(fig7_config(8))) total += s.client_in_kbps;
  EXPECT_NEAR(total, fluid_total, fluid_total * 0.01 + 0.1);
}

TEST(DesVsFluid, BenignLatencyAgreesBelowSaturation) {
  // Mean benign fetch latency over seconds [5, 20) under the integrator.
  const double fluid_latency = 0.29360128;
  auto config = fig7_config(5);
  config.benign_requests_per_second = 2;
  config.benign_response_bytes = 5u << 20;
  const auto series = simulate_attack_load(config);
  double latency = 0;
  std::size_t n = 0;
  for (std::size_t s = 5; s < 20; ++s) {
    if (series[s].benign_latency_s >= 0) {
      latency += series[s].benign_latency_s;
      ++n;
    }
  }
  ASSERT_GT(n, 0u);
  EXPECT_NEAR(latency / n, fluid_latency, 0.05 * fluid_latency + 0.002);
}

}  // namespace
}  // namespace rangeamp::sim
