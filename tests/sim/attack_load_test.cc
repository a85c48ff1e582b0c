#include "sim/attack_load.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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
// The shield's filters: coalescing, admission cap, deadline
// ---------------------------------------------------------------------------

TEST(ShieldedLoad, DeadlineCancellationCutsPinnedResourceTime) {
  // A saturating OBR load: 5 x 10 MB fetches per second against a 1 MB/s
  // uplink.  Unprotected, the backlog pins the uplink far past the attack
  // window; a 2s per-exchange deadline cancels the stuck flows instead.
  ShieldedLoadConfig config;
  config.base.requests_per_second = 5;
  config.base.origin_response_bytes = 10'000'000;
  config.base.client_response_bytes = 822;
  config.base.origin_uplink_mbps = 8.0;  // 1e6 B/s
  config.base.duration_s = 5.0;
  config.base.drain_s = 30.0;
  config.shed_response_bytes = 500;

  const ShieldedLoadResult baseline = simulate_attack_load_shielded(config);
  config.deadline_seconds = 2.0;
  const ShieldedLoadResult protected_run = simulate_attack_load_shielded(config);

  EXPECT_EQ(baseline.deadline_cancelled, 0u);
  EXPECT_GT(protected_run.deadline_cancelled, 0u);
  EXPECT_GT(protected_run.cancelled_origin_bytes, 0.0);
  EXPECT_LT(protected_run.busy_seconds(8.0),
            baseline.busy_seconds(8.0) * 0.5);
}

TEST(ShieldedLoad, FlowFinishingByItsDeadlineIsNotCut) {
  // One 500 kB flow per second on a 1 MB/s uplink finishes 0.5 s after it
  // starts.  A 0.5 s deadline lets every flow complete; a 0.25 s deadline
  // cuts every flow after it has moved V - V0 = 250 kB.
  ShieldedLoadConfig config;
  config.base.requests_per_second = 1;
  config.base.origin_response_bytes = 500'000;
  config.base.client_response_bytes = 100;
  config.base.origin_uplink_mbps = 8.0;  // 1e6 B/s
  config.base.duration_s = 4.0;
  config.base.drain_s = 2.0;
  config.shed_response_bytes = 10;
  config.deadline_seconds = 0.5;
  const ShieldedLoadResult in_time = simulate_attack_load_shielded(config);
  EXPECT_EQ(in_time.deadline_cancelled, 0u);
  EXPECT_DOUBLE_EQ(in_time.cancelled_origin_bytes, 0.0);
  EXPECT_DOUBLE_EQ(in_time.busy_seconds(8.0), 2.0);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_DOUBLE_EQ(in_time.series[s].client_in_kbps, 100 * 8 / 1e3) << s;
  }

  config.deadline_seconds = 0.25;
  const ShieldedLoadResult cut = simulate_attack_load_shielded(config);
  EXPECT_EQ(cut.deadline_cancelled, 4u);
  EXPECT_DOUBLE_EQ(cut.cancelled_origin_bytes, 4 * 250'000.0);
  EXPECT_DOUBLE_EQ(cut.busy_seconds(8.0), 1.0);
  for (std::size_t s = 0; s < 4; ++s) {
    // The client gets the shed-sized 504, not the 206.
    EXPECT_DOUBLE_EQ(cut.series[s].client_in_kbps, 10 * 8 / 1e3) << s;
    EXPECT_EQ(cut.series[s].in_flight, 0u) << s;
  }
}

TEST(ShieldedLoad, InertFiltersLeaveThePlainSeries) {
  // sbr-saturate's shape: 16 000 flows pile up and drain by ~8.4 s.  Every
  // filter is on but has nothing to do -- one request per key, a cap above
  // the backlog, a deadline after every flow has finished -- so the series
  // is the unshielded one, bit for bit.
  ShieldedLoadConfig config;
  config.base.requests_per_second = 4000;
  config.base.duration_s = 4.0;
  config.base.drain_s = 100.0;
  config.base.origin_response_bytes = 65'800;
  config.base.client_response_bytes = 800;
  config.coalesce = true;
  config.max_pending = 1'000'000;
  config.deadline_seconds = 60.0;
  const ShieldedLoadResult run = simulate_attack_load_shielded(config);
  EXPECT_EQ(run.origin_fetches, 16'000u);
  EXPECT_EQ(run.deadline_cancelled, 0u);
  const std::vector<BandwidthSample> plain = simulate_attack_load(config.base);
  ASSERT_EQ(run.series.size(), plain.size());
  for (std::size_t s = 0; s < plain.size(); ++s) {
    EXPECT_EQ(run.series[s].origin_out_mbps, plain[s].origin_out_mbps) << s;
    EXPECT_EQ(run.series[s].client_in_kbps, plain[s].client_in_kbps) << s;
    EXPECT_EQ(run.series[s].in_flight, plain[s].in_flight) << s;
  }
}

// The shielded projection uses the plain one's window: a burst at every
// whole second s < duration_s, a fractional attack's last partial second
// included.
TEST(ShieldedLoad, FractionalDurationSendsItsLastBurst) {
  ShieldedLoadConfig config;
  config.base.requests_per_second = 8;
  config.base.duration_s = 2.5;
  config.base.origin_response_bytes = 1000;
  config.base.client_response_bytes = 100;
  config.same_key_burst = 4;
  config.coalesce = true;
  const ShieldedLoadResult run = simulate_attack_load_shielded(config);
  EXPECT_EQ(run.origin_fetches, 3u * 2);  // bursts at 0, 1 and 2 s
  EXPECT_EQ(run.coalesced, 3u * 6);
  // Every arrival answers the client once, as in the unshielded run.
  double shielded_kbits = 0;
  double plain_kbits = 0;
  for (const auto& s : run.series) shielded_kbits += s.client_in_kbps;
  for (const auto& s : simulate_attack_load(config.base)) plain_kbits += s.client_in_kbps;
  EXPECT_DOUBLE_EQ(plain_kbits, 3 * 8 * 100 * 8 / 1e3);
  EXPECT_DOUBLE_EQ(shielded_kbits, plain_kbits);
}

// The projection stops where its series ends: a deadline that falls after
// the last sample cuts nothing, and its flow is still in flight there.
TEST(ShieldedLoad, DeadlinePastTheSeriesCutsNothing) {
  ShieldedLoadConfig config;
  config.base.requests_per_second = 1;
  config.base.duration_s = 1.0;
  config.base.drain_s = 0;
  config.base.origin_response_bytes = 1'000'000'000;  // 8 s alone at 1000 Mbps
  config.deadline_seconds = 1.5;
  const ShieldedLoadResult run = simulate_attack_load_shielded(config);
  ASSERT_EQ(run.series.size(), 1u);
  EXPECT_EQ(run.deadline_cancelled, 0u);
  EXPECT_DOUBLE_EQ(run.cancelled_origin_bytes, 0.0);
  EXPECT_EQ(run.series[0].in_flight, 1u);
}

TEST(ShieldedLoad, RejectsInputsNoProjectionCanRun) {
  ShieldedLoadConfig config;
  config.base.origin_response_bytes = 1000;
  config.deadline_seconds = -1.0;
  EXPECT_THROW(simulate_attack_load_shielded(config), std::invalid_argument);
  config.deadline_seconds = std::nan("");
  EXPECT_THROW(simulate_attack_load_shielded(config), std::invalid_argument);
  config.deadline_seconds = 0;
  config.base.drain_s = -1.0;
  EXPECT_THROW(simulate_attack_load_shielded(config), std::invalid_argument);
  config.base.drain_s = 10.0;
  config.base.origin_uplink_mbps = 0;
  EXPECT_THROW(simulate_attack_load_shielded(config), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The shielded benches' shapes, pinned: the three Fig 7 rows of
// bench_origin_shield and the two node-exhaustion rows of
// bench_overload_storm.  Counters and in_flight series are the values the
// discrete-event engine that first ran these shapes produced.
// ---------------------------------------------------------------------------

struct PinnedShape {
  const char* name;
  ShieldedLoadConfig config;
  std::uint64_t origin_fetches;
  std::uint64_t coalesced;
  std::uint64_t shed;
  std::uint64_t deadline_cancelled;
  double cancelled_origin_bytes;
  std::vector<std::size_t> in_flight;  ///< the rest of the series is 0
};

void PrintTo(const PinnedShape& shape, std::ostream* os) { *os << shape.name; }

ShieldedLoadConfig fig7_shield_config(bool coalesce, std::size_t max_pending) {
  ShieldedLoadConfig config;
  config.base.requests_per_second = 50;
  config.base.duration_s = 30;
  config.base.origin_response_bytes = 10u << 20;
  config.base.client_response_bytes = 400;
  config.same_key_burst = 8;
  config.coalesce = coalesce;
  config.max_pending = max_pending;
  config.shed_response_bytes = max_pending ? 400 : 0;
  return config;
}

ShieldedLoadConfig exhaustion_config(double deadline_seconds) {
  ShieldedLoadConfig config;
  config.base.requests_per_second = 20;
  config.base.origin_response_bytes = 10u << 20;
  config.base.client_response_bytes = 822;
  config.base.origin_uplink_mbps = 1000.0;
  config.base.duration_s = 15.0;
  config.base.drain_s = 45.0;
  config.shed_response_bytes = 500;
  config.deadline_seconds = deadline_seconds;
  return config;
}

std::vector<std::size_t> unshielded_fig7_in_flight() {
  std::vector<std::size_t> in_flight;
  for (std::size_t s = 1; s <= 30; ++s) in_flight.push_back(50 * s);
  in_flight.insert(in_flight.end(), 5, 1500);
  in_flight.insert(in_flight.end(), 5, 1450);
  return in_flight;
}

const PinnedShape kPinnedShapes[] = {
    {"Fig7None", fig7_shield_config(false, 0), 1500, 0, 0, 0, 0,
     unshielded_fig7_in_flight()},
    {"Fig7Coalescing", fig7_shield_config(true, 0), 210, 1290, 0, 0, 0, {}},
    {"Fig7Admission", fig7_shield_config(false, 8), 240, 0, 1260, 0, 0, {}},
    {"ExhaustionNoDeadline", exhaustion_config(0), 300, 0, 0, 0, 0,
     {20, 40, 40, 60, 80, 80, 100, 120, 120, 140, 160, 160, 180,
      200, 220, 200, 200, 180, 180, 160, 160, 140, 120, 100, 40}},
    {"ExhaustionDeadline2s", exhaustion_config(2.0), 300, 0, 0, 300, 2e9,
     {20, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 20}},
};

class ShieldedLoadPinned : public ::testing::TestWithParam<PinnedShape> {};

TEST_P(ShieldedLoadPinned, MatchesTheDiscreteEventRecord) {
  const PinnedShape& shape = GetParam();
  const ShieldedLoadResult run = simulate_attack_load_shielded(shape.config);
  EXPECT_EQ(run.origin_fetches, shape.origin_fetches);
  EXPECT_EQ(run.coalesced, shape.coalesced);
  EXPECT_EQ(run.shed, shape.shed);
  EXPECT_EQ(run.deadline_cancelled, shape.deadline_cancelled);
  EXPECT_DOUBLE_EQ(run.cancelled_origin_bytes, shape.cancelled_origin_bytes);
  ASSERT_EQ(run.series.size(), series_length(shape.config.base));
  for (std::size_t s = 0; s < run.series.size(); ++s) {
    const std::size_t expected = s < shape.in_flight.size() ? shape.in_flight[s] : 0;
    EXPECT_EQ(run.series[s].in_flight, expected) << "second " << s;
  }
}

TEST_P(ShieldedLoadPinned, EveryOriginByteBelongsToACompletedOrCutFlow) {
  // Drained to empty, the uplink has moved exactly the completed flows'
  // bytes plus what the cut ones moved before their deadline.
  ShieldedLoadConfig config = GetParam().config;
  config.base.drain_s = 200.0;
  const ShieldedLoadResult run = simulate_attack_load_shielded(config);
  ASSERT_EQ(run.series.back().in_flight, 0u);
  double origin_bytes = 0;
  for (const auto& s : run.series) origin_bytes += s.origin_out_mbps * 1e6 / 8.0;
  const double moved =
      static_cast<double>(run.origin_fetches - run.deadline_cancelled) *
          static_cast<double>(config.base.origin_response_bytes) +
      run.cancelled_origin_bytes;
  EXPECT_NEAR(origin_bytes, moved, moved * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(BenchShapes, ShieldedLoadPinned,
                         ::testing::ValuesIn(kPinnedShapes),
                         [](const ::testing::TestParamInfo<PinnedShape>& info) {
                           return std::string(info.param.name);
                         });

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
