// Determinism contract of the sharded campaign engine
// (src/core/parallel.h, docs/parallel-model.md):
//
//   * a ShardPlan is a pure function of (total, shards, seed, group) --
//     never of the thread count, the hardware, or a clock;
//   * per-shard RNG streams depend only on (seed, shard index), so pinning
//     the shard count pins every stream;
//   * a sharded campaign produces identical results at every thread count,
//     and -- for campaigns without cross-shard state -- identical results
//     to the serial run, down to recorder byte totals, per-node byte
//     vectors, detector stats, merged metrics counters, and merged traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/rangeamp.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rangeamp {
namespace {

// ---------------------------------------------------------------------------
// ShardPlan
// ---------------------------------------------------------------------------

TEST(ShardPlanTest, CoversGridContiguouslyAndBalanced) {
  const core::ShardPlan plan(103, 8);
  ASSERT_EQ(plan.size(), 8u);
  std::uint64_t expected_begin = 0;
  std::uint64_t min_size = UINT64_MAX, max_size = 0;
  for (const core::Shard& shard : plan.shards()) {
    EXPECT_EQ(shard.begin, expected_begin);
    EXPECT_GT(shard.end, shard.begin);  // no empty shards
    expected_begin = shard.end;
    min_size = std::min(min_size, shard.size());
    max_size = std::max(max_size, shard.size());
  }
  EXPECT_EQ(expected_begin, 103u);
  EXPECT_LE(max_size - min_size, 1u);
}

TEST(ShardPlanTest, AlignsBoundariesToGroups) {
  // A same-key burst group must never straddle a shard boundary.
  const core::ShardPlan plan(100, 4, /*seed=*/0, /*group=*/8);
  std::uint64_t expected_begin = 0;
  for (const core::Shard& shard : plan.shards()) {
    EXPECT_EQ(shard.begin % 8, 0u);
    EXPECT_EQ(shard.begin, expected_begin);
    expected_begin = shard.end;
  }
  EXPECT_EQ(plan.shards().back().end, 100u);
}

TEST(ShardPlanTest, ClampsShardCountToGroupCount) {
  const core::ShardPlan plan(5, 16);
  EXPECT_EQ(plan.size(), 5u);  // never an empty shard
  const core::ShardPlan grouped(64, 16, 0, /*group=*/32);
  EXPECT_EQ(grouped.size(), 2u);  // only two whole groups to hand out
  const core::ShardPlan empty(0, 4);
  EXPECT_EQ(empty.size(), 0u);
}

TEST(ShardPlanTest, SeedsDependOnlyOnSeedAndIndex) {
  // Stream stability: shard i's seed must not move when the shard count
  // changes -- growing a campaign appends streams, never perturbs them.
  const core::ShardPlan two(1000, 2, 2020);
  const core::ShardPlan eight(1000, 8, 2020);
  for (std::size_t i = 0; i < two.size(); ++i) {
    EXPECT_EQ(two.shards()[i].seed, eight.shards()[i].seed);
    EXPECT_EQ(two.shards()[i].seed, core::shard_seed(2020, i));
  }
  // Distinct indices and distinct campaign seeds give distinct streams.
  EXPECT_NE(core::shard_seed(2020, 0), core::shard_seed(2020, 1));
  EXPECT_NE(core::shard_seed(2020, 0), core::shard_seed(2021, 0));
}

// ---------------------------------------------------------------------------
// run_shards / run_sharded
// ---------------------------------------------------------------------------

TEST(RunShardsTest, RethrowsFirstShardError) {
  // Every shard from 2 on throws a message naming its index; the lowest
  // index must come back whatever order the workers finished in.
  const core::ShardPlan plan(8, 8);
  const auto boom = [](const core::Shard& shard) {
    if (shard.index >= 2) {
      throw std::runtime_error("shard " + std::to_string(shard.index));
    }
  };
  for (const std::size_t threads : {1u, 4u}) {
    try {
      core::run_shards(plan, threads, boom);
      ADD_FAILURE() << "no exception at threads=" << threads;
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "shard 2") << "threads=" << threads;
    }
  }
}

TEST(RunShardsTest, RunsEveryShardOnceOnCallerIncludedWorkers) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::size_t shards : {1u, 5u, 64u}) {
    const core::ShardPlan plan(shards, shards);
    for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
      std::vector<std::atomic<int>> runs(shards);
      std::mutex mu;
      std::set<std::thread::id> workers;
      core::run_shards(plan, threads, [&](const core::Shard& shard) {
        runs[shard.index].fetch_add(1, std::memory_order_relaxed);
        {
          const std::lock_guard<std::mutex> lock(mu);
          workers.insert(std::this_thread::get_id());
        }
        // Long enough for every started thread to claim a shard, so a
        // runner that starts too many threads shows more ids than it may.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      });
      for (std::size_t i = 0; i < shards; ++i) {
        EXPECT_EQ(runs[i].load(), 1)
            << "shard " << i << " of " << shards << ", threads=" << threads;
      }
      // The caller counts as one of the workers, so at most
      // min(threads, shards) - 1 threads are started.
      const std::size_t cap = std::min(threads, shards);
      EXPECT_LE(workers.size(), cap)
          << shards << " shards, threads=" << threads;
      if (cap == 1) {
        EXPECT_EQ(workers, std::set<std::thread::id>{caller})
            << shards << " shards, threads=" << threads;
      }
    }
  }
}

struct SeenShards {
  std::vector<core::Shard> shards;
  void merge(const SeenShards& other) {
    shards.insert(shards.end(), other.shards.begin(), other.shards.end());
  }
};

std::vector<core::Shard> shards_seen(std::size_t shards, int threads) {
  return core::run_sharded<SeenShards>(
             /*total=*/30, shards, threads, /*seed=*/2020, /*group=*/1, {},
             [](const core::Shard& shard, core::ShardSinks) {
               return SeenShards{{shard}};
             })
      .shards;
}

void expect_same_shard(const core::Shard& a, const core::Shard& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.begin, b.begin);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.seed, b.seed);
}

TEST(RunShardedTest, OneShardTakesTheCampaignSeedItself) {
  // The serial path is one block over the whole grid under the campaign
  // seed -- not shard_seed(seed, 0) -- so pre-sharding streams replay.
  for (const int threads : {1, 4}) {
    const std::vector<core::Shard> seen = shards_seen(1, threads);
    ASSERT_EQ(seen.size(), 1u);
    expect_same_shard(seen[0], core::Shard{0, 0, 30, 2020});
  }
}

TEST(RunShardedTest, ManyShardsTakeThePlansShardsInOrder) {
  const core::ShardPlan plan(30, 3, 2020);
  for (const int threads : {1, 4}) {
    const std::vector<core::Shard> seen = shards_seen(3, threads);
    ASSERT_EQ(seen.size(), plan.size());
    for (std::size_t i = 0; i < seen.size(); ++i) {
      expect_same_shard(seen[i], plan.shards()[i]);
    }
    EXPECT_NE(seen[0].seed, 2020u);
  }
}

// ---------------------------------------------------------------------------
// Sharded SBR campaign
// ---------------------------------------------------------------------------

core::SbrCampaignConfig::Builder small_campaign() {
  return core::SbrCampaignConfig::Builder()
      .vendor(cdn::Vendor::kCloudflare)
      .file_size(256u << 10)
      .requests_per_second(20)
      .duration_s(5)
      .edge_nodes(4);
}

void expect_same_result(const core::SbrCampaignResult& a,
                        const core::SbrCampaignResult& b) {
  EXPECT_EQ(a.attacker.request_bytes, b.attacker.request_bytes);
  EXPECT_EQ(a.attacker.response_bytes, b.attacker.response_bytes);
  EXPECT_EQ(a.attacker_truncated, b.attacker_truncated);
  EXPECT_EQ(a.origin.response_bytes, b.origin.response_bytes);
  EXPECT_DOUBLE_EQ(a.amplification, b.amplification);
  EXPECT_EQ(a.nodes_touched, b.nodes_touched);
  EXPECT_EQ(a.per_node_upstream_bytes, b.per_node_upstream_bytes);
  EXPECT_EQ(a.detector_alarmed, b.detector_alarmed);
  EXPECT_EQ(a.detector_stats.samples, b.detector_stats.samples);
  EXPECT_DOUBLE_EQ(a.detector_stats.asymmetry, b.detector_stats.asymmetry);
  EXPECT_DOUBLE_EQ(a.detector_stats.tiny_fraction, b.detector_stats.tiny_fraction);
  EXPECT_DOUBLE_EQ(a.detector_stats.miss_fraction, b.detector_stats.miss_fraction);
  ASSERT_EQ(a.series.size(), b.series.size());
}

TEST(ParallelSbrCampaignTest, ShardedEqualsSerial) {
  // Cache-busting SBR exchanges are independent, so the sharded reduction
  // must reproduce the serial run exactly -- not just statistically.
  const auto serial = core::run_sbr_campaign(small_campaign().build());
  const auto sharded =
      core::run_sbr_campaign(small_campaign().shards(8).threads(2).build());
  expect_same_result(serial, sharded);
  EXPECT_GT(serial.amplification, 1.0);
  EXPECT_TRUE(serial.detector_alarmed);
}

TEST(ParallelSbrCampaignTest, ResultsStableAcrossThreadCounts) {
  // `shards` pins the decomposition; `threads` must be unobservable.
  const auto base = small_campaign().shards(8);
  const auto t1 = core::run_sbr_campaign(
      core::SbrCampaignConfig::Builder(base).threads(1).build());
  const auto t2 = core::run_sbr_campaign(
      core::SbrCampaignConfig::Builder(base).threads(2).build());
  const auto t8 = core::run_sbr_campaign(
      core::SbrCampaignConfig::Builder(base).threads(8).build());
  expect_same_result(t1, t2);
  expect_same_result(t1, t8);
}

TEST(ParallelSbrCampaignTest, SameKeyBurstShardedEqualsSerial) {
  // Burst-aligned shard boundaries keep every same-key group (whose later
  // members hit the cache the first member filled) inside one shard.
  const auto config = small_campaign().same_key_burst(5);
  const auto serial = core::run_sbr_campaign(
      core::SbrCampaignConfig::Builder(config).build());
  const auto sharded = core::run_sbr_campaign(
      core::SbrCampaignConfig::Builder(config).shards(4).threads(8).build());
  expect_same_result(serial, sharded);
}

TEST(ParallelSbrCampaignTest, MergedMetricsCountersEqualSerial) {
  obs::MetricsRegistry serial_metrics;
  auto serial_config = small_campaign().build();
  serial_config.metrics = &serial_metrics;
  core::run_sbr_campaign(serial_config);

  obs::MetricsRegistry sharded_metrics;
  auto sharded_config = small_campaign().shards(4).threads(2).build();
  sharded_config.metrics = &sharded_metrics;
  core::run_sbr_campaign(sharded_config);

  // Counters and histograms add across shards; the Prometheus exposition
  // (which excludes the time series) must come out identical.
  EXPECT_EQ(serial_metrics.to_prometheus(), sharded_metrics.to_prometheus());
  EXPECT_GT(sharded_metrics.metric_count(), 0u);
  EXPECT_GT(sharded_metrics.sample_count(), 0u);
}

TEST(ParallelSbrCampaignTest, MergedTraceKeepsParentageAndByteTotals) {
  obs::Tracer serial_tracer;
  auto serial_config = small_campaign().build();
  serial_config.tracer = &serial_tracer;
  core::run_sbr_campaign(serial_config);

  obs::Tracer tracer;
  auto config = small_campaign().shards(4).threads(2).build();
  config.tracer = &tracer;
  const auto result = core::run_sbr_campaign(config);

  ASSERT_FALSE(tracer.spans().empty());
  // Rebased ids must stay self-consistent: ids are 1..N in order, parents
  // precede children, and a child's trace equals its parent's.
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const obs::Span& span = tracer.spans()[i];
    EXPECT_EQ(span.id, i + 1);
    if (span.parent != 0) {
      ASSERT_LT(span.parent, span.id);
      EXPECT_EQ(tracer.spans()[span.parent - 1].trace, span.trace);
    }
  }
  // The merged tracer is the serial tracer: same span count, same trace
  // count, same per-segment byte sums.
  EXPECT_EQ(tracer.spans().size(), serial_tracer.spans().size());
  EXPECT_EQ(tracer.trace_count(), serial_tracer.trace_count());
  EXPECT_EQ(tracer.segment_totals(net::SegmentId::kClientCdn),
            serial_tracer.segment_totals(net::SegmentId::kClientCdn));
  EXPECT_EQ(tracer.segment_totals(net::SegmentId::kCdnOrigin),
            serial_tracer.segment_totals(net::SegmentId::kCdnOrigin));
  // The cdn-origin segment has a single wire layer, so its trace-side sum
  // is the recorder total.  (The client segment is observed twice per
  // exchange -- the attacker's wire and the cluster's ingress wire both
  // trace it, in serial and sharded runs alike -- so it is compared against
  // the serial tracer above, not against the single-view recorder.)
  const net::TrafficTotals origin = tracer.segment_totals(net::SegmentId::kCdnOrigin);
  EXPECT_EQ(origin.response_bytes, result.origin.response_bytes);
}

// ---------------------------------------------------------------------------
// Sharded OBR campaign
// ---------------------------------------------------------------------------

TEST(ParallelObrCampaignTest, ShardedEqualsSerialAndStableAcrossThreads) {
  const auto base =
      core::ObrCampaignConfig::Builder{}.requests_per_second(2).duration_s(6);

  const auto serial = core::run_obr_campaign(base.build());
  ASSERT_GT(serial.n, 0u);

  for (const int threads : {1, 8}) {
    const auto config =
        core::ObrCampaignConfig::Builder{base}.shards(4).threads(threads).build();
    const auto sharded = core::run_obr_campaign(config);
    EXPECT_EQ(sharded.n, serial.n);
    EXPECT_EQ(sharded.fcdn_bcdn_bytes_per_request,
              serial.fcdn_bcdn_bytes_per_request);
    EXPECT_EQ(sharded.bcdn_origin_response_bytes,
              serial.bcdn_origin_response_bytes);
    EXPECT_EQ(sharded.attacker_response_bytes, serial.attacker_response_bytes);
    EXPECT_EQ(sharded.attacker_truncated, serial.attacker_truncated);
    EXPECT_DOUBLE_EQ(sharded.amplification, serial.amplification);
  }
}

// ---------------------------------------------------------------------------
// Sharded benign workload
// ---------------------------------------------------------------------------

TEST(ParallelLegitWorkloadTest, ShardedStableAcrossThreadCounts) {
  // The sharded workload draws different streams than the serial one (each
  // shard owns SplitMix64(seed ^ index)), but with `shards` pinned the run
  // must be byte-identical at every thread count.
  const auto with_threads = [](int threads) {
    return core::LegitWorkloadConfig::Builder{}
        .requests(300)
        .shards(3)
        .threads(threads)
        .build();
  };
  const auto t1 = core::run_legit_workload(with_threads(1));
  const auto t2 = core::run_legit_workload(with_threads(2));
  const auto t8 = core::run_legit_workload(with_threads(8));

  for (const auto* other : {&t2, &t8}) {
    EXPECT_EQ(t1.client.request_bytes, other->client.request_bytes);
    EXPECT_EQ(t1.client.response_bytes, other->client.response_bytes);
    EXPECT_EQ(t1.origin.response_bytes, other->origin.response_bytes);
    EXPECT_DOUBLE_EQ(t1.cache_hit_rate, other->cache_hit_rate);
    EXPECT_EQ(t1.detector_alarmed, other->detector_alarmed);
    EXPECT_EQ(t1.detector_stats.samples, other->detector_stats.samples);
  }
  // The benign mix must stay benign when sharded.
  EXPECT_FALSE(t1.detector_alarmed);
  EXPECT_GT(t1.cache_hit_rate, 0.0);
}

TEST(ParallelLegitWorkloadTest, SerialPathUnchangedByDefault) {
  // shards = 1 must keep using config.seed directly (the legacy stream):
  // two default-config runs agree with each other and with a shards=1,
  // threads=8 run.
  const auto a =
      core::run_legit_workload(core::LegitWorkloadConfig::Builder{}.build());
  // threads without shards must change nothing
  const auto b = core::run_legit_workload(
      core::LegitWorkloadConfig::Builder{}.threads(8).build());
  EXPECT_EQ(a.client.request_bytes, b.client.request_bytes);
  EXPECT_EQ(a.client.response_bytes, b.client.response_bytes);
  EXPECT_EQ(a.origin.response_bytes, b.origin.response_bytes);
  EXPECT_DOUBLE_EQ(a.cache_hit_rate, b.cache_hit_rate);
}

// ---------------------------------------------------------------------------
// Parallel SBR sweep
// ---------------------------------------------------------------------------

TEST(ParallelSweepTest, SweepSbrStableAcrossThreadCounts) {
  const std::vector<std::uint64_t> sizes{1u << 20, 2u << 20, 3u << 20,
                                         4u << 20, 5u << 20};
  const auto serial = core::sweep_sbr(cdn::Vendor::kAkamai, sizes);
  const auto parallel = core::sweep_sbr(cdn::Vendor::kAkamai, sizes, {},
                                        nullptr, /*threads=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].client_response_bytes, parallel[i].client_response_bytes);
    EXPECT_EQ(serial[i].origin_response_bytes, parallel[i].origin_response_bytes);
    EXPECT_EQ(serial[i].client_request_bytes, parallel[i].client_request_bytes);
    EXPECT_EQ(serial[i].origin_request_bytes, parallel[i].origin_request_bytes);
    EXPECT_DOUBLE_EQ(serial[i].amplification, parallel[i].amplification);
    EXPECT_EQ(serial[i].exploited_case, parallel[i].exploited_case);
  }
}

// ---------------------------------------------------------------------------
// Obs-layer merges
// ---------------------------------------------------------------------------

TEST(ObsMergeTest, MetricsRegistryMergeAddsAndOrders) {
  obs::MetricsRegistry a, b;
  a.counter("c_total").inc(3);
  b.counter("c_total").inc(4);
  b.counter("only_b_total").inc(1);
  a.gauge("g").set(1.5);
  b.gauge("g").set(2.5);
  a.histogram("h", {1, 10}).observe(0.5);
  b.histogram("h", {1, 10}).observe(5);
  a.sample(2.0);
  b.sample(1.0);

  a.merge_from(b);
  EXPECT_EQ(a.counter("c_total").value(), 7u);
  EXPECT_EQ(a.counter("only_b_total").value(), 1u);
  EXPECT_DOUBLE_EQ(a.gauge("g").value(), 4.0);
  EXPECT_EQ(a.histogram("h", {1, 10}).count(), 2u);
  // Merged series is stable-sorted by timestamp.
  const std::string csv = a.series_csv();
  EXPECT_LT(csv.find("1.000"), csv.find("2.000"));
}

TEST(ObsMergeTest, HistogramMergeRejectsMismatchedBounds) {
  obs::Histogram a({1, 10});
  obs::Histogram b({1, 100});
  EXPECT_THROW(a.merge_from(b), std::invalid_argument);
}

TEST(ObsMergeTest, TracerMergeRebasesIdsAndTraces) {
  obs::Tracer a, b;
  {
    const obs::SpanId root = a.begin_span("a.root");
    a.end_span(root);
  }
  {
    const obs::SpanId root = b.begin_span("b.root");
    const obs::SpanId child = b.begin_span("b.child");
    b.note(child, "k", "v");
    b.end_span(child);
    b.end_span(root);
  }
  a.merge_from(b);
  ASSERT_EQ(a.spans().size(), 3u);
  EXPECT_EQ(a.trace_count(), 2u);
  EXPECT_EQ(a.spans()[1].name, "b.root");
  EXPECT_EQ(a.spans()[1].parent, 0u);
  EXPECT_EQ(a.spans()[2].parent, a.spans()[1].id);
  EXPECT_EQ(a.spans()[2].trace, a.spans()[1].trace);
  EXPECT_NE(a.spans()[0].trace, a.spans()[1].trace);
}

// ---------------------------------------------------------------------------
// Cache-pollution campaign
// ---------------------------------------------------------------------------

core::CachePollutionConfig small_pollution() {
  core::CachePollutionConfig config;
  config.cache.max_bytes = 2ull << 20;
  config.cache.policy = cdn::CacheEvictionPolicy::kS3Fifo;
  config.catalog_objects = 64;
  config.object_bytes = 8 * 1024;
  config.attack_object_bytes = 64 * 1024;
  config.warmup_requests = 128;
  config.requests = 512;
  config.seed = 2020;
  return config;
}

void expect_same_pollution(const core::CachePollutionResult& a,
                           const core::CachePollutionResult& b) {
  EXPECT_EQ(a.legit_requests, b.legit_requests);
  EXPECT_EQ(a.attack_requests, b.attack_requests);
  EXPECT_EQ(a.legit_hits, b.legit_hits);
  EXPECT_EQ(a.attacker.request_bytes, b.attacker.request_bytes);
  EXPECT_EQ(a.attacker.response_bytes, b.attacker.response_bytes);
  EXPECT_EQ(a.origin_response_bytes, b.origin_response_bytes);
  EXPECT_EQ(a.attack_origin_response_bytes, b.attack_origin_response_bytes);
  EXPECT_EQ(a.cache_bytes_peak, b.cache_bytes_peak);
  EXPECT_EQ(a.cache_bytes_end, b.cache_bytes_end);
  EXPECT_EQ(a.cache_evictions, b.cache_evictions);
  EXPECT_EQ(a.cache_admission_rejects, b.cache_admission_rejects);
}

TEST(CachePollutionCampaignTest, ReplaysByteIdentically) {
  const core::CachePollutionConfig config = small_pollution();
  expect_same_pollution(core::run_cache_pollution_campaign(config),
                        core::run_cache_pollution_campaign(config));
}

TEST(CachePollutionCampaignTest, ShardedResultIndependentOfThreadCount) {
  core::CachePollutionConfig config = small_pollution();
  config.shards = 2;
  config.threads = 1;
  const core::CachePollutionResult serial_threads =
      core::run_cache_pollution_campaign(config);
  config.threads = 4;
  const core::CachePollutionResult parallel_threads =
      core::run_cache_pollution_campaign(config);
  expect_same_pollution(serial_threads, parallel_threads);
}

TEST(CachePollutionCampaignTest, MixesBothWorkloadsAndRespectsBudget) {
  const core::CachePollutionConfig config = small_pollution();
  const core::CachePollutionResult r =
      core::run_cache_pollution_campaign(config);
  EXPECT_EQ(r.legit_requests + r.attack_requests, config.requests);
  EXPECT_GT(r.legit_requests, 0u);
  EXPECT_GT(r.attack_requests, 0u);
  EXPECT_LE(r.cache_bytes_peak, config.cache.max_bytes);
  EXPECT_GT(r.cache_evictions, 0u);
  // Every 1-byte attack range pulls the full entity upstream (Deletion
  // policy): amplification well above 1.
  EXPECT_GT(r.attack_amplification, 10.0);
}

TEST(CachePollutionCampaignTest, ShardedMergesMetricsInShardOrder) {
  core::CachePollutionConfig config = small_pollution();
  config.shards = 2;
  config.threads = 2;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  const core::CachePollutionResult r =
      core::run_cache_pollution_campaign(config);
  EXPECT_EQ(
      metrics.counter("cdn_cache_evictions_total{vendor=\"Akamai\"}").value(),
      r.cache_evictions);
  EXPECT_GT(metrics.counter("cdn_requests_total{vendor=\"Akamai\"}").value(),
            0u);
}

// ---------------------------------------------------------------------------
// Gossip-detection campaign
// ---------------------------------------------------------------------------

core::GossipDetectionConfig small_gossip() {
  core::GossipDetectionConfig config;
  config.edge_nodes = 4;
  config.legit_users = 400;
  config.catalog_objects = 32;
  config.object_bytes = 4 * 1024;
  config.attack_object_bytes = 256 * 1024;
  config.probe_fraction = 0.05;
  config.requests = 3000;
  config.attack_every = 10;
  config.attacker_rotation_requests = 4;
  config.detection.enabled = true;
  config.detection.quarantine_enabled = true;
  config.detection.gossip.enabled = true;
  config.detection.gossip.fanout = 2;
  return config;
}

TEST(GossipDetectionCampaignTest, ShardedScheduleEqualsSerial) {
  // The schedule is filled in parallel but replayed serially, so eight
  // shards on four threads must reproduce the one-shard run exactly.
  const core::GossipDetectionResult serial =
      core::run_gossip_detection_campaign(small_gossip());
  core::GossipDetectionConfig config = small_gossip();
  config.shards = 8;
  config.threads = 4;
  const core::GossipDetectionResult sharded =
      core::run_gossip_detection_campaign(config);

  EXPECT_EQ(serial.legit_requests, sharded.legit_requests);
  EXPECT_EQ(serial.attack_requests, sharded.attack_requests);
  EXPECT_EQ(serial.legit_quarantined, sharded.legit_quarantined);
  EXPECT_EQ(serial.attack_quarantined, sharded.attack_quarantined);
  EXPECT_DOUBLE_EQ(serial.collateral_rate, sharded.collateral_rate);
  EXPECT_DOUBLE_EQ(serial.legit_hit_rate, sharded.legit_hit_rate);
  EXPECT_EQ(serial.convergence_exchange, sharded.convergence_exchange);
  EXPECT_DOUBLE_EQ(serial.convergence_rotations, sharded.convergence_rotations);
  EXPECT_DOUBLE_EQ(serial.detection_latency_seconds,
                   sharded.detection_latency_seconds);
  EXPECT_EQ(serial.alarms, sharded.alarms);
  EXPECT_EQ(serial.final_coverage, sharded.final_coverage);
  EXPECT_EQ(serial.signatures_expired, sharded.signatures_expired);
  EXPECT_EQ(serial.gossip.rounds, sharded.gossip.rounds);
  EXPECT_EQ(serial.gossip.messages_sent, sharded.gossip.messages_sent);
  EXPECT_EQ(serial.gossip.messages_dropped, sharded.gossip.messages_dropped);
  EXPECT_EQ(serial.gossip.signatures_sent, sharded.gossip.signatures_sent);
  EXPECT_EQ(serial.gossip.signatures_accepted,
            sharded.gossip.signatures_accepted);
  // The run exercises what the schedule drives: attacks, alarms, and a
  // cluster-wide quarantine.
  EXPECT_GT(serial.attack_quarantined, 0u);
  EXPECT_GT(serial.alarms, 0u);
  EXPECT_GE(serial.convergence_exchange, 0);
  EXPECT_GT(serial.legit_hit_rate, 0.0);
}

}  // namespace
}  // namespace rangeamp
