#include "core/campaign.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "cdn/cluster.h"
#include "cdn/gossip.h"
#include "core/obr.h"
#include "core/parallel.h"
#include "core/sbr.h"
#include "core/testbed.h"
#include "http/generator.h"

namespace rangeamp::core {
namespace {

// The `shards`/`threads` checks every campaign Builder shares.
void check_parallelism(const char* config, std::size_t shards, int threads) {
  if (shards == 0) {
    throw std::invalid_argument(std::string{config} + ": shards must be >= 1");
  }
  if (threads < 1) {
    throw std::invalid_argument(std::string{config} + ": threads must be >= 1");
  }
}

// Adds `from` into `into` element by element; an empty `into` grows to fit.
void add_each(std::vector<std::uint64_t>& into,
              const std::vector<std::uint64_t>& from) {
  into.resize(std::max(into.size(), from.size()));
  for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
}

void add_shield_stats(cdn::ShieldStats& into, const cdn::ShieldStats& from) {
  into.loop_rejected += from.loop_rejected;
  into.hop_cap_rejected += from.hop_cap_rejected;
  into.coalesced_hits += from.coalesced_hits;
  into.fill_fetches += from.fill_fetches;
  into.shed_breaker_open += from.shed_breaker_open;
  into.shed_admission += from.shed_admission;
  into.breaker_trips += from.breaker_trips;
  into.half_open_probes += from.half_open_probes;
  into.shed_responses += from.shed_responses;
}

// Campaign blocks read counters only.  The origin's request log and the
// nodes' upstream exchange logs would keep an entry per exchange that
// nothing reads.
void drop_unread_logs(origin::OriginServer& origin, cdn::EdgeCluster& cluster) {
  origin.set_keep_log(false);
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    cluster.node(i).upstream_traffic().set_keep_log(false);
  }
}

// Zipf(1) popularity over object ranks (rank-k weight 1/k), as the
// pollution and gossip campaigns draw their legit reads.  The CDF is built
// with divisions only -- std::pow is not bit-stable across libms and the
// committed CSVs must regenerate byte-identically everywhere.
class ZipfSampler {
 public:
  explicit ZipfSampler(std::size_t objects) : cdf_(objects) {
    for (std::size_t i = 0; i < objects; ++i) {
      total_weight_ += 1.0 / static_cast<double>(i + 1);
      cdf_[i] = total_weight_;
    }
  }

  // 53 uniform bits -> [0, 1) -> CDF inversion by binary search.
  std::size_t rank(http::Rng& rng) const {
    const double u =
        static_cast<double>(rng.next() >> 11) * 0x1.0p-53 * total_weight_;
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
  double total_weight_ = 0;
};

// ---------------------------------------------------------------------------
// SBR campaign: one block per shard (core/parallel.h's run_sharded).
//
// One block runs the exchanges [begin, end) of the campaign grid against its
// OWN testbed (origin, cluster, recorder -- the per-shard ownership rule of
// core/parallel.h), stamping each exchange with its *global* index so the
// cache-busting keys, node pinning, and simulated clock are the same whether
// the grid runs as one block or many.  The serial path is exactly the
// single-block call [0, total) with the caller's tracer/metrics sinks, which
// is what keeps every pre-sharding CSV byte-identical.
// ---------------------------------------------------------------------------

struct SbrBlock {
  net::TrafficTotals attacker;
  std::uint64_t attacker_truncated = 0;
  std::uint64_t origin_response_bytes = 0;
  std::vector<std::uint64_t> per_node_upstream_bytes;
  std::vector<std::uint64_t> per_node_ingress_exchanges;
  cdn::ShieldStats shield;
  /// Per-exchange detector samples in global-index order; the campaign
  /// replays the concatenation through one detector so the verdict is a
  /// function of the merged sample stream, not of thread scheduling.
  std::vector<DetectorSample> samples;

  void merge(const SbrBlock& other) {
    attacker += other.attacker;
    attacker_truncated += other.attacker_truncated;
    origin_response_bytes += other.origin_response_bytes;
    add_each(per_node_upstream_bytes, other.per_node_upstream_bytes);
    add_each(per_node_ingress_exchanges, other.per_node_ingress_exchanges);
    add_shield_stats(shield, other.shield);
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
  }
};

SbrBlock run_sbr_block(const SbrCampaignConfig& config, const SbrPlan& plan,
                       std::uint64_t begin, std::uint64_t end,
                       obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  origin::OriginServer origin;
  origin.resources().add_synthetic("/target.bin", config.file_size);

  cdn::EdgeCluster cluster(
      [&] {
        cdn::VendorProfile profile = cdn::make_profile(config.vendor, config.options);
        if (config.mitigation) {
          profile = apply_mitigation(std::move(profile), *config.mitigation);
        }
        profile.traits.shield = config.shield;
        return profile;
      },
      config.edge_nodes, origin, config.selection, config.transport);
  drop_unread_logs(origin, cluster);

  // Campaign time: request i is sent at i/m seconds.  The nodes' shielding
  // layers (fill-lock windows, breaker open timers) key off this clock.
  double sim_now = begin > 0 && config.requests_per_second > 0
                       ? static_cast<double>(begin) /
                             static_cast<double>(config.requests_per_second)
                       : 0;
  cluster.set_clock([&sim_now] { return sim_now; });

  net::TrafficRecorder client_traffic("attacker");
  client_traffic.set_keep_log(false);
  const std::unique_ptr<net::Transport> client_wire =
      net::make_transport(config.transport, client_traffic, cluster);

  if (tracer) {
    tracer->set_clock([&sim_now] { return sim_now; });
    cluster.set_tracer(tracer);
    client_wire->set_tracer(tracer);
  }
  obs::Histogram* af_histogram = nullptr;
  if (metrics) {
    cluster.set_metrics(metrics);
    af_histogram = &metrics->histogram(
        "sbr_amplification_factor{vendor=\"" +
            std::string{cdn::vendor_name(config.vendor)} + "\"}",
        obs::amplification_buckets(),
        "per-request origin/client response byte ratio");
  }

  SbrBlock block;
  block.samples.reserve(static_cast<std::size_t>(end - begin));
  const std::uint64_t burst =
      config.same_key_burst > 1 ? static_cast<std::uint64_t>(config.same_key_burst) : 1;
  std::uint64_t origin_before = 0;
  std::int64_t last_sampled_second = -1;
  for (std::uint64_t i = begin; i < end; ++i) {
    if (config.requests_per_second > 0) {
      sim_now = static_cast<double>(i) /
                static_cast<double>(config.requests_per_second);
    }
    if (metrics) {
      // One snapshot per simulated second, stamped on the sim clock.
      const auto second = static_cast<std::int64_t>(sim_now);
      if (second > last_sampled_second) {
        metrics->sample(sim_now);
        last_sampled_second = second;
      }
    }
    // One amplification unit may need several sends (KeyCDN's pair); the
    // attacker reuses its connection, so every send of a unit reaches the
    // same ingress node.  Round-robin therefore rotates per *unit* -- or per
    // key group, since a URL-hashing balancer maps same-key units together.
    if (config.selection == cdn::NodeSelection::kRoundRobin) {
      cluster.pin((i / burst) % config.edge_nodes);
    }
    http::Request request = http::make_get(
        std::string{kDefaultHost}, "/target.bin?x=" + std::to_string(i / burst));
    request.headers.add("Range", plan.range.to_string());
    const net::TrafficTotals client_before = client_traffic.totals();
    {
      // One root span per amplification unit: the wire and CDN spans of this
      // unit's sends nest under it.
      obs::SpanScope unit(tracer, "sbr.request");
      unit.note("index", std::to_string(i));
      unit.note("target", request.target);
      for (int s = 0; s < plan.sends; ++s) client_wire->transfer(request);
    }

    const std::uint64_t origin_after = cluster.total_upstream_response_bytes();
    const net::TrafficTotals client_after = client_traffic.totals();
    const DetectorSample sample = make_detector_sample(
        selected_bytes_of(plan.range, config.file_size), config.file_size,
        {client_after.request_bytes - client_before.request_bytes,
         client_after.response_bytes - client_before.response_bytes},
        {0, origin_after - origin_before});
    origin_before = origin_after;
    if (af_histogram) {
      af_histogram->observe(amplification_factor(sample.origin, sample.client));
    }
    block.samples.push_back(sample);
  }
  if (metrics) metrics->sample(sim_now);
  if (tracer) tracer->set_clock(nullptr);

  block.attacker = client_traffic.totals();
  block.attacker_truncated = client_traffic.truncated_count();
  block.origin_response_bytes = cluster.total_upstream_response_bytes();
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    block.per_node_upstream_bytes.push_back(
        cluster.node(i).upstream_traffic().response_bytes());
    block.per_node_ingress_exchanges.push_back(
        cluster.ingress_traffic(i).exchange_count());
  }
  block.shield = cluster.total_shield_stats();
  return block;
}

}  // namespace

SbrCampaignConfig SbrCampaignConfig::Builder::build() const {
  if (config_.file_size == 0) {
    throw std::invalid_argument("SbrCampaignConfig: file_size must be > 0");
  }
  if (config_.requests_per_second <= 0) {
    throw std::invalid_argument(
        "SbrCampaignConfig: requests_per_second must be > 0");
  }
  if (config_.duration_s <= 0) {
    throw std::invalid_argument("SbrCampaignConfig: duration_s must be > 0");
  }
  if (config_.edge_nodes == 0) {
    throw std::invalid_argument("SbrCampaignConfig: edge_nodes must be > 0");
  }
  if (config_.origin_uplink_mbps <= 0) {
    throw std::invalid_argument(
        "SbrCampaignConfig: origin_uplink_mbps must be > 0");
  }
  if (config_.same_key_burst < 1) {
    throw std::invalid_argument(
        "SbrCampaignConfig: same_key_burst must be >= 1");
  }
  check_parallelism("SbrCampaignConfig", config_.shards, config_.threads);
  return config_;
}

SbrCampaignResult run_sbr_campaign(const SbrCampaignConfig& config,
                                   const DetectorConfig& detector_config) {
  const SbrPlan plan = sbr_plan(config.vendor, config.file_size);
  const std::uint64_t total_requests =
      static_cast<std::uint64_t>(config.requests_per_second) *
      static_cast<std::uint64_t>(config.duration_s);
  const std::uint64_t burst =
      config.same_key_burst > 1 ? static_cast<std::uint64_t>(config.same_key_burst) : 1;

  // Burst-aligned blocks: a same-key group never straddles two testbeds.
  const SbrBlock merged = run_sharded<SbrBlock>(
      total_requests, config.shards, config.threads, /*seed=*/0, burst,
      {config.tracer, config.metrics},
      [&](const Shard& shard, ShardSinks sinks) {
        return run_sbr_block(config, plan, shard.begin, shard.end,
                             sinks.tracer, sinks.metrics);
      });

  // Detector replay: the concatenated sample stream is in global exchange
  // order regardless of how many shards produced it, so the sliding-window
  // verdict matches the serial run's whenever the samples do.
  RangeAmpDetector detector(detector_config);
  for (const DetectorSample& sample : merged.samples) detector.observe(sample);

  SbrCampaignResult result;
  result.attacker = merged.attacker;
  result.attacker_truncated = merged.attacker_truncated;
  result.origin.response_bytes = merged.origin_response_bytes;
  result.amplification = net::amplification_factor(result.origin, result.attacker);
  result.per_node_upstream_bytes = merged.per_node_upstream_bytes;
  result.nodes_touched = 0;
  for (const std::uint64_t exchanges : merged.per_node_ingress_exchanges) {
    if (exchanges > 0) ++result.nodes_touched;
  }
  result.detector_alarmed = detector.alarmed();
  result.detector_stats = detector.stats();
  result.shield_stats = merged.shield;

  // Project onto the uplink for the time series.  The projection redoes the
  // shield's grouping and shedding itself, so origin bytes are per fetch
  // that reached the wire; with the shield off every request is one, and
  // this is the campaign average.
  const std::uint64_t origin_fetches = result.shield_stats.fill_fetches > 0
                                           ? result.shield_stats.fill_fetches
                                           : total_requests;
  sim::ShieldedLoadConfig load;
  load.base.origin_uplink_mbps = config.origin_uplink_mbps;
  load.base.requests_per_second = config.requests_per_second;
  load.base.duration_s = config.duration_s;
  load.base.origin_response_bytes = result.origin.response_bytes / origin_fetches;
  load.base.client_response_bytes = result.attacker.response_bytes / total_requests;
  load.same_key_burst = config.same_key_burst;
  load.coalesce = config.shield.coalescing.enabled;
  const cdn::CircuitBreakerPolicy& cb = config.shield.breaker;
  if (cb.enabled && cb.max_connections > 0) {
    // Per-node admission caps aggregate across the deployment's nodes.
    load.max_pending = static_cast<std::size_t>(cb.max_connections + cb.max_pending) *
                       config.edge_nodes;
  }
  load.shed_response_bytes = load.base.client_response_bytes;
  result.series = sim::simulate_attack_load_shielded(load).series;
  result.bandwidth = sim::summarize(load.base, result.series);
  return result;
}

// ---------------------------------------------------------------------------
// OBR node-exhaustion campaign.
// ---------------------------------------------------------------------------

namespace {

struct ObrBlock {
  std::uint64_t fcdn_bcdn_response_bytes = 0;
  std::uint64_t bcdn_origin_response_bytes = 0;
  std::uint64_t attacker_response_bytes = 0;
  std::uint64_t attacker_truncated = 0;

  void merge(const ObrBlock& other) {
    fcdn_bcdn_response_bytes += other.fcdn_bcdn_response_bytes;
    bcdn_origin_response_bytes += other.bcdn_origin_response_bytes;
    attacker_response_bytes += other.attacker_response_bytes;
    attacker_truncated += other.attacker_truncated;
  }
};

ObrBlock run_obr_block(const ObrCampaignConfig& config,
                       const std::string& range_value, const Shard& shard) {
  // One cascade per block: the BCDN caches the small entity after the first
  // pull, exactly as a pinned-node attack would see.  Every campaign request
  // busts both caches with a fresh query, so block totals are independent of
  // where the block boundaries fall.
  cdn::ProfileOptions fcdn_options;
  if (config.fcdn == cdn::Vendor::kCloudflare) {
    fcdn_options.cloudflare_mode = cdn::ProfileOptions::CloudflareMode::kBypass;
  }
  CascadeTestbed bed(cdn::make_profile(config.fcdn, fcdn_options),
                     cdn::make_profile(config.bcdn), obr_origin_config(),
                     config.transport);
  bed.origin().resources().add_synthetic(std::string{kObrPath},
                                         config.resource_size);
  // The block reads only totals; per-exchange logs would keep two copies of
  // the ~32 KiB Range value per request.
  bed.origin().set_keep_log(false);
  bed.client_traffic().set_keep_log(false);
  bed.fcdn_bcdn_traffic().set_keep_log(false);
  bed.bcdn_origin_traffic().set_keep_log(false);

  net::TransferOptions abort_early;
  abort_early.abort_after_body_bytes = 4096;
  for (std::uint64_t i = shard.begin; i < shard.end; ++i) {
    // Rotate the cache-busting query (fixed width keeps the request line --
    // and with it the header-limit arithmetic -- constant): both CDNs must
    // miss on every request, or the FCDN would answer from its own cache.
    char query[32];
    std::snprintf(query, sizeof(query), "?x=%06llu",
                  static_cast<unsigned long long>(i));
    http::Request request =
        http::make_get(std::string{kObrHost}, std::string{kObrPath} + query);
    request.headers.add("Range", range_value);
    bed.send(request, abort_early);
  }

  ObrBlock block;
  block.fcdn_bcdn_response_bytes = bed.fcdn_bcdn_traffic().response_bytes();
  block.bcdn_origin_response_bytes = bed.bcdn_origin_traffic().response_bytes();
  block.attacker_response_bytes = bed.client_traffic().response_bytes();
  block.attacker_truncated = bed.client_traffic().truncated_count();
  return block;
}

}  // namespace

ObrCampaignConfig ObrCampaignConfig::Builder::build() const {
  if (config_.resource_size == 0) {
    throw std::invalid_argument("ObrCampaignConfig: resource_size must be > 0");
  }
  if (config_.requests_per_second <= 0) {
    throw std::invalid_argument(
        "ObrCampaignConfig: requests_per_second must be > 0");
  }
  if (config_.duration_s <= 0) {
    throw std::invalid_argument("ObrCampaignConfig: duration_s must be > 0");
  }
  if (config_.node_uplink_mbps <= 0) {
    throw std::invalid_argument(
        "ObrCampaignConfig: node_uplink_mbps must be > 0");
  }
  check_parallelism("ObrCampaignConfig", config_.shards, config_.threads);
  return config_;
}

ObrCampaignResult run_obr_campaign(const ObrCampaignConfig& config) {
  ObrCampaignResult result;
  // Plan: either the caller's n or the cascade's discovered maximum, less a
  // small margin because the campaign's cache-busting query lengthens the
  // request line (which participates in Cloudflare's header-limit formula).
  if (config.overlapping_ranges != 0) {
    result.n = config.overlapping_ranges;
  } else {
    const std::size_t max_n =
        measure_obr(config.fcdn, config.bcdn, config.resource_size).max_n;
    if (max_n == 0) return result;  // infeasible cascade
    result.n = max_n > 4 ? max_n - 4 : max_n;
  }

  const std::uint64_t total_requests =
      static_cast<std::uint64_t>(config.requests_per_second) *
      static_cast<std::uint64_t>(config.duration_s);
  const std::string range_value = obr_range_case(config.fcdn, result.n).to_string();

  const ObrBlock merged = run_sharded<ObrBlock>(
      total_requests, config.shards, config.threads, /*seed=*/0, /*group=*/1,
      {}, [&](const Shard& shard, ShardSinks) {
        return run_obr_block(config, range_value, shard);
      });
  result.bcdn_origin_response_bytes = merged.bcdn_origin_response_bytes;
  result.attacker_response_bytes = merged.attacker_response_bytes;
  result.attacker_truncated = merged.attacker_truncated;
  result.fcdn_bcdn_bytes_per_request =
      total_requests == 0 ? 0 : merged.fcdn_bcdn_response_bytes / total_requests;
  result.amplification =
      result.bcdn_origin_response_bytes == 0
          ? 0
          : static_cast<double>(merged.fcdn_bcdn_response_bytes) /
                static_cast<double>(result.bcdn_origin_response_bytes);

  // Project onto the targeted node's uplink.
  sim::AttackLoadConfig load;
  load.origin_uplink_mbps = config.node_uplink_mbps;
  load.requests_per_second = config.requests_per_second;
  load.duration_s = config.duration_s;
  load.origin_response_bytes = result.fcdn_bcdn_bytes_per_request;
  load.client_response_bytes = 4096;
  result.series = sim::simulate_attack_load(load);
  result.bandwidth = sim::summarize(load, result.series);
  for (const auto& sample : result.series) {
    if (sample.origin_out_mbps >= 0.99 * config.node_uplink_mbps) {
      result.seconds_to_saturation = sample.second + 1.0;
      break;
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Benign workload.
// ---------------------------------------------------------------------------

namespace {

struct LegitBlock {
  net::TrafficTotals client;
  std::uint64_t origin_response_bytes = 0;
  std::size_t hits = 0;
  std::vector<DetectorSample> samples;

  void merge(const LegitBlock& other) {
    client += other.client;
    origin_response_bytes += other.origin_response_bytes;
    hits += other.hits;
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
  }
};

LegitBlock run_legit_block(const LegitWorkloadConfig& config,
                           const Shard& shard) {
  origin::OriginServer origin;
  // A small site: a page, assets, one big download.
  origin.resources().add_literal("/index.html",
                                 std::string(4096, 'p'), "text/html");
  origin.resources().add_synthetic("/app.js", 128 * 1024, "text/javascript");
  origin.resources().add_synthetic("/video.mp4", 20u << 20, "video/mp4");
  origin.resources().add_synthetic("/download.iso", 50u << 20,
                                   "application/octet-stream");

  cdn::EdgeCluster cluster(
      [&] { return cdn::make_profile(config.vendor); }, config.edge_nodes,
      origin, cdn::NodeSelection::kHashByHost, config.transport);
  drop_unread_logs(origin, cluster);

  net::TrafficRecorder client_traffic("clients");
  client_traffic.set_keep_log(false);
  const std::unique_ptr<net::Transport> client_wire =
      net::make_transport(config.transport, client_traffic, cluster);

  http::Rng rng{shard.seed};

  LegitBlock block;
  block.samples.reserve(static_cast<std::size_t>(shard.size()));
  std::uint64_t origin_before = 0;
  for (std::uint64_t i = shard.begin; i < shard.end; ++i) {
    http::Request request;
    std::optional<http::RangeSet> range;
    std::uint64_t resource_size = 0;
    switch (rng.below(5)) {
      case 0:
      case 1:  // page loads (cacheable, no Range)
        request = http::make_get("shop.example.com",
                                 rng.chance(0.5) ? "/index.html" : "/app.js");
        resource_size = 128 * 1024;
        break;
      case 2: {  // video seek: open-ended resume from a realistic offset
        request = http::make_get("shop.example.com", "/video.mp4");
        range = http::RangeSet{http::ByteRangeSpec::open(rng.below(20u << 20))};
        resource_size = 20u << 20;
        break;
      }
      case 3: {  // multi-threaded downloader: a disjoint 4 MB segment
        request = http::make_get("shop.example.com", "/download.iso");
        const std::uint64_t seg = rng.below(12);
        range = http::RangeSet{
            http::ByteRangeSpec::closed(seg * (4u << 20), (seg + 1) * (4u << 20) - 1)};
        resource_size = 50u << 20;
        break;
      }
      default: {  // resume of the tail of a download
        request = http::make_get("shop.example.com", "/download.iso");
        range = http::RangeSet{
            http::ByteRangeSpec::suffix_of(rng.between(1u << 20, 8u << 20))};
        resource_size = 50u << 20;
        break;
      }
    }
    if (range) request.headers.add("Range", range->to_string());

    const std::uint64_t client_before = client_traffic.response_bytes();
    client_wire->transfer(request);
    const std::uint64_t origin_after = cluster.total_upstream_response_bytes();

    const DetectorSample sample = make_detector_sample(
        selected_bytes_of(range, resource_size), resource_size,
        {0, client_traffic.response_bytes() - client_before},
        {0, origin_after - origin_before});
    if (sample.cache_hit) ++block.hits;
    origin_before = origin_after;
    block.samples.push_back(sample);
  }

  block.client = client_traffic.totals();
  block.origin_response_bytes = cluster.total_upstream_response_bytes();
  return block;
}

}  // namespace

LegitWorkloadConfig LegitWorkloadConfig::Builder::build() const {
  if (config_.requests == 0) {
    throw std::invalid_argument("LegitWorkloadConfig: requests must be > 0");
  }
  if (config_.edge_nodes == 0) {
    throw std::invalid_argument("LegitWorkloadConfig: edge_nodes must be > 0");
  }
  check_parallelism("LegitWorkloadConfig", config_.shards, config_.threads);
  return config_;
}

LegitWorkloadResult run_legit_workload(const LegitWorkloadConfig& config,
                                       const DetectorConfig& detector_config) {
  // With shards = 1 the one block draws config.seed's own stream, so
  // pre-sharding results replay byte-identically.
  const LegitBlock merged = run_sharded<LegitBlock>(
      config.requests, config.shards, config.threads, config.seed,
      /*group=*/1, {}, [&](const Shard& shard, ShardSinks) {
        return run_legit_block(config, shard);
      });

  RangeAmpDetector detector(detector_config);
  for (const DetectorSample& sample : merged.samples) detector.observe(sample);
  LegitWorkloadResult result;
  result.client = merged.client;
  result.origin.response_bytes = merged.origin_response_bytes;
  result.cache_hit_rate =
      static_cast<double>(merged.hits) / static_cast<double>(config.requests);
  result.detector_alarmed = detector.alarmed();
  result.detector_stats = detector.stats();
  return result;
}

// ---------------------------------------------------------------------------
// Cache-pollution campaign: one block per shard.
// ---------------------------------------------------------------------------

namespace {

// A block's counts are the campaign result's, before its two rates.
struct PollutionBlock : CachePollutionResult {
  void merge(const PollutionBlock& other) {
    legit_requests += other.legit_requests;
    attack_requests += other.attack_requests;
    legit_hits += other.legit_hits;
    attacker += other.attacker;
    origin_response_bytes += other.origin_response_bytes;
    attack_origin_response_bytes += other.attack_origin_response_bytes;
    // Each shard's node keeps its own budget: peaks take the max.
    cache_bytes_peak = std::max(cache_bytes_peak, other.cache_bytes_peak);
    cache_bytes_end = std::max(cache_bytes_end, other.cache_bytes_end);
    cache_evictions += other.cache_evictions;
    cache_admission_rejects += other.cache_admission_rejects;
  }
};

// One block runs the shard's interleaved exchanges against its OWN origin +
// single edge node (per-shard cache ownership, docs/parallel-model.md).
// Attack keys are stamped with the *global* request index so no two shards
// ever reuse a cache-busting query.
PollutionBlock run_pollution_block(const CachePollutionConfig& config,
                                   const Shard& shard,
                                   obs::MetricsRegistry* metrics) {
  origin::OriginServer origin;
  origin.resources().add_synthetic("/target.bin", config.attack_object_bytes,
                                   "application/octet-stream");
  for (std::size_t i = 0; i < config.catalog_objects; ++i) {
    origin.resources().add_synthetic("/obj/" + std::to_string(i),
                                     config.object_bytes,
                                     "application/octet-stream");
  }

  cdn::VendorProfile profile = cdn::make_profile(config.vendor);
  profile.traits.cache = config.cache;
  cdn::CdnNode node(std::move(profile), origin);
  if (metrics) node.set_metrics(metrics);
  origin.set_keep_log(false);
  node.upstream_traffic().set_keep_log(false);

  net::TrafficRecorder attacker_traffic("attacker");
  attacker_traffic.set_keep_log(false);
  net::Wire attacker_wire(attacker_traffic, node);
  net::TrafficRecorder legit_traffic("legit-clients");
  legit_traffic.set_keep_log(false);
  net::Wire legit_wire(legit_traffic, node);

  const ZipfSampler zipf(config.catalog_objects);
  http::Rng rng{shard.seed};

  PollutionBlock block;
  const auto legit_request = [&](bool measured) {
    http::Request request = http::make_get(
        "shop.example.com", "/obj/" + std::to_string(zipf.rank(rng)));
    const std::uint64_t before = node.upstream_traffic().response_bytes();
    legit_wire.transfer(request);
    if (!measured) return;
    ++block.legit_requests;
    if (node.upstream_traffic().response_bytes() == before) ++block.legit_hits;
  };

  // Warmup: legit-only traffic populates the cache before the flood.
  for (std::size_t i = 0; i < config.warmup_requests; ++i) {
    legit_request(/*measured=*/false);
  }

  for (std::uint64_t i = shard.begin; i < shard.end; ++i) {
    if (rng.chance(config.attack_fraction)) {
      // The paper's SBR shape: fresh random query (here: the globally
      // unique request index) + a 1-byte range.  On a Deletion-policy
      // vendor this both pulls the full entity from the origin and inserts
      // it into the cache under a never-to-be-seen-again key.
      http::Request request = http::make_get(
          "shop.example.com",
          "/target.bin?x=" + std::to_string(i));
      request.headers.add("Range", "bytes=0-0");
      const std::uint64_t before = node.upstream_traffic().response_bytes();
      attacker_wire.transfer(request);
      block.attack_origin_response_bytes +=
          node.upstream_traffic().response_bytes() - before;
      ++block.attack_requests;
    } else {
      legit_request(/*measured=*/true);
    }
    block.cache_bytes_peak =
        std::max(block.cache_bytes_peak, node.cache().bytes());
  }

  block.attacker = attacker_traffic.totals();
  block.origin_response_bytes = node.upstream_traffic().response_bytes();
  const cdn::Cache::Stats stats = node.cache().stats();
  block.cache_bytes_end = stats.bytes;
  block.cache_evictions = stats.evictions;
  block.cache_admission_rejects = stats.admission_rejects;
  return block;
}

}  // namespace

CachePollutionResult run_cache_pollution_campaign(
    const CachePollutionConfig& config) {
  // With shards = 1 the one block draws config.seed's own stream, so the
  // canonical single-shard rows replay byte-identically.
  CachePollutionResult result = run_sharded<PollutionBlock>(
      config.requests, config.shards, config.threads, config.seed,
      /*group=*/1, {nullptr, config.metrics},
      [&](const Shard& shard, ShardSinks sinks) {
        return run_pollution_block(config, shard, sinks.metrics);
      });
  if (result.legit_requests != 0) {
    result.legit_hit_rate = static_cast<double>(result.legit_hits) /
                            static_cast<double>(result.legit_requests);
  }
  if (result.attacker.response_bytes != 0) {
    result.attack_amplification =
        static_cast<double>(result.attack_origin_response_bytes) /
        static_cast<double>(result.attacker.response_bytes);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Gossip-detection campaign: sharded schedule materialization + serial replay.
// ---------------------------------------------------------------------------

namespace {

// One precomputed exchange.  Derived statelessly from the global exchange
// index (below), so any shard can fill any slice of the schedule and the
// bytes come out identical.
struct GossipExchange {
  std::uint32_t user = 0;    ///< legit client identity (ignored for attacks)
  std::uint32_t object = 0;  ///< Zipf catalog rank (ignored for attack/probe)
  std::uint32_t node = 0;    ///< ingress node this exchange lands on
  bool attack = false;
  bool probe = false;
};

// Fills schedule[begin, end).  Every datum is a pure function of
// (config.seed, global index): attack slots and the attacker's rotating
// ingress node come straight from index arithmetic; legit identity, probe
// coin and Zipf rank come from a per-index Rng stream.  The per-shard seed
// from ShardPlan is deliberately unused -- gossip couples the nodes, so the
// exchanges must later replay serially against ONE cluster, and the schedule
// itself is what sharding parallelizes.
void fill_gossip_schedule(const GossipDetectionConfig& config,
                          std::vector<GossipExchange>& schedule,
                          const ZipfSampler& zipf, std::uint64_t begin,
                          std::uint64_t end) {
  const std::uint64_t stream = splitmix64(config.seed);
  const std::size_t rotation =
      std::max<std::size_t>(1, config.attacker_rotation_requests);
  for (std::uint64_t i = begin; i < end; ++i) {
    GossipExchange& ex = schedule[i];
    if (config.attack_every != 0 && i % config.attack_every == 0) {
      const std::uint64_t attack_index = i / config.attack_every;
      ex.attack = true;
      ex.node = static_cast<std::uint32_t>((attack_index / rotation) %
                                           config.edge_nodes);
      continue;
    }
    http::Rng rng{splitmix64(stream ^ i)};
    ex.user = static_cast<std::uint32_t>(rng.below(config.legit_users));
    // Identity-pinned ingress, as a DNS load balancer would map a resolver:
    // one client always lands on one node, so its per-client detector
    // actually accumulates a window there.
    ex.node = static_cast<std::uint32_t>(splitmix64(ex.user) %
                                         config.edge_nodes);
    ex.probe = rng.chance(config.probe_fraction);
    if (!ex.probe) ex.object = static_cast<std::uint32_t>(zipf.rank(rng));
  }
}

}  // namespace

GossipDetectionResult run_gossip_detection_campaign(
    const GossipDetectionConfig& config) {
  if (config.edge_nodes == 0) {
    throw std::invalid_argument(
        "GossipDetectionConfig: edge_nodes must be >= 1");
  }
  if (config.catalog_objects == 0 || config.legit_users == 0) {
    throw std::invalid_argument(
        "GossipDetectionConfig: catalog_objects and legit_users must be >= 1");
  }

  // Phase 1: materialize the exchange schedule (parallel-safe; every slot is
  // index-derived, so serial and sharded fills are byte-identical, and a
  // `shards` of 0 or 1 is simply a one-shard plan).
  const ZipfSampler zipf(config.catalog_objects);
  std::vector<GossipExchange> schedule(config.requests);
  run_shards(ShardPlan(config.requests, config.shards),
             static_cast<std::size_t>(std::max(1, config.threads)),
             [&](const Shard& shard) {
               fill_gossip_schedule(config, schedule, zipf, shard.begin,
                                    shard.end);
             });

  // Phase 2: replay serially against one detection-enabled cluster.
  origin::OriginServer origin;
  origin.resources().add_synthetic("/target.bin", config.attack_object_bytes,
                                   "application/octet-stream");
  for (std::size_t i = 0; i < config.catalog_objects; ++i) {
    origin.resources().add_synthetic("/obj/" + std::to_string(i),
                                     config.object_bytes,
                                     "application/octet-stream");
  }

  cdn::EdgeCluster cluster(
      [&]() {
        cdn::VendorProfile profile = cdn::make_profile(config.vendor);
        profile.traits.detection = config.detection;
        return profile;
      },
      config.edge_nodes, origin);
  drop_unread_logs(origin, cluster);

  double sim_now = 0;
  cluster.set_clock([&sim_now]() { return sim_now; });
  if (config.tracer) cluster.set_tracer(config.tracer);
  if (config.metrics) cluster.set_metrics(config.metrics);

  // Nodes quarantining the attacker right now: via the fabric when gossip is
  // on, else a direct table scan (the gossip-off baseline has no fabric).
  const auto attacker_coverage = [&](double now) -> std::size_t {
    if (const cdn::GossipFabric* fabric = cluster.gossip()) {
      return fabric->coverage("attacker", now);
    }
    std::size_t covered = 0;
    for (std::size_t n = 0; n < cluster.node_count(); ++n) {
      const cdn::NodeDetection* detection = cluster.node(n).detection();
      if (detection != nullptr &&
          detection->table().find_client("attacker", now) != nullptr) {
        ++covered;
      }
    }
    return covered;
  };

  GossipDetectionResult result;
  std::size_t legit_hits = 0;
  double first_attack_at = -1;
  const double dt =
      1.0 / static_cast<double>(std::max(1, config.requests_per_second));
  double next_churn = config.churn_restart_period_seconds;
  std::size_t churn_victim = 0;

  for (std::size_t i = 0; i < config.requests; ++i) {
    sim_now = static_cast<double>(i) * dt;
    while (config.churn_restart_period_seconds > 0 && sim_now >= next_churn) {
      cluster.restart_node_detection(churn_victim++ % config.edge_nodes);
      next_churn += config.churn_restart_period_seconds;
    }

    const GossipExchange& ex = schedule[i];
    cluster.pin(ex.node);

    http::Request request;
    if (ex.attack) {
      // The paper's node-rotating SBR shape: fresh cache-busting query per
      // request, 1-byte range, same identity throughout.
      request = http::make_get(
          "shop.example.com",
          "/target.bin?x=" + std::to_string(i / config.attack_every));
      request.headers.add("Range", "bytes=0-0");
      request.headers.add(std::string(cdn::kClientKeyHeader), "attacker");
      if (first_attack_at < 0) first_attack_at = sim_now;
    } else if (ex.probe) {
      // Legit existence probe against the attack target's URL -- tiny closed
      // range on the same base key, i.e. exactly what pattern quarantine
      // would collaterally block.
      request = http::make_get("shop.example.com", "/target.bin");
      request.headers.add("Range", "bytes=0-1");
      request.headers.add(cdn::kClientKeyHeader, "u" + std::to_string(ex.user));
    } else {
      request = http::make_get("shop.example.com",
                               "/obj/" + std::to_string(ex.object));
      request.headers.add(cdn::kClientKeyHeader, "u" + std::to_string(ex.user));
    }

    const std::uint64_t upstream_before =
        cluster.total_upstream_response_bytes();
    const http::Response response = cluster.handle(request);
    const bool quarantined = response.status == http::kTooManyRequests;

    if (ex.attack) {
      ++result.attack_requests;
      if (quarantined) ++result.attack_quarantined;
    } else {
      ++result.legit_requests;
      if (quarantined) {
        ++result.legit_quarantined;
      } else if (cluster.total_upstream_response_bytes() == upstream_before) {
        ++legit_hits;
      }
    }

    // Convergence: the first exchange after which EVERY node holds an active
    // attacker signature (checked post-handle so this exchange's own alarm
    // counts).
    if (result.convergence_exchange < 0 && config.detection.enabled &&
        config.attack_every != 0 &&
        attacker_coverage(sim_now) == config.edge_nodes) {
      result.convergence_exchange = static_cast<std::int64_t>(i);
      result.convergence_rotations =
          static_cast<double>(i / config.attack_every + 1) /
          static_cast<double>(
              std::max<std::size_t>(1, config.attacker_rotation_requests));
      result.detection_latency_seconds = sim_now - first_attack_at;
    }
  }

  sim_now = static_cast<double>(config.requests) * dt;
  result.final_coverage = attacker_coverage(sim_now);
  for (std::size_t n = 0; n < cluster.node_count(); ++n) {
    if (const cdn::NodeDetection* detection = cluster.node(n).detection()) {
      result.alarms += detection->stats().alarms;
      result.signatures_expired += detection->table().expired_total;
    }
  }
  if (const cdn::GossipFabric* fabric = cluster.gossip()) {
    result.gossip = fabric->stats();
  }
  if (result.legit_requests != 0) {
    result.collateral_rate = static_cast<double>(result.legit_quarantined) /
                             static_cast<double>(result.legit_requests);
  }
  const std::size_t served_legit =
      result.legit_requests - result.legit_quarantined;
  if (served_legit != 0) {
    result.legit_hit_rate =
        static_cast<double>(legit_hits) / static_cast<double>(served_legit);
  }
  return result;
}

}  // namespace rangeamp::core
