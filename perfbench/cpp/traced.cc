#include "traced.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "cdn/cluster.h"
#include "cdn/node.h"
#include "cdn/profiles.h"
#include "core/detector.h"
#include "core/obr.h"
#include "core/sbr.h"
#include "core/testbed.h"
#include "http/generator.h"
#include "net/transport_factory.h"
#include "net/wire.h"
#include "origin/origin_server.h"
#include "sim/attack_load.h"

namespace perfbench {
namespace {

namespace cdn = rangeamp::cdn;
namespace http = rangeamp::http;
namespace net = rangeamp::net;
namespace obs = rangeamp::obs;
namespace origin = rangeamp::origin;
namespace sim = rangeamp::sim;

// A layer boundary: forwards to the wrapped handler inside a span of its
// own and counts the calls.  With no span log it only forwards.
class TimedHandler final : public net::HttpHandler {
 public:
  TimedHandler(net::HttpHandler& inner, SpanLog* spans, const char* name)
      : inner_(inner), spans_(spans), name_(name) {}

  http::Response handle(const http::Request& request) override {
    ++calls_;
    ScopedSpan span(spans_, name_);
    return inner_.handle(request);
  }

  std::uint64_t calls() const { return calls_; }

 private:
  net::HttpHandler& inner_;
  SpanLog* spans_;
  const char* name_;
  std::uint64_t calls_ = 0;
};

void add_stats(cdn::Cache::Stats& into, const cdn::Cache::Stats& from) {
  into.entries += from.entries;
  into.bytes += from.bytes;
  into.hits += from.hits;
  into.misses += from.misses;
  into.evictions += from.evictions;
  into.admission_rejects += from.admission_rejects;
}

void count_flows(LayerCounts& counts,
                 const std::vector<sim::BandwidthSample>& series) {
  for (const sim::BandwidthSample& s : series) {
    counts.flow_seconds += s.in_flight;
    counts.in_flight_peak =
        std::max<std::uint64_t>(counts.in_flight_peak, s.in_flight);
  }
}

// ---------------------------------------------------------------------------
// sbr-saturate: run_sbr_block over [0, total) + replay + fluid projection.
// ---------------------------------------------------------------------------

struct SbrBed {
  SbrBed(const core::SbrCampaignConfig& config, const Hooks& hooks)
      : origin_timed(origin, hooks.spans, "origin.handle"),
        cluster(
            [&config] {
              cdn::VendorProfile profile =
                  cdn::make_profile(config.vendor, config.options);
              profile.traits.shield = config.shield;
              return profile;
            },
            config.edge_nodes, origin_timed, config.selection,
                config.transport),
        cdn_timed(cluster, hooks.spans, "cdn.handle"),
        client_traffic("attacker"),
        client_wire(net::make_transport(config.transport, client_traffic,
                                        cdn_timed)) {
    origin.resources().add_synthetic("/target.bin", config.file_size);
    cluster.set_clock([this] { return sim_now; });
    client_traffic.set_keep_log(false);
  }

  double sim_now = 0;
  origin::OriginServer origin;
  TimedHandler origin_timed;
  cdn::EdgeCluster cluster;
  TimedHandler cdn_timed;
  net::TrafficRecorder client_traffic;
  std::unique_ptr<net::Transport> client_wire;
};

}  // namespace

Rebuilt run_rebuilt(const core::SbrCampaignConfig& config, const Hooks& hooks) {
  SpanLog* spans = hooks.spans;
  ScopedSpan campaign(spans, "campaign");
  const core::SbrPlan plan = core::sbr_plan(config.vendor, config.file_size);
  const std::uint64_t total =
      static_cast<std::uint64_t>(config.requests_per_second) *
      static_cast<std::uint64_t>(config.duration_s);

  std::optional<SbrBed> bed;
  {
    ScopedSpan testbed(spans, "testbed");
    bed.emplace(config, hooks);
  }
  obs::Tracer* tracer = hooks.tracer;
  obs::MetricsRegistry* metrics = hooks.metrics;
  if (tracer) {
    tracer->set_clock([&bed] { return bed->sim_now; });
    bed->cluster.set_tracer(tracer);
    bed->client_wire->set_tracer(tracer);
  }
  obs::Histogram* af_histogram = nullptr;
  if (metrics) {
    bed->cluster.set_metrics(metrics);
    af_histogram = &metrics->histogram(
        "sbr_amplification_factor{vendor=\"" +
            std::string{cdn::vendor_name(config.vendor)} + "\"}",
        obs::amplification_buckets(),
        "per-request origin/client response byte ratio");
  }

  std::vector<core::DetectorSample> samples;
  samples.reserve(static_cast<std::size_t>(total));
  std::uint64_t origin_before = 0;
  std::int64_t last_sampled_second = -1;
  for (std::uint64_t i = 0; i < total; ++i) {
    bed->sim_now = static_cast<double>(i) /
                   static_cast<double>(config.requests_per_second);
    if (metrics) {
      const auto second = static_cast<std::int64_t>(bed->sim_now);
      if (second > last_sampled_second) {
        metrics->sample(bed->sim_now);
        last_sampled_second = second;
      }
    }
    bed->cluster.pin(i % config.edge_nodes);
    http::Request request = http::make_get(std::string{core::kDefaultHost},
                                           "/target.bin?x=" + std::to_string(i));
    request.headers.add("Range", plan.range.to_string());
    const net::TrafficTotals client_before = bed->client_traffic.totals();
    if (spans) spans->set_trace(i + 1);
    {
      ScopedSpan exchange(spans, "exchange");
      obs::SpanScope unit(tracer, "sbr.request");
      unit.note("index", std::to_string(i));
      unit.note("target", request.target);
      for (int s = 0; s < plan.sends; ++s) bed->client_wire->transfer(request);
    }
    if (spans) spans->set_trace(0);
    const std::uint64_t origin_after = bed->cluster.total_upstream_response_bytes();
    const net::TrafficTotals client_after = bed->client_traffic.totals();
    const core::DetectorSample sample = core::make_detector_sample(
        core::selected_bytes_of(plan.range, config.file_size), config.file_size,
        {client_after.request_bytes - client_before.request_bytes,
         client_after.response_bytes - client_before.response_bytes},
        {0, origin_after - origin_before});
    origin_before = origin_after;
    if (af_histogram) {
      af_histogram->observe(
          net::amplification_factor(sample.origin, sample.client));
    }
    samples.push_back(sample);
  }
  if (metrics) metrics->sample(bed->sim_now);
  if (tracer) tracer->set_clock(nullptr);

  core::SbrCampaignResult result;
  {
    ScopedSpan replay(spans, "core.replay");
    core::RangeAmpDetector detector(core::DetectorConfig{});
    for (const core::DetectorSample& sample : samples) detector.observe(sample);
    result.detector_alarmed = detector.alarmed();
    result.detector_stats = detector.stats();
  }
  result.attacker = bed->client_traffic.totals();
  result.attacker_truncated = bed->client_traffic.truncated_count();
  result.origin.response_bytes = bed->cluster.total_upstream_response_bytes();
  result.amplification = net::amplification_factor(result.origin, result.attacker);
  Rebuilt out;
  for (std::size_t i = 0; i < bed->cluster.node_count(); ++i) {
    result.per_node_upstream_bytes.push_back(
        bed->cluster.node(i).upstream_traffic().response_bytes());
    if (bed->cluster.ingress_traffic(i).exchange_count() > 0) ++result.nodes_touched;
    add_stats(out.counts.cache, bed->cluster.node(i).cache().stats());
  }
  {
    ScopedSpan project(spans, "sim.project");
    sim::AttackLoadConfig load;
    load.origin_uplink_mbps = config.origin_uplink_mbps;
    load.requests_per_second = config.requests_per_second;
    load.duration_s = config.duration_s;
    load.origin_response_bytes = result.origin.response_bytes / total;
    load.client_response_bytes = result.attacker.response_bytes / total;
    result.series = sim::simulate_attack_load(load);
    result.bandwidth = sim::summarize(load, result.series);
  }

  out.fingerprint = fingerprint(result);
  out.counts.exchanges = bed->client_traffic.exchange_count();
  out.counts.requests = total;
  out.counts.origin_calls = bed->origin_timed.calls();
  out.counts.client_response_bytes = result.attacker.response_bytes;
  out.counts.origin_response_bytes = result.origin.response_bytes;
  count_flows(out.counts, result.series);
  return out;
}

// ---------------------------------------------------------------------------
// obr-cascade: run_obr_block over [0, total) + fluid projection.
// ---------------------------------------------------------------------------

namespace {

cdn::VendorProfile obr_fcdn_profile(cdn::Vendor vendor) {
  cdn::ProfileOptions options;
  if (vendor == cdn::Vendor::kCloudflare) {
    options.cloudflare_mode = cdn::ProfileOptions::CloudflareMode::kBypass;
  }
  return cdn::make_profile(vendor, options);
}

struct ObrBed {
  ObrBed(const core::ObrCampaignConfig& config, const Hooks& hooks)
      : origin(core::obr_origin_config()),
        origin_timed(origin, hooks.spans, "origin.handle"),
        bcdn(cdn::make_profile(config.bcdn), origin_timed, "bcdn-origin",
             cdn::SegmentFraming::kHttp11, config.transport),
        bcdn_timed(bcdn, hooks.spans, "cdn.bcdn"),
        fcdn(obr_fcdn_profile(config.fcdn), bcdn_timed, "fcdn-bcdn",
             cdn::SegmentFraming::kHttp11, config.transport),
        fcdn_timed(fcdn, hooks.spans, "cdn.handle"),
        client_traffic("client-fcdn"),
        client_wire(net::make_transport(config.transport, client_traffic,
                                        fcdn_timed)) {
    origin.resources().add_synthetic(std::string{core::kObrPath},
                                     config.resource_size);
  }

  origin::OriginServer origin;
  TimedHandler origin_timed;
  cdn::CdnNode bcdn;
  TimedHandler bcdn_timed;
  cdn::CdnNode fcdn;
  TimedHandler fcdn_timed;
  net::TrafficRecorder client_traffic;
  std::unique_ptr<net::Transport> client_wire;
};

}  // namespace

Rebuilt run_rebuilt(const core::ObrCampaignConfig& config, const Hooks& hooks) {
  SpanLog* spans = hooks.spans;
  ScopedSpan campaign(spans, "campaign");
  core::ObrCampaignResult result;
  result.n = config.overlapping_ranges;
  const std::uint64_t total =
      static_cast<std::uint64_t>(config.requests_per_second) *
      static_cast<std::uint64_t>(config.duration_s);
  const std::string range_value = core::obr_range_case(config.fcdn, result.n).to_string();

  std::optional<ObrBed> bed;
  {
    ScopedSpan testbed(spans, "testbed");
    bed.emplace(config, hooks);
  }
  if (hooks.tracer) {
    bed->client_wire->set_tracer(hooks.tracer);
    bed->fcdn.set_tracer(hooks.tracer);
    bed->bcdn.set_tracer(hooks.tracer);
  }
  if (hooks.metrics) {
    bed->fcdn.set_metrics(hooks.metrics);
    bed->bcdn.set_metrics(hooks.metrics);
  }

  net::TransferOptions abort_early;
  abort_early.abort_after_body_bytes = 4096;
  for (std::uint64_t i = 0; i < total; ++i) {
    char query[32];
    std::snprintf(query, sizeof(query), "?x=%06llu",
                  static_cast<unsigned long long>(i));
    http::Request request = http::make_get(std::string{core::kObrHost},
                                           std::string{core::kObrPath} + query);
    request.headers.add("Range", range_value);
    if (spans) spans->set_trace(i + 1);
    {
      ScopedSpan exchange(spans, "exchange");
      bed->client_wire->transfer(request, abort_early);
    }
    if (spans) spans->set_trace(0);
  }

  const std::uint64_t fcdn_bcdn = bed->fcdn.upstream_traffic().response_bytes();
  result.bcdn_origin_response_bytes = bed->bcdn.upstream_traffic().response_bytes();
  result.attacker_response_bytes = bed->client_traffic.response_bytes();
  result.attacker_truncated = bed->client_traffic.truncated_count();
  result.fcdn_bcdn_bytes_per_request = fcdn_bcdn / total;
  result.amplification =
      result.bcdn_origin_response_bytes == 0
          ? 0
          : static_cast<double>(fcdn_bcdn) /
                static_cast<double>(result.bcdn_origin_response_bytes);
  // The OBR campaign has no detector replay; the span marks the phase.
  { ScopedSpan replay(spans, "core.replay"); }
  {
    ScopedSpan project(spans, "sim.project");
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
  }

  Rebuilt out;
  out.fingerprint = fingerprint(result);
  out.counts.exchanges = bed->client_traffic.exchange_count();
  out.counts.requests = total;
  out.counts.origin_calls = bed->origin_timed.calls();
  out.counts.client_response_bytes = result.attacker_response_bytes;
  out.counts.origin_response_bytes = result.bcdn_origin_response_bytes;
  out.counts.fcdn_bcdn_response_bytes = fcdn_bcdn;
  add_stats(out.counts.cache, bed->fcdn.cache().stats());
  add_stats(out.counts.cache, bed->bcdn.cache().stats());
  count_flows(out.counts, result.series);
  return out;
}

// ---------------------------------------------------------------------------
// cache-pollution: run_pollution_block, serial (seeded with the seed itself).
// ---------------------------------------------------------------------------

namespace {

cdn::VendorProfile pollution_profile(const core::CachePollutionConfig& config) {
  cdn::VendorProfile profile = cdn::make_profile(config.vendor);
  profile.traits.cache = config.cache;
  return profile;
}

struct PollutionBed {
  PollutionBed(const core::CachePollutionConfig& config, const Hooks& hooks)
      : origin_timed(origin, hooks.spans, "origin.handle"),
        node(pollution_profile(config), origin_timed),
        cdn_timed(node, hooks.spans, "cdn.handle"),
        attacker_traffic("attacker"),
        attacker_wire(attacker_traffic, cdn_timed),
        legit_traffic("legit-clients"),
        legit_wire(legit_traffic, cdn_timed),
        rng(config.seed),
        catalog_objects(config.catalog_objects) {
    origin.resources().add_synthetic("/target.bin", config.attack_object_bytes,
                                     "application/octet-stream");
    for (std::size_t i = 0; i < config.catalog_objects; ++i) {
      origin.resources().add_synthetic("/obj/" + std::to_string(i),
                                       config.object_bytes,
                                       "application/octet-stream");
    }
    if (hooks.metrics) node.set_metrics(hooks.metrics);
    attacker_traffic.set_keep_log(false);
    legit_traffic.set_keep_log(false);
    // Zipf(1) CDF by divisions only, as the campaign builds it.
    cdf.resize(config.catalog_objects);
    for (std::size_t i = 0; i < config.catalog_objects; ++i) {
      total_weight += 1.0 / static_cast<double>(i + 1);
      cdf[i] = total_weight;
    }
  }

  std::size_t zipf_rank() {
    const double u =
        static_cast<double>(rng.next() >> 11) * 0x1.0p-53 * total_weight;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                                 catalog_objects - 1);
  }

  /// One legit read; true when it was a hit (no origin bytes moved).
  bool legit_request(SpanLog* spans) {
    http::Request request = http::make_get(
        "shop.example.com", "/obj/" + std::to_string(zipf_rank()));
    const std::uint64_t before = node.upstream_traffic().response_bytes();
    {
      ScopedSpan exchange(spans, "exchange");
      legit_wire.transfer(request);
    }
    return node.upstream_traffic().response_bytes() == before;
  }

  void warm_up(const core::CachePollutionConfig& config) {
    for (std::size_t i = 0; i < config.warmup_requests; ++i) legit_request(nullptr);
  }

  origin::OriginServer origin;
  TimedHandler origin_timed;
  cdn::CdnNode node;
  TimedHandler cdn_timed;
  net::TrafficRecorder attacker_traffic;
  net::Wire attacker_wire;
  net::TrafficRecorder legit_traffic;
  net::Wire legit_wire;
  std::vector<double> cdf;
  double total_weight = 0;
  http::Rng rng;
  std::size_t catalog_objects;
};

}  // namespace

Rebuilt run_rebuilt(const core::CachePollutionConfig& config, const Hooks& hooks) {
  SpanLog* spans = hooks.spans;
  ScopedSpan campaign(spans, "campaign");
  std::optional<PollutionBed> bed;
  {
    ScopedSpan testbed(spans, "testbed");
    bed.emplace(config, hooks);
  }
  if (hooks.tracer) {
    bed->node.set_tracer(hooks.tracer);
    bed->attacker_wire.set_tracer(hooks.tracer);
    bed->legit_wire.set_tracer(hooks.tracer);
  }

  core::CachePollutionResult result;
  std::uint64_t trace = 0;
  for (std::size_t i = 0; i < config.warmup_requests; ++i) {
    if (spans) spans->set_trace(++trace);
    bed->legit_request(spans);
  }
  for (std::size_t i = 0; i < config.requests; ++i) {
    if (spans) spans->set_trace(++trace);
    if (bed->rng.chance(config.attack_fraction)) {
      http::Request request = http::make_get(
          "shop.example.com", "/target.bin?x=" + std::to_string(i));
      request.headers.add("Range", "bytes=0-0");
      const std::uint64_t before = bed->node.upstream_traffic().response_bytes();
      {
        ScopedSpan exchange(spans, "exchange");
        bed->attacker_wire.transfer(request);
      }
      result.attack_origin_response_bytes +=
          bed->node.upstream_traffic().response_bytes() - before;
      ++result.attack_requests;
    } else {
      ++result.legit_requests;
      if (bed->legit_request(spans)) ++result.legit_hits;
    }
    result.cache_bytes_peak = std::max(result.cache_bytes_peak, bed->node.cache().bytes());
  }
  if (spans) spans->set_trace(0);

  // The pollution campaign has neither a detector replay nor a projection;
  // the spans mark the phases.
  { ScopedSpan replay(spans, "core.replay"); }
  { ScopedSpan project(spans, "sim.project"); }

  result.attacker = bed->attacker_traffic.totals();
  result.origin_response_bytes = bed->node.upstream_traffic().response_bytes();
  const cdn::Cache::Stats stats = bed->node.cache().stats();
  result.cache_bytes_end = stats.bytes;
  result.cache_evictions = stats.evictions;
  result.cache_admission_rejects = stats.admission_rejects;
  if (result.legit_requests != 0) {
    result.legit_hit_rate = static_cast<double>(result.legit_hits) /
                            static_cast<double>(result.legit_requests);
  }
  if (result.attacker.response_bytes != 0) {
    result.attack_amplification =
        static_cast<double>(result.attack_origin_response_bytes) /
        static_cast<double>(result.attacker.response_bytes);
  }

  Rebuilt out;
  out.fingerprint = fingerprint(result);
  out.counts.exchanges =
      bed->attacker_traffic.exchange_count() + bed->legit_traffic.exchange_count();
  out.counts.requests = config.requests;
  out.counts.origin_calls = bed->origin_timed.calls();
  out.counts.client_response_bytes =
      result.attacker.response_bytes + bed->legit_traffic.response_bytes();
  out.counts.origin_response_bytes = result.origin_response_bytes;
  out.counts.cache = stats;
  return out;
}

Rebuilt run_rebuilt(Workload workload, std::uint64_t seed, const Hooks& hooks) {
  switch (workload) {
    case Workload::kSbrSaturate: return run_rebuilt(sbr_config(1, 1), hooks);
    case Workload::kObrCascade: return run_rebuilt(obr_config(kObrN, 1, 1), hooks);
    case Workload::kCachePollution:
      return run_rebuilt(pollution_config(seed, 1, 1), hooks);
  }
  return {};
}

void build_testbed_once(Workload workload, bool warm_up) {
  const Hooks none;
  switch (workload) {
    case Workload::kSbrSaturate: {
      SbrBed bed(sbr_config(1, 1), none);
      break;
    }
    case Workload::kObrCascade: {
      ObrBed bed(obr_config(kObrN, 1, 1), none);
      break;
    }
    case Workload::kCachePollution: {
      const core::CachePollutionConfig config =
          pollution_config(kPollutionGoldenSeed, 1, 1);
      PollutionBed bed(config, none);
      if (warm_up) bed.warm_up(config);
      break;
    }
  }
}

std::string workload_range_value(Workload workload) {
  switch (workload) {
    case Workload::kSbrSaturate: {
      const core::SbrCampaignConfig config = sbr_config(1, 1);
      return core::sbr_plan(config.vendor, config.file_size).range.to_string();
    }
    case Workload::kObrCascade:
      return core::obr_range_case(cdn::Vendor::kCloudflare, kObrN).to_string();
    case Workload::kCachePollution:
      return "bytes=0-0";
  }
  return {};
}

std::uint64_t workload_resource_bytes(Workload workload) {
  switch (workload) {
    case Workload::kSbrSaturate: return sbr_config(1, 1).file_size;
    case Workload::kObrCascade: return obr_config(kObrN, 1, 1).resource_size;
    case Workload::kCachePollution:
      return pollution_config(kPollutionGoldenSeed, 1, 1).attack_object_bytes;
  }
  return 0;
}

}  // namespace perfbench
