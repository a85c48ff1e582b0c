#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <exception>

namespace perfbench {
namespace {

// Campaign sizes.  One serial call stays well above the 0.1 s floor below
// which timings on a shared virtual machine are noise, and well below the
// run length, so every run holds many calls of each kind.
constexpr int kSbrRate = 4000;
constexpr int kSbrDurationS = 4;
constexpr int kObrRate = 2;
constexpr int kObrDurationS = 30;
constexpr std::size_t kPollutionRequests = 200000;
constexpr std::uint64_t kPollutionBudget = 8u << 20;

std::string hex(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

void append(std::string& out, const char* key, std::uint64_t value) {
  out += key;
  out += '=';
  out += std::to_string(value);
  out += ';';
}

void append(std::string& out, const char* key, double value) {
  out += key;
  out += '=';
  out += hex(value);
  out += ';';
}

void append_series(std::string& out,
                   const std::vector<rangeamp::sim::BandwidthSample>& series) {
  for (const auto& s : series) {
    out += hex(s.origin_out_mbps) + ',' + hex(s.client_in_kbps) + ',' +
           std::to_string(s.in_flight) + '|';
  }
  out += ';';
}

bool close_to(double value, double golden, double tolerance) {
  return std::fabs(value - golden) <= tolerance;
}

std::string mismatch(const char* what, double got, double want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: got %.17g, golden %.17g", what, got, want);
  return buf;
}

}  // namespace

bool Ledger::run(const std::string& what, const std::function<Check()>& op) {
  ++attempted_;
  std::string failure;
  try {
    failure = op().failure;
  } catch (const std::exception& e) {
    failure = std::string("exception: ") + e.what();
  } catch (...) {
    failure = "unknown exception";
  }
  if (failure.empty()) return true;
  ++failed_;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(), failure.c_str());
  return false;
}

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "sbr-saturate") return Workload::kSbrSaturate;
  if (name == "obr-cascade") return Workload::kObrCascade;
  if (name == "cache-pollution") return Workload::kCachePollution;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kSbrSaturate: return "sbr-saturate";
    case Workload::kObrCascade: return "obr-cascade";
    case Workload::kCachePollution: return "cache-pollution";
  }
  return "?";
}

std::size_t shard_count(Workload workload) {
  return workload == Workload::kSbrSaturate ? 64 : 16;
}

std::uint64_t exchanges_per_call(Workload workload) {
  switch (workload) {
    case Workload::kSbrSaturate:
      return static_cast<std::uint64_t>(kSbrRate) * kSbrDurationS;
    case Workload::kObrCascade:
      return static_cast<std::uint64_t>(kObrRate) * kObrDurationS;
    case Workload::kCachePollution:
      return kPollutionRequests;
  }
  return 0;
}

core::SbrCampaignConfig sbr_config(std::size_t shards, int threads) {
  return core::SbrCampaignConfig::Builder()
      .vendor(rangeamp::cdn::Vendor::kCloudflare)
      .file_size(64 * 1024)
      .requests_per_second(kSbrRate)
      .duration_s(kSbrDurationS)
      .edge_nodes(8)
      .selection(rangeamp::cdn::NodeSelection::kRoundRobin)
      .origin_uplink_mbps(1000.0)
      .shards(shards)
      .threads(threads)
      .build();
}

core::ObrCampaignConfig obr_config(std::size_t n, std::size_t shards, int threads) {
  return core::ObrCampaignConfig::Builder()
      .fcdn(rangeamp::cdn::Vendor::kCloudflare)
      .bcdn(rangeamp::cdn::Vendor::kAkamai)
      .resource_size(1024)
      .overlapping_ranges(n)
      .requests_per_second(kObrRate)
      .duration_s(kObrDurationS)
      .shards(shards)
      .threads(threads)
      .build();
}

core::CachePollutionConfig pollution_config(std::uint64_t seed,
                                            std::size_t shards, int threads) {
  core::CachePollutionConfig config;
  config.vendor = rangeamp::cdn::Vendor::kAkamai;
  config.cache.max_bytes = kPollutionBudget;
  config.cache.policy = rangeamp::cdn::CacheEvictionPolicy::kS3Fifo;
  config.requests = kPollutionRequests;
  config.attack_fraction = 0.5;
  config.seed = seed;
  config.shards = shards;
  config.threads = threads;
  return config;
}

std::string fingerprint(const core::SbrCampaignResult& r) {
  std::string out;
  append(out, "attacker_req", r.attacker.request_bytes);
  append(out, "attacker_resp", r.attacker.response_bytes);
  append(out, "origin_resp", r.origin.response_bytes);
  append(out, "truncated", r.attacker_truncated);
  append(out, "af", r.amplification);
  append(out, "nodes", static_cast<std::uint64_t>(r.nodes_touched));
  for (std::uint64_t bytes : r.per_node_upstream_bytes) append(out, "node", bytes);
  append(out, "alarmed", static_cast<std::uint64_t>(r.detector_alarmed));
  append(out, "peak_mbps", r.bandwidth.peak_origin_out_mbps);
  append(out, "mean_mbps", r.bandwidth.mean_origin_out_mbps);
  append_series(out, r.series);
  return out;
}

std::string fingerprint(const core::ObrCampaignResult& r) {
  std::string out;
  append(out, "n", static_cast<std::uint64_t>(r.n));
  append(out, "fcdn_bcdn_per_req", r.fcdn_bcdn_bytes_per_request);
  append(out, "bcdn_origin_resp", r.bcdn_origin_response_bytes);
  append(out, "attacker_resp", r.attacker_response_bytes);
  append(out, "truncated", r.attacker_truncated);
  append(out, "af", r.amplification);
  append(out, "saturation_s", r.seconds_to_saturation);
  append_series(out, r.series);
  return out;
}

std::string fingerprint(const core::CachePollutionResult& r) {
  std::string out;
  append(out, "legit", static_cast<std::uint64_t>(r.legit_requests));
  append(out, "attack", static_cast<std::uint64_t>(r.attack_requests));
  append(out, "hits", static_cast<std::uint64_t>(r.legit_hits));
  append(out, "attacker_resp", r.attacker.response_bytes);
  append(out, "origin_resp", r.origin_response_bytes);
  append(out, "attack_origin_resp", r.attack_origin_response_bytes);
  append(out, "peak", r.cache_bytes_peak);
  append(out, "evictions", r.cache_evictions);
  append(out, "rejects", r.cache_admission_rejects);
  return out;
}

Check check_sbr(const core::SbrCampaignResult& r, const SbrGolden& g) {
  if (!close_to(r.amplification, g.amplification, 5e-7)) {
    return {mismatch("sbr amplification", r.amplification, g.amplification)};
  }
  if (r.attacker.request_bytes != g.attacker_request_bytes) {
    return {mismatch("sbr attacker request bytes",
                     static_cast<double>(r.attacker.request_bytes),
                     static_cast<double>(g.attacker_request_bytes))};
  }
  if (r.attacker.response_bytes != g.attacker_response_bytes) {
    return {mismatch("sbr attacker response bytes",
                     static_cast<double>(r.attacker.response_bytes),
                     static_cast<double>(g.attacker_response_bytes))};
  }
  if (r.origin.response_bytes != g.origin_response_bytes) {
    return {mismatch("sbr origin response bytes",
                     static_cast<double>(r.origin.response_bytes),
                     static_cast<double>(g.origin_response_bytes))};
  }
  if (r.bandwidth.peak_origin_out_mbps < 990.0) {
    return {mismatch("sbr peak origin uplink Mbps", r.bandwidth.peak_origin_out_mbps, 1000.0)};
  }
  return {};
}

Check check_obr(const core::ObrCampaignResult& r, const ObrGolden& g) {
  if (r.n != g.n) {
    return {mismatch("obr n", static_cast<double>(r.n), static_cast<double>(g.n))};
  }
  if (!close_to(r.amplification, g.amplification, 5e-3)) {
    return {mismatch("obr amplification", r.amplification, g.amplification)};
  }
  if (r.fcdn_bcdn_bytes_per_request != g.fcdn_bcdn_bytes_per_request) {
    return {mismatch("obr fcdn-bcdn bytes per request",
                     static_cast<double>(r.fcdn_bcdn_bytes_per_request),
                     static_cast<double>(g.fcdn_bcdn_bytes_per_request))};
  }
  if (r.bcdn_origin_response_bytes != g.bcdn_origin_response_bytes) {
    return {mismatch("obr bcdn-origin response bytes",
                     static_cast<double>(r.bcdn_origin_response_bytes),
                     static_cast<double>(g.bcdn_origin_response_bytes))};
  }
  if (r.attacker_response_bytes != g.attacker_response_bytes) {
    return {mismatch("obr attacker response bytes",
                     static_cast<double>(r.attacker_response_bytes),
                     static_cast<double>(g.attacker_response_bytes))};
  }
  return {};
}

Check check_obr_max_n(std::size_t max_n) {
  if (max_n != kObrMaxN) {
    return {mismatch("obr max n", static_cast<double>(max_n),
                     static_cast<double>(kObrMaxN))};
  }
  return {};
}

Check check_pollution(const core::CachePollutionResult& r, std::size_t requests) {
  if (r.legit_requests + r.attack_requests != requests) {
    return {mismatch("pollution request count",
                     static_cast<double>(r.legit_requests + r.attack_requests),
                     static_cast<double>(requests))};
  }
  if (r.legit_requests == 0 || r.attack_requests == 0) {
    return {"pollution: one side of the mix is empty"};
  }
  if (r.cache_bytes_peak == 0 || r.cache_bytes_peak > kPollutionBudget) {
    return {mismatch("pollution peak cache bytes",
                     static_cast<double>(r.cache_bytes_peak),
                     static_cast<double>(kPollutionBudget))};
  }
  return {};
}

Check check_pollution_golden(const core::CachePollutionResult& r, bool sharded,
                             const PollutionGolden& g) {
  const double want = sharded ? g.sharded_legit_hit_rate : g.serial_legit_hit_rate;
  if (!close_to(r.legit_hit_rate, want, 5e-7)) {
    return {mismatch(sharded ? "pollution sharded legit hit rate"
                             : "pollution serial legit hit rate",
                     r.legit_hit_rate, want)};
  }
  return {};
}

// Recorded at the commit that introduced the benchmark.
const SbrGolden kSbrGolden{80.538556, 1348890, 13072000, 1052800000};
const ObrGolden kObrGolden{kObrN, 7442.42, 12466055, 100500, 296760};
const PollutionGolden kPollutionGolden{0.996886, 0.954086};

}  // namespace perfbench
