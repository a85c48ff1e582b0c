#include "sim/attack_load.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "sim/ps.h"

namespace rangeamp::sim {

std::size_t series_length(const AttackLoadConfig& config) {
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("attack load: ") + what);
  };
  require(std::isfinite(config.duration_s) && config.duration_s >= 0,
          "duration_s must be finite and >= 0");
  require(std::isfinite(config.drain_s) && config.drain_s >= 0,
          "drain_s must be finite and >= 0");
  require(std::isfinite(config.origin_uplink_mbps) && config.origin_uplink_mbps > 0,
          "origin_uplink_mbps must be finite and > 0");
  require(config.requests_per_second >= 0 && config.benign_requests_per_second >= 0,
          "request rates must be >= 0");
  const double horizon = config.duration_s + config.drain_s;
  require(horizon <= 1e9, "duration_s + drain_s must be <= 1e9 s");
  return static_cast<std::size_t>(std::ceil(horizon));
}

std::vector<BandwidthSample> simulate_attack_load(const AttackLoadConfig& config) {
  const std::size_t seconds = series_length(config);
  PsEngine uplink(config.origin_uplink_mbps * 1e6 / 8.0);  // bytes/s
  const std::size_t bursts = static_cast<std::size_t>(std::ceil(config.duration_s));
  uplink.reserve(bursts * (static_cast<std::size_t>(config.requests_per_second) +
                           static_cast<std::size_t>(config.benign_requests_per_second)));

  std::vector<BandwidthSample> series(seconds);
  std::unordered_set<std::uint64_t> benign_ids;
  double busy_before = 0;
  for (std::size_t s = 0; s < seconds; ++s) {
    BandwidthSample& sample = series[s];
    sample.second = static_cast<double>(s);
    if (sample.second < config.duration_s) {  // one burst per attack second
      for (int i = 0; i < config.requests_per_second; ++i) {
        uplink.start_flow(config.origin_response_bytes);
      }
      for (int i = 0; i < config.benign_requests_per_second; ++i) {
        benign_ids.insert(uplink.start_flow(config.benign_response_bytes));
      }
    }
    double client_bytes = 0;
    double benign_bytes = 0;
    double benign_latency_sum = 0;
    std::size_t benign_completions = 0;
    uplink.run_until(sample.second + 1.0, [&](const PsFlow& flow, double at) {
      if (benign_ids.erase(flow.id) != 0) {
        benign_bytes += static_cast<double>(config.benign_response_bytes);
        benign_latency_sum += at - flow.start_time + config.network_rtt_s;
        ++benign_completions;
        return;
      }
      // The CDN forwards the tiny 206 to the client once its back-to-origin
      // pull finishes.
      client_bytes += static_cast<double>(config.client_response_bytes);
    });
    const double origin_bytes = (uplink.busy_time() - busy_before) * uplink.capacity();
    busy_before = uplink.busy_time();
    sample.origin_out_mbps = origin_bytes * 8.0 / 1e6;
    sample.client_in_kbps = client_bytes * 8.0 / 1e3;
    sample.in_flight = uplink.active_flows();
    sample.benign_goodput_mbps = benign_bytes * 8.0 / 1e6;
    sample.benign_latency_s =
        benign_completions
            ? benign_latency_sum / static_cast<double>(benign_completions)
            : -1;
  }
  return series;
}

AttackLoadSummary summarize(const AttackLoadConfig& config,
                            const std::vector<BandwidthSample>& series) {
  AttackLoadSummary out;
  // The warm window skips the first 5 s of ramp-up; an attack that never
  // gets past them is averaged over its whole length instead.
  const double warm_from = config.duration_s > 5.0 ? 5.0 : 0.0;
  double sum = 0;
  std::size_t n = 0;
  for (const auto& s : series) {
    out.peak_origin_out_mbps = std::max(out.peak_origin_out_mbps, s.origin_out_mbps);
    out.peak_client_in_kbps = std::max(out.peak_client_in_kbps, s.client_in_kbps);
    if (s.second >= warm_from && s.second < config.duration_s) {
      sum += s.origin_out_mbps;
      ++n;
    }
  }
  out.mean_origin_out_mbps = n ? sum / static_cast<double>(n) : 0;
  out.saturated = out.mean_origin_out_mbps >= 0.98 * config.origin_uplink_mbps;
  return out;
}

}  // namespace rangeamp::sim
