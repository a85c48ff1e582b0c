#include "sim/attack_load.h"

#include <algorithm>
#include <cmath>
#include <deque>
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

ShieldedLoadResult simulate_attack_load_shielded(const ShieldedLoadConfig& config) {
  const AttackLoadConfig& base = config.base;
  const std::size_t seconds = series_length(base);
  if (!(config.deadline_seconds >= 0)) {
    throw std::invalid_argument("shielded load: deadline_seconds must be >= 0");
  }
  PsEngine uplink(base.origin_uplink_mbps * 1e6 / 8.0);  // bytes/s
  const std::size_t bursts = static_cast<std::size_t>(std::ceil(base.duration_s));
  uplink.reserve(bursts * (static_cast<std::size_t>(base.requests_per_second) +
                           static_cast<std::size_t>(base.benign_requests_per_second)));
  const int burst = std::max(1, config.same_key_burst);
  const auto origin_bytes = static_cast<double>(base.origin_response_bytes);
  const auto client_bytes_each = static_cast<double>(base.client_response_bytes);
  const auto shed_bytes_each = static_cast<double>(config.shed_response_bytes);

  // Attack flows with a deadline still in flight.  Every one carries the
  // same bytes and the same deadline, and V only rises while any flow is in
  // flight, so they finish -- and come due -- in admission order: a FIFO
  // stands in for a cancellable event queue.
  struct Armed {
    double expiry;
    std::uint64_t id;
    double start_virtual;  ///< V at arrival; the flow has moved V - this
  };
  std::deque<Armed> armed;

  ShieldedLoadResult result;
  result.series.resize(seconds);
  std::unordered_set<std::uint64_t> benign_ids;
  double busy_before = 0;
  for (std::size_t s = 0; s < seconds; ++s) {
    BandwidthSample& sample = result.series[s];
    sample.second = static_cast<double>(s);
    const double next_second = sample.second + 1.0;
    double client_bytes = 0;
    if (sample.second < base.duration_s) {  // one burst per attack second
      for (int i = 0; i < base.requests_per_second; ++i) {
        if (config.coalesce && i % burst != 0) {
          // Follower of this second's key group: answered from the leader's
          // fill, no origin flow.  The client still gets its tiny 206 now.
          ++result.coalesced;
          client_bytes += client_bytes_each;
        } else if (config.max_pending != 0 &&
                   uplink.active_flows() >= config.max_pending) {
          ++result.shed;
          client_bytes += shed_bytes_each;
        } else {
          ++result.origin_fetches;
          const std::uint64_t id = uplink.start_flow(base.origin_response_bytes);
          if (config.deadline_seconds > 0) {
            armed.push_back({sample.second + config.deadline_seconds, id,
                             uplink.virtual_time()});
          }
        }
      }
      for (int i = 0; i < base.benign_requests_per_second; ++i) {
        benign_ids.insert(uplink.start_flow(base.benign_response_bytes));
      }
    }
    double benign_bytes = 0;
    double benign_latency_sum = 0;
    std::size_t benign_completions = 0;
    const auto on_complete = [&](const PsFlow& flow, double at) {
      if (benign_ids.erase(flow.id) != 0) {
        benign_bytes += static_cast<double>(base.benign_response_bytes);
        benign_latency_sum += at - flow.start_time + base.network_rtt_s;
        ++benign_completions;
        return;
      }
      if (!armed.empty() && armed.front().id == flow.id) armed.pop_front();
      // The CDN forwards the tiny 206 to the client once its back-to-origin
      // pull finishes.
      client_bytes += client_bytes_each;
    };
    // Deadlines due this second cut what is still in flight; a flow that
    // finishes at or before its deadline has completed.
    while (!armed.empty() && armed.front().expiry < next_second) {
      uplink.run_until(armed.front().expiry, on_complete);
      if (armed.empty() || armed.front().expiry > uplink.now()) continue;
      const Armed& cut = armed.front();
      result.cancelled_origin_bytes +=
          std::clamp(uplink.virtual_time() - cut.start_virtual, 0.0, origin_bytes);
      uplink.cancel_flow(cut.id);
      armed.pop_front();
      ++result.deadline_cancelled;
      // The client leg is abandoned: a 504 the size of the shed response,
      // not a 206.
      client_bytes += shed_bytes_each;
    }
    uplink.run_until(next_second, on_complete);
    const double origin_out_bytes = (uplink.busy_time() - busy_before) * uplink.capacity();
    busy_before = uplink.busy_time();
    sample.origin_out_mbps = origin_out_bytes * 8.0 / 1e6;
    sample.client_in_kbps = client_bytes * 8.0 / 1e3;
    sample.in_flight = uplink.active_flows();
    sample.benign_goodput_mbps = benign_bytes * 8.0 / 1e6;
    sample.benign_latency_s =
        benign_completions
            ? benign_latency_sum / static_cast<double>(benign_completions)
            : -1;
  }
  return result;
}

std::vector<BandwidthSample> simulate_attack_load(const AttackLoadConfig& config) {
  ShieldedLoadConfig unshielded;
  unshielded.base = config;
  return simulate_attack_load_shielded(unshielded).series;
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
