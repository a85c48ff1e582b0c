// Time-domain SBR attack-load simulation (experiment 4 / Fig 7).
//
// Drives a PsEngine with the paper's workload: m range requests per second
// for `duration_s` seconds.  Each request costs the origin one back-to-origin
// response of `origin_response_bytes` on its 1000 Mbps uplink, while the
// client receives only a `client_response_bytes` 206 once the CDN has pulled
// the resource.  Output is the per-second bandwidth series the paper plots;
// the engine jumps between completions and whole-second boundaries, so every
// sample is exact (origin bytes in a second = capacity x busy time).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rangeamp::sim {

struct AttackLoadConfig {
  /// Origin uplink capacity (the paper's testbed: 1000 Mbps).
  double origin_uplink_mbps = 1000.0;

  /// Attack rate: requests sent concurrently at each whole second.
  int requests_per_second = 1;

  /// Attack duration in seconds (paper: 30 s).
  double duration_s = 30.0;

  /// How long to keep simulating after the last request is sent, so
  /// in-flight transfers can drain into the series.
  double drain_s = 10.0;

  /// Bytes the origin sends per attack request (measured on the testbed;
  /// ~ resource size + response headers under a Deletion-policy CDN).
  std::uint64_t origin_response_bytes = 0;

  /// Bytes the client receives per attack request (the tiny 206).
  std::uint64_t client_response_bytes = 0;

  /// Benign cross-traffic sharing the origin uplink (collateral-damage
  /// experiments): full-resource pulls at this rate and size.
  int benign_requests_per_second = 0;
  std::uint64_t benign_response_bytes = 0;

  /// Round-trip network latency added to every reported benign fetch
  /// latency (request travel + first byte back).  Transfer times come from
  /// the processor-sharing link; this models the propagation floor.
  double network_rtt_s = 0;
};

struct BandwidthSample {
  double second = 0;            ///< sample interval [second, second+1)
  double origin_out_mbps = 0;   ///< origin outgoing bandwidth
  double client_in_kbps = 0;    ///< client incoming bandwidth
  std::size_t in_flight = 0;    ///< back-to-origin transfers (attack and
                                ///< benign) still active at the end of the
                                ///< interval
  /// Benign cross-traffic (when configured): bytes completed this second
  /// and the mean fetch latency of flows completing this second (<0 when
  /// none completed).
  double benign_goodput_mbps = 0;
  double benign_latency_s = -1;
};

/// Number of per-second samples a projection of `config` produces:
/// ceil(duration_s + drain_s).  Throws std::invalid_argument when no
/// projection can run: a duration or drain that is negative or not finite
/// (or that add up to more than 1e9 s), an uplink that is not finite and
/// > 0, or a negative request rate.
std::size_t series_length(const AttackLoadConfig& config);

/// Runs the attack-load simulation and returns one sample per second.
/// Throws std::invalid_argument as series_length() does.
std::vector<BandwidthSample> simulate_attack_load(const AttackLoadConfig& config);

/// Steady-state utilization summary over the attack window.
struct AttackLoadSummary {
  double peak_origin_out_mbps = 0;
  /// Over [5s, duration) -- warmed up; over [0, duration) when the attack
  /// is too short to leave a warm window.
  double mean_origin_out_mbps = 0;
  double peak_client_in_kbps = 0;
  bool saturated = false;  ///< origin uplink pinned at capacity
};

AttackLoadSummary summarize(const AttackLoadConfig& config,
                            const std::vector<BandwidthSample>& series);

}  // namespace rangeamp::sim
