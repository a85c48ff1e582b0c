// The traced run's exchange loops.  Each rebuilds one workload's serial
// campaign from public APIs -- the same testbed, requests, detector replay
// and projection as the campaign entry point -- and places the benchmark's
// timing handlers at each layer boundary:
//
//   exchange (client transport) -> cdn.handle -> [cdn.bcdn ->] origin.handle
//
// under a root "campaign" span with "testbed", "core.replay" and
// "sim.project" children.  Its result is filled in the campaign's own result
// type, so its fingerprint must equal the untraced call's byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cdn/cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

/// Sinks a rebuilt run reports to; all optional.
struct Hooks {
  SpanLog* spans = nullptr;               ///< the benchmark's span log
  rangeamp::obs::Tracer* tracer = nullptr;  ///< the program's own tracer
  rangeamp::obs::MetricsRegistry* metrics = nullptr;
};

/// Exact counts taken at the layer boundaries of one rebuilt run.
struct LayerCounts {
  std::uint64_t exchanges = 0;       ///< client transfers, warm-up included
  std::uint64_t requests = 0;        ///< campaign requests (warm-up excluded)
  std::uint64_t origin_calls = 0;    ///< requests that reached the origin
  std::uint64_t client_response_bytes = 0;
  std::uint64_t origin_response_bytes = 0;     ///< origin-facing segments
  std::uint64_t fcdn_bcdn_response_bytes = 0;  ///< inter-CDN segment (cascade)
  rangeamp::cdn::Cache::Stats cache;           ///< summed over every node
  std::uint64_t flow_seconds = 0;    ///< sum of per-second in-flight flows
  std::uint64_t in_flight_peak = 0;
};

struct Rebuilt {
  std::string fingerprint;  ///< same format as the campaign result's
  LayerCounts counts;
};

/// Runs the workload's serial campaign rebuilt from public APIs.  The
/// cache-pollution loop uses `seed`; the others have no seed.
Rebuilt run_rebuilt(Workload workload, std::uint64_t seed, const Hooks& hooks);

/// The same for any serial campaign config (shards and threads are
/// ignored): what the campaign entry point would run for `config`.
Rebuilt run_rebuilt(const core::SbrCampaignConfig& config, const Hooks& hooks);
Rebuilt run_rebuilt(const core::ObrCampaignConfig& config, const Hooks& hooks);
Rebuilt run_rebuilt(const core::CachePollutionConfig& config, const Hooks& hooks);

/// Builds and tears down the workload's serial testbed once, as the campaign
/// does before its first exchange; `warm_up` also runs cache-pollution's
/// legit-only warm-up.  (obr-cascade's set-up is core::measure_obr.)
void build_testbed_once(Workload workload, bool warm_up);

/// The Range header value one campaign request of the workload carries.
std::string workload_range_value(Workload workload);

/// Resource size that Range value is resolved against.
std::uint64_t workload_resource_bytes(Workload workload);

}  // namespace perfbench
