// The benchmark's three workloads: their fixed campaign shapes, one
// campaign call each through the public entry points, and the output checks
// every call must pass.  README.md says why each shape was chosen.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "core/campaign.h"

namespace perfbench {

namespace core = rangeamp::core;

enum class Workload { kSbrSaturate, kObrCascade, kCachePollution };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload workload);

/// Worker threads of every sharded pass: half of a 4-vCPU machine.  On a
/// shared virtual machine slowdowns hit each vCPU separately, and with all
/// four busy the slowest one decides every pass.
inline constexpr int kShardThreads = 2;

/// Shards of the workload's sharded pass.
std::size_t shard_count(Workload workload);

/// Client exchanges of one campaign call.
std::uint64_t exchanges_per_call(Workload workload);

/// sbr-saturate: Cloudflare, 64 KiB object, 8 round-robin edge nodes,
/// 4000 rps against a 1000 Mbps origin uplink.
core::SbrCampaignConfig sbr_config(std::size_t shards, int threads);

/// obr-cascade: Cloudflare -> Akamai, 1 KiB resource, `n` overlapping
/// ranges (0 lets the campaign discover max_n itself), 2 rps.
core::ObrCampaignConfig obr_config(std::size_t n, std::size_t shards, int threads);

/// cache-pollution: one Akamai node per shard with an 8 MiB S3-FIFO budget;
/// half the requests spray 1-byte ranges at a 256 KiB object, half are
/// Zipf(1) reads over 256 objects of 16 KiB.
core::CachePollutionConfig pollution_config(std::uint64_t seed,
                                            std::size_t shards, int threads);

/// The cache-pollution seed the goldens were recorded at.
inline constexpr std::uint64_t kPollutionGoldenSeed = 2020;

/// The OBR cascade's max n at this commit, and the n every timed call uses
/// (max n less the campaign's 4-range margin for its cache-busting query).
inline constexpr std::size_t kObrMaxN = 10750;
inline constexpr std::size_t kObrN = kObrMaxN - 4;

/// Outcome of one output check: empty `failure` means the output is right.
struct Check {
  std::string failure;
  bool ok() const { return failure.empty(); }
};

/// Operation accounting: every checked call is one attempt, and an
/// exception or a failed check makes it a failure.
class Ledger {
 public:
  /// Runs `op` and returns whether it succeeded; failures go to stderr.
  bool run(const std::string& what, const std::function<Check()>& op);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Exact byte-level summaries.  Two results with equal fingerprints carry
/// the same bytes, amplification, projection and detector verdict.
std::string fingerprint(const core::SbrCampaignResult& result);
std::string fingerprint(const core::ObrCampaignResult& result);
std::string fingerprint(const core::CachePollutionResult& result);

/// Golden values recorded at the commit that introduced the benchmark.
struct SbrGolden {
  double amplification;
  std::uint64_t attacker_request_bytes;
  std::uint64_t attacker_response_bytes;
  std::uint64_t origin_response_bytes;
};
struct ObrGolden {
  std::size_t n;
  double amplification;
  std::uint64_t fcdn_bcdn_bytes_per_request;
  std::uint64_t bcdn_origin_response_bytes;
  std::uint64_t attacker_response_bytes;
};
struct PollutionGolden {
  double serial_legit_hit_rate;
  double sharded_legit_hit_rate;
};

extern const SbrGolden kSbrGolden;
extern const ObrGolden kObrGolden;
extern const PollutionGolden kPollutionGolden;

Check check_sbr(const core::SbrCampaignResult& result, const SbrGolden& golden);
Check check_obr(const core::ObrCampaignResult& result, const ObrGolden& golden);
/// Checks that hold at every seed: request accounting and each shard's
/// peak cache bytes within the 8 MiB budget.
Check check_pollution(const core::CachePollutionResult& result,
                      std::size_t requests);
/// The golden hit rate of a seed-2020 call (serial or sharded).
Check check_pollution_golden(const core::CachePollutionResult& result,
                             bool sharded, const PollutionGolden& golden);
/// Max-n discovery must find the cascade's recorded max n.
Check check_obr_max_n(std::size_t max_n);

}  // namespace perfbench
