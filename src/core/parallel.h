// Sharded parallel execution for campaign-scale workloads.
//
// Every experiment in this reproduction is an aggregate over many
// *independent* exchanges (the paper's amplification factors are byte ratios
// summed across requests), which parallelizes without changing a single
// result byte -- provided the decomposition is deterministic.  This module
// supplies the pieces every campaign and sweep runs on:
//
//   * ShardPlan -- splits an exchange grid [0, total) into contiguous,
//     group-aligned shards, each with a deterministically derived RNG seed
//     (SplitMix64 of `seed ^ shard_index`).  The plan is a pure function of
//     (total, shard_count, seed, group): it never consults the thread count,
//     the hardware, or a clock, so the same shard boundaries and seeds come
//     out on every machine and at every parallelism level.
//
//   * run_shards -- runs one call per shard on up to `threads` workers, the
//     calling thread among them.  Workers claim shard indices from one
//     atomic counter, and the threads end with the call.  Threads only
//     decide *when* a shard runs, never *what* it computes.
//
//   * run_sharded -- the one campaign runner.  With `shards <= 1` it runs a
//     single block over the whole grid under the campaign seed itself,
//     writing into the caller's tracer and registry; otherwise it runs one
//     block per ShardPlan shard, each with its own sinks, and merges blocks
//     and sinks in shard-index order after every shard completed, so the
//     merged result is identical at any thread count.
//
// ## Per-shard ownership rule
//
// Workers share NOTHING mutable.  A shard block must own every piece of
// state it touches:
//
//   * its own origin::OriginServer, cdn::CdnNode / EdgeCluster (and thus its
//     own cdn::Cache maps, ShieldStats, ValidationStats, OverloadStats --
//     all of which are plain per-instance members),
//   * its own net::TrafficRecorder / ExchangeRecord log,
//   * its own obs::Tracer and obs::MetricsRegistry sinks (run_sharded hands
//     each shard fresh ones and merges them afterwards with
//     Tracer::merge_from / MetricsRegistry::merge_from, in shard order),
//   * its own http::Rng, seeded from Shard::seed -- never a shared stream.
//
// The block may read the (const) campaign config and the shard descriptor;
// everything it writes goes into a result slot indexed by Shard::index that
// no other shard touches.  This was audited against the library (src/ holds
// no mutable statics or thread_locals; recorders, caches and stats structs
// are all instance members), and the rule is what keeps the
// ThreadSanitizer CI tier clean.  Cross-shard coupling that the
// decomposition cannot express -- breaker windows spanning key groups,
// overload watermarks fed by global concurrency -- is exactly the state a
// campaign must keep `shards = 1` for; see docs/parallel-model.md.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace rangeamp::core {

/// SplitMix64 (Steele et al.): the canonical seed-spreading finalizer.
/// Adjacent inputs (seed ^ 0, seed ^ 1, ...) map to decorrelated outputs,
/// which is what makes per-shard xorshift streams independent.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Seed of shard `index` under campaign seed `seed`.  Depends only on the
/// pair -- NOT on the shard count -- so pinning the shard count pins every
/// stream, and growing a campaign appends new streams without perturbing
/// the existing ones.
constexpr std::uint64_t shard_seed(std::uint64_t seed,
                                   std::size_t index) noexcept {
  return splitmix64(seed ^ static_cast<std::uint64_t>(index));
}

/// One shard of an exchange grid: the contiguous global-index block
/// [begin, end) plus this shard's derived RNG seed.
struct Shard {
  std::size_t index = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;    ///< past-the-end global exchange index
  std::uint64_t seed = 0;   ///< shard_seed(campaign_seed, index)

  std::uint64_t size() const noexcept { return end - begin; }
};

/// Deterministic decomposition of [0, total) into at most `shard_count`
/// contiguous shards.  Boundaries fall on multiples of `group` (a key-burst
/// group must never straddle a shard: splitting it would turn one shard's
/// cache hit into another shard's miss), block sizes differ by at most one
/// group, and empty shards are never emitted -- the plan clamps the shard
/// count to the group count.
class ShardPlan {
 public:
  ShardPlan(std::uint64_t total, std::size_t shard_count,
            std::uint64_t seed = 0, std::uint64_t group = 1);

  const std::vector<Shard>& shards() const noexcept { return shards_; }
  std::size_t size() const noexcept { return shards_.size(); }
  std::uint64_t total() const noexcept { return total_; }

 private:
  std::uint64_t total_;
  std::vector<Shard> shards_;
};

/// Runs `fn(shard)` once for every shard of `plan` on up to `threads`
/// workers and returns once all shards completed.  The calling thread is
/// one of the workers: `min(threads, plan.size()) - 1` threads are started,
/// none with `threads <= 1` or a one-shard plan, in which case the shards
/// run on the caller in shard order.  Every shard runs even if another
/// throws; the exception of the lowest-index failing shard is rethrown
/// after all shards finished, so failure reporting is thread-count-stable.
void run_shards(const ShardPlan& plan, std::size_t threads,
                const std::function<void(const Shard&)>& fn);

/// The observability sinks a campaign block writes into (null = off).
struct ShardSinks {
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// Runs a campaign's exchange grid [0, total) as blocks and returns their
/// merge.  `run_block(shard, sinks)` runs the exchanges [shard.begin,
/// shard.end) against a testbed of its own and returns a `Block`;
/// `Block::merge(const Block&)` folds one block into another.
///
///   * `shards <= 1`: one block, `Shard{0, 0, total, seed}` -- the campaign
///     seed itself, not a derived stream -- writing into `sinks` directly.
///     This is the serial path, and its result is that block unmerged.
///   * `shards > 1`: one block per shard of `ShardPlan(total, shards, seed,
///     group)` on up to `threads` workers (see run_shards).  A shard gets a
///     tracer or registry of its own only where `sinks` has one; after every
///     shard finished, blocks and sinks merge into a default `Block` and
///     into `sinks`, in shard order.
template <typename Block, typename RunBlock>
Block run_sharded(std::uint64_t total, std::size_t shards, int threads,
                  std::uint64_t seed, std::uint64_t group, ShardSinks sinks,
                  const RunBlock& run_block) {
  if (shards <= 1) return run_block(Shard{0, 0, total, seed}, sinks);
  const ShardPlan plan(total, shards, seed, group);
  std::vector<Block> blocks(plan.size());
  std::vector<obs::Tracer> tracers(sinks.tracer ? plan.size() : 0);
  std::vector<obs::MetricsRegistry> registries(sinks.metrics ? plan.size() : 0);
  run_shards(plan, static_cast<std::size_t>(std::max(1, threads)),
             [&](const Shard& shard) {
               const std::size_t i = shard.index;
               blocks[i] = run_block(
                   shard, ShardSinks{sinks.tracer ? &tracers[i] : nullptr,
                                     sinks.metrics ? &registries[i] : nullptr});
             });
  Block merged;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    merged.merge(blocks[i]);
    if (sinks.tracer) sinks.tracer->merge_from(tracers[i]);
    if (sinks.metrics) sinks.metrics->merge_from(registries[i]);
  }
  return merged;
}

}  // namespace rangeamp::core
