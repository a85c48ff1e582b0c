#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <system_error>
#include <thread>

namespace rangeamp::core {

ShardPlan::ShardPlan(std::uint64_t total, std::size_t shard_count,
                     std::uint64_t seed, std::uint64_t group)
    : total_(total) {
  if (group == 0) throw std::invalid_argument("ShardPlan: group must be > 0");
  if (total == 0) return;  // empty grid -> empty plan
  // Decompose in whole groups so a same-key burst never straddles shards.
  const std::uint64_t groups = (total + group - 1) / group;
  const std::uint64_t count = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(shard_count, groups));
  shards_.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    // Balanced split of `groups` into `count` blocks (sizes differ by <= 1).
    const std::uint64_t gbegin = groups * i / count;
    const std::uint64_t gend = groups * (i + 1) / count;
    Shard shard;
    shard.index = static_cast<std::size_t>(i);
    shard.begin = gbegin * group;
    shard.end = std::min(gend * group, total);
    shard.seed = shard_seed(seed, shard.index);
    shards_.push_back(shard);
  }
}

void run_shards(const ShardPlan& plan, std::size_t threads,
                const std::function<void(const Shard&)>& fn) {
  const std::vector<Shard>& shards = plan.shards();
  // One exception slot per shard; the first (by shard index, not by wall
  // clock) is rethrown, so even failure reporting is thread-count-stable.
  std::vector<std::exception_ptr> errors(shards.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < shards.size(); i = next++) {
      try {
        fn(shards[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> helpers;
  const std::size_t workers = std::min(threads, shards.size());
  if (workers > 1) helpers.reserve(workers - 1);
  for (std::size_t t = 1; t < workers; ++t) {
    try {
      helpers.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // the workers already running claim the shards it would have
    }
  }
  work();  // the calling thread is the last worker
  for (std::thread& helper : helpers) helper.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace rangeamp::core
