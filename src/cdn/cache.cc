#include "cdn/cache.h"

#include <algorithm>
#include <utility>

namespace rangeamp::cdn {
namespace {

/// Fixed accounting overhead per entry: map node, queue slots, metadata.
/// Keeps zero-byte markers (`#vary`) and negative entries budget-visible.
constexpr std::uint64_t kEntryOverhead = 64;

/// Room Cache::key leaves for the node's longest fixed suffix, so a probe
/// that appends `#vary`, `#neg` or `#slice-total` never regrows the key.
constexpr std::size_t kSuffixRoom = sizeof("#slice-total") - 1;

/// FNV-1a 64-bit.  Deterministic across platforms, unlike std::hash --
/// sharded layouts (and therefore sharded campaign CSVs) must not depend on
/// the standard library's hash choice.
std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::string_view cache_policy_name(CacheEvictionPolicy p) noexcept {
  switch (p) {
    case CacheEvictionPolicy::kFifoNaive: return "fifo-naive";
    case CacheEvictionPolicy::kS3Fifo: return "s3-fifo";
  }
  return "?";
}

Cache::Cache(const CacheTraits& traits) : traits_(traits) {
  if (traits_.shards == 0) traits_.shards = 1;
  traits_.high_watermark = std::clamp(traits_.high_watermark, 0.0, 1.0);
  traits_.low_watermark =
      std::clamp(traits_.low_watermark, 0.0, traits_.high_watermark);
  traits_.small_fraction = std::clamp(traits_.small_fraction, 0.0, 1.0);
  if (traits_.max_bytes != 0) {
    shard_budget_ = std::max<std::uint64_t>(
        traits_.max_bytes / traits_.shards, kEntryOverhead);
    small_capacity_ = static_cast<std::uint64_t>(
        static_cast<double>(shard_budget_) * traits_.small_fraction);
    high_mark_ = static_cast<std::uint64_t>(
        static_cast<double>(shard_budget_) * traits_.high_watermark);
    low_mark_ = static_cast<std::uint64_t>(
        static_cast<double>(shard_budget_) * traits_.low_watermark);
  }
  shards_.reserve(traits_.shards);
  for (std::size_t i = 0; i < traits_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::string Cache::key(std::string_view host, std::string_view target) {
  std::string k;
  k.reserve(host.size() + 1 + target.size() + kSuffixRoom);
  k.append(host).push_back('|');
  k.append(target);
  return k;
}

std::string_view Cache::base_of(std::string_view key) noexcept {
  const auto pos = key.find('#');
  return pos == std::string_view::npos ? key : key.substr(0, pos);
}

std::uint64_t Cache::charge_of(std::string_view key,
                               const CachedEntity& entity) noexcept {
  return key.size() + entity.size() + entity.content_type.size() +
         entity.etag.size() + entity.last_modified.size() +
         entity.vary.size() + kEntryOverhead;
}

Cache::Shard& Cache::shard_for(std::string_view key) const {
  if (shards_.size() == 1) return *shards_[0];
  return *shards_[fnv1a(base_of(key)) % shards_.size()];
}

std::size_t Cache::shard_of(std::string_view key) const noexcept {
  if (shards_.size() == 1) return 0;
  return fnv1a(base_of(key)) % shards_.size();
}

const CachedEntity* Cache::find(const std::string& key) const {
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.map.find(key);
  if (it == s.map.end()) {
    ++s.misses;
    return nullptr;
  }
  Slot& slot = it->second;
  if (slot.freq < kMaxFreq) ++slot.freq;
  ++s.hits;
  return &slot.entity;
}

void Cache::put(std::string key, CachedEntity entity) {
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mu);
  const std::uint64_t charge = charge_of(key, entity);

  if (const auto it = s.map.find(key); it != s.map.end()) {
    // Replacement: retire the old slot (no variant cascade -- the caller is
    // re-writing this key, not removing it) and fall through to a fresh
    // insert, so the entry re-enters the queues at the tail.
    remove_slot(s, it, RemovalKind::kReplace);
  }

  if (shard_budget_ != 0) {
    if (charge > shard_budget_) {
      ++s.admission_rejects;
      return;
    }
    if (s.bytes + charge > high_mark_) {
      while (s.bytes + charge > low_mark_ && evict_one(s)) {
      }
    }
    if (s.bytes + charge > shard_budget_) {
      ++s.admission_rejects;
      return;
    }
  }

  const std::uint64_t gen = ++s.gen_counter;
  const bool to_main = traits_.policy == CacheEvictionPolicy::kFifoNaive ||
                       ghost_contains(s, fnv1a(key));
  if (to_main) {
    s.main_q.push_back({key, gen});
  } else {
    s.small_q.push_back({key, gen});
    s.small_bytes += charge;
  }
  s.bytes += charge;
  Slot slot;
  slot.entity = std::move(entity);
  slot.charge = charge;
  slot.gen = gen;
  slot.in_main = to_main;
  s.map.emplace(std::move(key), std::move(slot));
}

TouchResult Cache::touch(const std::string& key, double expires_at,
                         double now) {
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.map.find(key);
  if (it == s.map.end()) return TouchResult::kAbsent;
  Slot& slot = it->second;
  if (!slot.entity.fresh_at(now) && expires_at <= now) {
    // The entry is stale and revalidation produced no future horizon:
    // purge it rather than resurrect a stale copy under a stale lifetime.
    remove_slot(s, it, RemovalKind::kExpire);
    return TouchResult::kPurgedStale;
  }
  slot.entity.expires_at = expires_at;
  if (slot.freq < kMaxFreq) ++slot.freq;  // a revalidation is an access
  return TouchResult::kRefreshed;
}

bool Cache::erase(const std::string& key) {
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.map.find(key);
  if (it == s.map.end()) return false;
  remove_slot(s, it, RemovalKind::kErase);
  return true;
}

void Cache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->map.clear();
    shard->small_q.clear();
    shard->main_q.clear();
    shard->ghost_q.clear();
    shard->ghost_count.clear();
    shard->bytes = 0;
    shard->small_bytes = 0;
    shard->hits = 0;
    shard->misses = 0;
    shard->evictions = 0;
    shard->admission_rejects = 0;
  }
}

Cache::Stats Cache::stats() const {
  Stats out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.entries += shard->map.size();
    out.bytes += shard->bytes;
    out.hits += shard->hits;
    out.misses += shard->misses;
    out.evictions += shard->evictions;
    out.admission_rejects += shard->admission_rejects;
  }
  return out;
}

std::size_t Cache::size() const { return stats().entries; }
std::uint64_t Cache::bytes() const { return stats().bytes; }
std::uint64_t Cache::hits() const { return stats().hits; }
std::uint64_t Cache::misses() const { return stats().misses; }
std::uint64_t Cache::evictions() const { return stats().evictions; }
std::uint64_t Cache::admission_rejects() const {
  return stats().admission_rejects;
}

bool Cache::evict_one(Shard& s) {
  if (traits_.policy == CacheEvictionPolicy::kFifoNaive) {
    while (!s.main_q.empty()) {
      QueueEntry qe = std::move(s.main_q.front());
      s.main_q.pop_front();
      const auto it = s.map.find(qe.key);
      if (it == s.map.end() || it->second.gen != qe.gen) continue;
      remove_slot(s, it, RemovalKind::kEvict);
      return true;
    }
    return false;
  }

  while (!s.small_q.empty() || !s.main_q.empty()) {
    const bool from_small =
        !s.small_q.empty() &&
        (s.small_bytes > small_capacity_ || s.main_q.empty());
    if (from_small) {
      QueueEntry qe = std::move(s.small_q.front());
      s.small_q.pop_front();
      const auto it = s.map.find(qe.key);
      if (it == s.map.end() || it->second.gen != qe.gen ||
          it->second.in_main) {
        continue;  // stale queue entry
      }
      Slot& slot = it->second;
      if (slot.freq > 0) {
        // Re-accessed while on probation: promote to main.
        s.small_bytes -= slot.charge;
        slot.in_main = true;
        slot.freq = 0;
        s.main_q.push_back(std::move(qe));
        continue;
      }
      // One-hit wonder: out it goes, remembered only by the ghost list so
      // a returning key is readmitted straight to main.
      ghost_insert(s, fnv1a(qe.key));
      remove_slot(s, it, RemovalKind::kEvict);
      return true;
    }
    QueueEntry qe = std::move(s.main_q.front());
    s.main_q.pop_front();
    const auto it = s.map.find(qe.key);
    if (it == s.map.end() || it->second.gen != qe.gen ||
        !it->second.in_main) {
      continue;  // stale queue entry
    }
    Slot& slot = it->second;
    if (slot.freq > 0) {
      --slot.freq;
      s.main_q.push_back(std::move(qe));  // second chance
      continue;
    }
    remove_slot(s, it, RemovalKind::kEvict);
    return true;
  }
  return false;
}

void Cache::remove_slot(Shard& s,
                        std::unordered_map<std::string, Slot>::iterator it,
                        RemovalKind kind) {
  const Slot& slot = it->second;
  s.bytes -= slot.charge;
  if (!slot.in_main) s.small_bytes -= slot.charge;
  if (kind == RemovalKind::kEvict) ++s.evictions;
  // Removing a `#vary` marker strands that base key's variant entries
  // (resolve_cache_key can no longer reach them): cascade-purge them so
  // they stop occupying budget.  Replacement skips the cascade -- store()
  // re-puts the marker on every varied response and must not wipe the
  // sibling variants each time.
  const bool cascade =
      kind != RemovalKind::kReplace && it->first.ends_with("#vary");
  std::string base;
  if (cascade) base = std::string(base_of(it->first));
  s.map.erase(it);
  if (cascade) purge_variants(s, base, kind);
}

void Cache::purge_variants(Shard& s, const std::string& base,
                           RemovalKind kind) {
  const std::string prefix = base + "#variant=";
  for (auto it = s.map.begin(); it != s.map.end();) {
    if (it->first.starts_with(prefix)) {
      s.bytes -= it->second.charge;
      if (!it->second.in_main) s.small_bytes -= it->second.charge;
      if (kind == RemovalKind::kEvict) ++s.evictions;
      it = s.map.erase(it);  // queue entries go stale; popped lazily
    } else {
      ++it;
    }
  }
}

void Cache::ghost_insert(Shard& s, std::uint64_t hash) {
  if (traits_.ghost_entries == 0) return;
  s.ghost_q.push_back(hash);
  ++s.ghost_count[hash];
  while (s.ghost_q.size() > traits_.ghost_entries) {
    const std::uint64_t old = s.ghost_q.front();
    s.ghost_q.pop_front();
    const auto it = s.ghost_count.find(old);
    if (it != s.ghost_count.end() && --it->second == 0) s.ghost_count.erase(it);
  }
}

bool Cache::ghost_contains(const Shard& s, std::uint64_t hash) const {
  return s.ghost_count.find(hash) != s.ghost_count.end();
}

}  // namespace rangeamp::cdn
