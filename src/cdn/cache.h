// CDN edge cache of full entities: sharded, byte-budgeted, with S3-FIFO or
// FIFO eviction under memory pressure.  Semantics: docs/cache-model.md.
//
// Only complete 200 entities are cached (the vendors in the paper do not
// cache partial responses -- Cloudflare explicitly told the authors so in
// the disclosure exchange).  The cache key includes the query string, which
// is exactly why the attacker's random-query trick forces a miss on every
// request (section II-A) -- and, on a real edge, also an *insert* per
// request.  The byte budget is what keeps that flood from growing the cache
// without limit; the S3-FIFO small/main/ghost structure is what keeps it
// from displacing the legit working set.
//
// Sharding & threads: entries shard by the hash of the *base* key
// (everything before the first '#'), so a URL's entity, `#vary` marker,
// per-variant copies, `#neg` negative entry and `#slice` parts always land
// in the same shard.  Each shard has its own mutex; structural operations
// are safe from concurrent threads.  A pointer returned by find() stays
// valid only until that key is evicted, erased or replaced -- concurrent
// writers must therefore work disjoint shards (the per-shard ownership rule
// of docs/parallel-model.md).
//
// Determinism: with the default CacheTraits (max_bytes = 0) there is no
// eviction and no admission control -- behaviour and byte counts are
// identical to the historic unbounded map, which is what keeps every
// committed CSV regenerating byte-identically.  Shard selection uses FNV-1a
// (not std::hash) so sharded layouts are reproducible across platforms.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cdn/types.h"
#include "http/body.h"

namespace rangeamp::cdn {

/// A cached full representation.
struct CachedEntity {
  http::Body entity;
  std::string content_type;
  std::string etag;
  std::string last_modified;

  /// Freshness horizon (simulation seconds); infinity = never expires.
  /// A stale entry is revalidated with a conditional GET, not discarded.
  double expires_at = std::numeric_limits<double>::infinity();

  /// The upstream's Vary header ("" = response does not vary).  Entities
  /// with a Vary are stored per variant; see CdnNode::resolve_cache_key.
  std::string vary;

  std::uint64_t size() const noexcept { return entity.size(); }
  bool fresh_at(double now) const noexcept { return now < expires_at; }
};

/// What touch() did with the entry (revalidation outcome).
enum class TouchResult {
  kAbsent,       ///< no such key
  kRefreshed,    ///< freshness horizon moved forward
  kPurgedStale,  ///< entry was stale and the new horizon is not in the
                 ///< future: purged instead of silently resurrected
};

class Cache {
 public:
  /// Aggregate statistics across all shards, read in one locked pass.
  struct Stats {
    std::size_t entries = 0;
    std::uint64_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t admission_rejects = 0;
  };

  /// Default: unbounded, single shard -- the historic cache, byte for byte.
  Cache() : Cache(CacheTraits{}) {}
  explicit Cache(const CacheTraits& traits);

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;
  Cache(Cache&&) = default;
  Cache& operator=(Cache&&) = default;

  /// Cache key for a request: host + target (path incl. query).
  static std::string key(std::string_view host, std::string_view target);

  /// Base key: everything before the first '#' suffix (`#vary`, `#neg`,
  /// `#variant=`, `#slice=`...).  Shard selection hashes this, so all
  /// entries of one URL co-locate.
  static std::string_view base_of(std::string_view key) noexcept;

  /// Bytes an entry is charged against the budget: key + entity body +
  /// metadata strings + a fixed per-entry overhead (so zero-byte markers
  /// like `#vary` and `#neg` entries are still accountable).
  static std::uint64_t charge_of(std::string_view key,
                                 const CachedEntity& entity) noexcept;

  /// Counts a hit or miss.  The returned pointer is valid until this key is
  /// evicted, erased or replaced (see the threading contract above).
  const CachedEntity* find(const std::string& key) const;

  /// Inserts or replaces.  Under a byte budget, may evict down to the low
  /// watermark first and may shed the insert entirely (admission reject)
  /// when eviction cannot make room -- the cache never exceeds its budget.
  void put(std::string key, CachedEntity entity);

  /// Revalidation outcome for an existing entry: refreshes the freshness
  /// horizon, unless the entry is already stale at `now` AND the new
  /// horizon is not in the future -- then the entry is purged instead of
  /// being resurrected as stale (TouchResult::kPurgedStale).
  TouchResult touch(const std::string& key, double expires_at, double now);

  /// Removes one entry.  Removing a `#vary` marker also purges that base
  /// key's `#variant=` entries -- without the marker they are unreachable
  /// and would otherwise be stranded against the budget.
  bool erase(const std::string& key);

  /// Returns the cache to its freshly constructed state: entries, queues,
  /// ghost lists AND statistics (hits/misses/evictions/rejects) all reset.
  void clear();

  std::size_t size() const;
  /// Total charged bytes across shards (always <= max_bytes when budgeted).
  std::uint64_t bytes() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;
  std::uint64_t admission_rejects() const;
  Stats stats() const;

  const CacheTraits& traits() const noexcept { return traits_; }
  std::size_t shard_count() const noexcept { return shards_.size(); }
  /// Which shard a key lands in (tests pin disjoint-shard workloads).
  std::size_t shard_of(std::string_view key) const noexcept;

  /// Visits every entry (per-shard lock held during that shard's sweep).
  /// Replaces the historic `entries()` map accessor; the chaos harnesses
  /// walk the cache this way to prove no tainted response ever entered it.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (const auto& [key, slot] : shard->map) fn(key, slot.entity);
    }
  }

 private:
  /// Access frequency saturates at 3 (two bits in the reference S3-FIFO).
  static constexpr std::uint8_t kMaxFreq = 3;

  struct QueueEntry {
    std::string key;
    std::uint64_t gen = 0;  ///< matches Slot::gen, else the entry is stale
  };

  struct Slot {
    CachedEntity entity;
    std::uint64_t charge = 0;
    std::uint64_t gen = 0;
    std::uint8_t freq = 0;    ///< saturating access count (find/touch)
    bool in_main = false;     ///< queue membership (FIFO-naive: always main)
  };

  /// Queues hold (key, gen) pairs and are cleaned lazily: a popped entry
  /// whose gen no longer matches the live slot (replaced key, cascaded
  /// variant purge, promotion) is simply skipped.
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Slot> map;
    std::deque<QueueEntry> small_q;  ///< S3-FIFO probationary queue
    std::deque<QueueEntry> main_q;   ///< S3-FIFO main / FIFO-naive queue
    std::deque<std::uint64_t> ghost_q;  ///< recently evicted key hashes
    std::unordered_map<std::uint64_t, std::uint32_t> ghost_count;
    std::uint64_t gen_counter = 0;
    std::uint64_t bytes = 0;        ///< charged bytes resident in this shard
    std::uint64_t small_bytes = 0;  ///< subset resident in the small queue
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t admission_rejects = 0;
  };

  enum class RemovalKind {
    kReplace,  ///< put() over an existing key (no variant cascade)
    kErase,    ///< explicit erase (cascades, not counted as eviction)
    kEvict,    ///< budget eviction (cascades, counted)
    kExpire,   ///< touch() purge of a stale entry (cascades, not counted)
  };

  Shard& shard_for(std::string_view key) const;
  bool evict_one(Shard& s);
  void remove_slot(Shard& s,
                   std::unordered_map<std::string, Slot>::iterator it,
                   RemovalKind kind);
  void purge_variants(Shard& s, const std::string& base, RemovalKind kind);
  void ghost_insert(Shard& s, std::uint64_t hash);
  bool ghost_contains(const Shard& s, std::uint64_t hash) const;

  CacheTraits traits_;
  std::uint64_t shard_budget_ = 0;  ///< max_bytes / shards; 0 = unbounded
  std::uint64_t small_capacity_ = 0;
  std::uint64_t low_mark_ = 0;
  std::uint64_t high_mark_ = 0;
  // unique_ptr keeps Shard (with its mutex) address-stable and the Cache
  // movable; const methods reach mutable per-shard state through it.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace rangeamp::cdn
