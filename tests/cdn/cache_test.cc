#include "cdn/cache.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace rangeamp::cdn {
namespace {

CachedEntity entity_of(std::uint64_t size, std::string content_type = "") {
  CachedEntity e;
  e.entity = http::Body::synthetic(1, 0, size);
  e.content_type = std::move(content_type);
  return e;
}

/// Sums charge_of over every live entry -- must equal bytes() at all times
/// (the byte-accounting invariant the budget enforcement rests on).
std::uint64_t accounted_bytes(const Cache& cache) {
  std::uint64_t sum = 0;
  cache.for_each([&](const std::string& key, const CachedEntity& entity) {
    sum += Cache::charge_of(key, entity);
  });
  return sum;
}

bool contains(const Cache& cache, const std::string& key) {
  bool found = false;
  cache.for_each([&](const std::string& k, const CachedEntity&) {
    if (k == key) found = true;
  });
  return found;
}

CacheTraits budgeted(std::uint64_t max_bytes,
                     CacheEvictionPolicy policy = CacheEvictionPolicy::kS3Fifo) {
  CacheTraits traits;
  traits.max_bytes = max_bytes;
  traits.policy = policy;
  return traits;
}

TEST(Cache, KeyIncludesHostAndFullTarget) {
  EXPECT_EQ(Cache::key("h.example", "/a?q=1"), "h.example|/a?q=1");
  // The cache-busting trick of section II-A: a different query is a
  // different key.
  EXPECT_NE(Cache::key("h", "/a?q=1"), Cache::key("h", "/a?q=2"));
  EXPECT_NE(Cache::key("h1", "/a"), Cache::key("h2", "/a"));
}

TEST(Cache, MissThenHit) {
  Cache cache;
  const auto key = Cache::key("h", "/a");
  EXPECT_EQ(cache.find(key), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  CachedEntity entity;
  entity.entity = http::Body::synthetic(1, 0, 100);
  entity.content_type = "image/png";
  cache.put(key, entity);

  const CachedEntity* hit = cache.find(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 100u);
  EXPECT_EQ(hit->content_type, "image/png");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(Cache, PutOverwrites) {
  Cache cache;
  CachedEntity a, b;
  a.entity = http::Body::synthetic(1, 0, 10);
  b.entity = http::Body::synthetic(1, 0, 20);
  cache.put("k", a);
  cache.put("k", b);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find("k")->size(), 20u);
  EXPECT_EQ(accounted_bytes(cache), cache.bytes());
}

TEST(Cache, ClearEmpties) {
  Cache cache;
  CachedEntity e;
  e.entity = http::Body::literal("x");
  cache.put("k", e);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.find("k"), nullptr);
}

// Satellite regression: clear() used to leave the hit/miss counters at
// their pre-clear values, so a cleared cache reported a phantom history.
TEST(Cache, ClearResetsCounters) {
  Cache cache(budgeted(1000, CacheEvictionPolicy::kFifoNaive));
  EXPECT_EQ(cache.find("absent"), nullptr);  // 1 miss
  cache.put("k", entity_of(100));
  EXPECT_NE(cache.find("k"), nullptr);  // 1 hit
  for (int i = 0; i < 20; ++i) {        // force some evictions
    cache.put("j" + std::to_string(i), entity_of(100));
  }
  EXPECT_GT(cache.evictions(), 0u);

  cache.clear();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.admission_rejects(), 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(Cache, TouchAbsentKey) {
  Cache cache;
  EXPECT_EQ(cache.touch("nope", 100.0, 0.0), TouchResult::kAbsent);
}

TEST(Cache, TouchRefreshesWithFutureHorizon) {
  Cache cache;
  CachedEntity e = entity_of(10);
  e.expires_at = 50.0;
  cache.put("k", e);
  // Fresh entry, later horizon: plain refresh.
  EXPECT_EQ(cache.touch("k", 200.0, 10.0), TouchResult::kRefreshed);
  EXPECT_TRUE(cache.find("k")->fresh_at(100.0));
  // Stale entry, but the revalidation yields a future horizon: refreshed,
  // not purged (the stale->revalidate->fresh path).
  EXPECT_EQ(cache.touch("k", 400.0, 300.0), TouchResult::kRefreshed);
  EXPECT_TRUE(cache.find("k")->fresh_at(399.0));
}

// Satellite regression: the old touch() set expires_at unconditionally, so
// a stale entry "revalidated" to a horizon already in the past was silently
// resurrected as a permanently stale resident.  Now it is purged.
TEST(Cache, TouchPurgesStaleEntryWithoutFutureHorizon) {
  Cache cache;
  CachedEntity e = entity_of(10);
  e.expires_at = 50.0;
  cache.put("k", e);
  EXPECT_EQ(cache.touch("k", 60.0, 60.0), TouchResult::kPurgedStale);
  EXPECT_EQ(cache.find("k"), nullptr);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(Cache, UnboundedNeverEvicts) {
  Cache cache;  // default traits: max_bytes = 0
  for (int i = 0; i < 500; ++i) {
    cache.put("k" + std::to_string(i), entity_of(1024));
  }
  EXPECT_EQ(cache.size(), 500u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.admission_rejects(), 0u);
  EXPECT_EQ(accounted_bytes(cache), cache.bytes());
}

TEST(Cache, FifoEvictsOldestAndRespectsBudget) {
  const std::uint64_t budget = 2000;
  Cache cache(budgeted(budget, CacheEvictionPolicy::kFifoNaive));
  for (int i = 0; i < 30; ++i) {
    cache.put("k" + std::to_string(i), entity_of(100));
    EXPECT_LE(cache.bytes(), budget);
  }
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_FALSE(contains(cache, "k0"));   // oldest went first
  EXPECT_TRUE(contains(cache, "k29"));   // newest survives
  EXPECT_EQ(accounted_bytes(cache), cache.bytes());
}

// The watermark contract: crossing the high watermark drains the shard to
// the low watermark, so a burst of inserts does not evict one-at-a-time at
// the budget edge.
TEST(Cache, WatermarksDrainBelowBudgetEdge) {
  CacheTraits traits = budgeted(10000, CacheEvictionPolicy::kFifoNaive);
  traits.low_watermark = 0.5;
  traits.high_watermark = 0.9;
  Cache cache(traits);
  bool drained = false;
  std::uint64_t last_evictions = 0;
  for (int i = 0; i < 60; ++i) {
    cache.put("k" + std::to_string(i), entity_of(100));
    EXPECT_LE(cache.bytes(), traits.max_bytes);
    if (cache.evictions() > last_evictions) {
      // An insert that crossed the high watermark drained the shard all the
      // way down to the low watermark -- not just by one entry.
      EXPECT_LE(cache.bytes(), 5000u);
      EXPECT_GE(cache.evictions() - last_evictions, 2u);
      last_evictions = cache.evictions();
      drained = true;
    }
  }
  EXPECT_TRUE(drained);
  EXPECT_EQ(accounted_bytes(cache), cache.bytes());
}

TEST(Cache, AdmissionRejectsOversizedEntry) {
  Cache cache(budgeted(1000));
  cache.put("small", entity_of(100));
  cache.put("huge", entity_of(5000));  // charge > whole budget
  EXPECT_EQ(cache.admission_rejects(), 1u);
  EXPECT_FALSE(contains(cache, "huge"));
  EXPECT_TRUE(contains(cache, "small"));
  EXPECT_LE(cache.bytes(), 1000u);
}

// The tentpole property: a one-hit-wonder flood (the attacker's random-query
// spray) churns through the S3-FIFO small queue and never displaces the
// re-accessed working set; naive FIFO loses the working set to the same
// flood.
TEST(Cache, S3FifoResistsOneHitWonderFlood) {
  const std::uint64_t budget = 10000;
  Cache s3(budgeted(budget, CacheEvictionPolicy::kS3Fifo));
  Cache fifo(budgeted(budget, CacheEvictionPolicy::kFifoNaive));

  const auto warm = [](Cache& cache) {
    for (int i = 0; i < 5; ++i) {
      const std::string key = "hot" + std::to_string(i);
      cache.put(key, entity_of(100));
      cache.find(key);  // second access: freq > 0, survives probation
      cache.find(key);
    }
  };
  const auto flood = [](Cache& cache) {
    for (int i = 0; i < 200; ++i) {
      cache.put("junk" + std::to_string(i), entity_of(100));
    }
  };
  warm(s3);
  flood(s3);
  warm(fifo);
  flood(fifo);

  for (int i = 0; i < 5; ++i) {
    const std::string key = "hot" + std::to_string(i);
    EXPECT_TRUE(contains(s3, key)) << key << " lost under S3-FIFO";
    EXPECT_FALSE(contains(fifo, key)) << key << " survived naive FIFO";
  }
  EXPECT_LE(s3.bytes(), budget);
  EXPECT_LE(fifo.bytes(), budget);
  EXPECT_EQ(accounted_bytes(s3), s3.bytes());
}

// Ghost readmission: a key evicted once and inserted again goes straight to
// the main queue, so it survives small-queue churn that kills a cold
// first-sight key.
TEST(Cache, GhostReadmitsReturningKeyToMain) {
  Cache cache(budgeted(10000, CacheEvictionPolicy::kS3Fifo));
  cache.put("returning", entity_of(100));
  for (int i = 0; i < 200; ++i) {  // flood evicts it (freq 0, small queue)
    cache.put("junk" + std::to_string(i), entity_of(100));
  }
  ASSERT_FALSE(contains(cache, "returning"));

  cache.put("returning", entity_of(100));   // ghost hit -> main
  cache.put("first-sight", entity_of(100));  // control -> small
  for (int i = 0; i < 60; ++i) {
    cache.put("junk2-" + std::to_string(i), entity_of(100));
  }
  EXPECT_TRUE(contains(cache, "returning"));
  EXPECT_FALSE(contains(cache, "first-sight"));
}

// Satellite: evicting (or erasing) a `#vary` marker must not strand the
// unreachable `#variant=` entries -- they are purged with it and the byte
// accounting stays exact.
TEST(Cache, ErasingVaryMarkerPurgesVariants) {
  Cache cache;
  CachedEntity marker;
  marker.vary = "Accept-Encoding";
  cache.put("h|/a#vary", marker);
  cache.put("h|/a#variant=gzip\x1f", entity_of(500));
  cache.put("h|/a#variant=br\x1f", entity_of(400));
  cache.put("h|/b", entity_of(300));  // unrelated survivor
  ASSERT_EQ(cache.size(), 4u);

  EXPECT_TRUE(cache.erase("h|/a#vary"));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(contains(cache, "h|/a#variant=gzip\x1f"));
  EXPECT_FALSE(contains(cache, "h|/a#variant=br\x1f"));
  EXPECT_TRUE(contains(cache, "h|/b"));
  EXPECT_EQ(accounted_bytes(cache), cache.bytes());
}

TEST(Cache, EvictingVaryMarkerPurgesVariantsAndCountsThem) {
  // FIFO order makes the marker the first eviction; its variants must go
  // with it and be counted (they occupy budget like everything else).
  Cache cache(budgeted(3000, CacheEvictionPolicy::kFifoNaive));
  CachedEntity marker;
  marker.vary = "Accept-Encoding";
  cache.put("h|/a#vary", marker);
  cache.put("h|/a#variant=gzip\x1f", entity_of(200));
  cache.put("h|/a#variant=br\x1f", entity_of(200));
  const std::uint64_t occupied = cache.bytes();
  ASSERT_GT(occupied, 0u);

  // Push past the high watermark so the marker (queue head) is evicted.
  for (int i = 0; i < 20; ++i) {
    cache.put("fill" + std::to_string(i), entity_of(200));
  }
  EXPECT_FALSE(contains(cache, "h|/a#vary"));
  EXPECT_FALSE(contains(cache, "h|/a#variant=gzip\x1f"));
  EXPECT_FALSE(contains(cache, "h|/a#variant=br\x1f"));
  EXPECT_GE(cache.evictions(), 3u);  // marker + cascaded variants counted
  EXPECT_EQ(accounted_bytes(cache), cache.bytes());
}

// Satellite: `#neg` negative-cache entries are charged and evictable like
// any other entry.
TEST(Cache, NegativeEntriesAreChargedAndEvictable) {
  Cache cache(budgeted(2000, CacheEvictionPolicy::kFifoNaive));
  CachedEntity negative;
  negative.content_type = "#negative";
  negative.expires_at = 30.0;
  cache.put("h|/x#neg", negative);
  EXPECT_GT(cache.bytes(), 0u);  // zero-byte body still carries overhead

  for (int i = 0; i < 30; ++i) {
    cache.put("fill" + std::to_string(i), entity_of(100));
  }
  EXPECT_FALSE(contains(cache, "h|/x#neg"));
  EXPECT_EQ(accounted_bytes(cache), cache.bytes());
}

// All entries of one URL -- entity, vary marker, variants, negative entry,
// slices -- shard together (hash of the base key), so marker cascades never
// cross a shard boundary.
TEST(Cache, SuffixedKeysShardWithTheirBaseKey) {
  CacheTraits traits;
  traits.shards = 8;
  Cache cache(traits);
  EXPECT_EQ(cache.shard_count(), 8u);
  for (const std::string base : {"h|/a", "h|/b?q=1", "cdn.example|/obj/17"}) {
    const std::size_t home = cache.shard_of(base);
    EXPECT_EQ(cache.shard_of(base + "#neg"), home);
    EXPECT_EQ(cache.shard_of(base + "#vary"), home);
    EXPECT_EQ(cache.shard_of(base + "#variant=gzip\x1f"), home);
    EXPECT_EQ(cache.shard_of(base + "#slice=3"), home);
  }
}

TEST(Cache, ShardedAggregatesSumAcrossShards) {
  CacheTraits traits = budgeted(64 * 1024);
  traits.shards = 4;
  Cache cache(traits);
  for (int i = 0; i < 100; ++i) {
    cache.put("h|/obj/" + std::to_string(i), entity_of(128));
  }
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(accounted_bytes(cache), cache.bytes());
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(cache.find("h|/obj/" + std::to_string(i)), nullptr);
  }
  EXPECT_EQ(cache.hits(), 100u);
}

// Two threads hammering DISJOINT shards of one cache: the per-shard
// ownership rule of docs/parallel-model.md.  Runs under TSan in CI (the
// cdn_tests suite is part of the sanitizer matrix), which is what actually
// checks the locking.
TEST(Cache, ConcurrentDisjointShardStress) {
  CacheTraits traits = budgeted(32 * 1024);
  traits.shards = 4;
  Cache cache(traits);

  // Partition keys by home shard so each worker owns what it touches.
  std::vector<std::vector<std::string>> keys_by_shard(2);
  for (int i = 0; keys_by_shard[0].size() < 64 || keys_by_shard[1].size() < 64;
       ++i) {
    std::string key = "h|/k" + std::to_string(i);
    const std::size_t shard = cache.shard_of(key);
    if (shard < 2 && keys_by_shard[shard].size() < 64) {
      keys_by_shard[shard].push_back(std::move(key));
    }
  }

  const auto worker = [&cache](const std::vector<std::string>& keys) {
    for (int round = 0; round < 200; ++round) {
      for (const std::string& key : keys) {
        cache.put(key, entity_of(100 + round % 64));
        cache.find(key);
        if (round % 7 == 0) cache.touch(key, 1000.0, 0.0);
        if (round % 13 == 0) cache.erase(key);
      }
    }
  };
  std::thread a(worker, keys_by_shard[0]);
  std::thread b(worker, keys_by_shard[1]);
  a.join();
  b.join();

  EXPECT_EQ(accounted_bytes(cache), cache.bytes());
  EXPECT_LE(cache.bytes(), traits.max_bytes);
}

}  // namespace
}  // namespace rangeamp::cdn
