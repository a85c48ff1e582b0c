// Deterministic allocation budgets for one client transfer on the paths the
// campaigns run: an SBR miss, a cache-pollution miss and hit, and an OBR
// cascade exchange.  An allocation count is exact for a given toolchain and
// the same in Debug and Release builds, so unlike a wall-time floor these
// bounds fail on any hardware when a change adds allocations.
//
// This binary replaces the global operator new/delete with counting
// versions, which is why it is a suite of its own.  Each test builds its
// request outside the counted window and reports the fewest allocations any
// one of 16 consecutive exchanges makes: the steady per-exchange cost,
// without the amortized growth of the cache's queues and map (a deque block
// per dozen inserts, an occasional rehash) landing in one exchange's count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <string>

#include "cdn/cluster.h"
#include "cdn/node.h"
#include "cdn/profiles.h"
#include "core/obr.h"
#include "core/testbed.h"
#include "net/transport_factory.h"
#include "net/wire.h"
#include "origin/origin_server.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_alloc_or_throw(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new[](std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace rangeamp {
namespace {

constexpr int kRounds = 16;

// Budgets, at most 10% above the counts the code makes today (32, 29, 8 and
// 1115 with GCC 12 and libstdc++).  A cut to a count should cut its bound.
constexpr std::uint64_t kSbrMissBound = 35;
constexpr std::uint64_t kPollutionMissBound = 31;
constexpr std::uint64_t kPollutionHitBound = 8;
constexpr std::uint64_t kObrBound = 1226;

// The fewest allocations `send` makes over kRounds exchanges, each on a
// request `make(i)` built before the count starts.
template <typename Make, typename Send>
std::uint64_t fewest_allocations(const char* what, Make make, Send send) {
  std::uint64_t fewest = std::numeric_limits<std::uint64_t>::max();
  for (int i = 0; i < kRounds; ++i) {
    const http::Request request = make(i);
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    send(request);
    fewest = std::min(fewest,
                      g_allocations.load(std::memory_order_relaxed) - before);
  }
  std::printf("%s: %llu allocations per exchange\n", what,
              static_cast<unsigned long long>(fewest));
  return fewest;
}

std::uint64_t upstream_exchanges(cdn::EdgeCluster& cluster) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    total += cluster.node(i).upstream_traffic().exchange_count();
  }
  return total;
}

// run_sbr_block's exchange: 8 round-robin Cloudflare nodes, a 64 KiB
// object, a fresh ?x= key per request and bytes=0-0, every log off.
TEST(AllocBudget, SbrMiss) {
  origin::OriginServer origin;
  origin.resources().add_synthetic("/target.bin", 64 * 1024);
  cdn::EdgeCluster cluster(
      [] { return cdn::make_profile(cdn::Vendor::kCloudflare); }, 8, origin,
      cdn::NodeSelection::kRoundRobin);
  origin.set_keep_log(false);
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    cluster.node(i).upstream_traffic().set_keep_log(false);
  }
  double sim_now = 0;
  cluster.set_clock([&sim_now] { return sim_now; });
  net::TrafficRecorder client_traffic("attacker");
  client_traffic.set_keep_log(false);
  const std::unique_ptr<net::Transport> client_wire =
      net::make_transport({}, client_traffic, cluster);

  std::uint64_t next = 0;
  const auto make = [&](int) {
    cluster.pin(next % 8);
    sim_now = static_cast<double>(next) / 4000.0;
    http::Request request = http::make_get(
        std::string{core::kDefaultHost}, "/target.bin?x=" + std::to_string(next++));
    request.headers.add("Range", "bytes=0-0");
    return request;
  };
  const auto send = [&](const http::Request& r) {
    EXPECT_EQ(client_wire->transfer(r).status, 206);
  };
  for (int i = 0; i < 64; ++i) send(make(i));  // every node warm

  const std::uint64_t fetches_before = upstream_exchanges(cluster);
  EXPECT_LE(fewest_allocations("sbr miss", make, send), kSbrMissBound);
  EXPECT_EQ(upstream_exchanges(cluster) - fetches_before,
            static_cast<std::uint64_t>(kRounds));  // every one a miss
}

// run_pollution_block's node: one Akamai node under an 8 MiB S3-FIFO budget,
// a 256 KiB attack object and 16 KiB catalog objects, every log off.
class PollutionAllocBudget : public ::testing::Test {
 protected:
  PollutionAllocBudget()
      : node_(profile(), origin_),
        attacker_traffic_("attacker"),
        attacker_wire_(attacker_traffic_, node_),
        legit_traffic_("legit-clients"),
        legit_wire_(legit_traffic_, node_) {
    origin_.resources().add_synthetic("/target.bin", 256 * 1024,
                                      "application/octet-stream");
    for (int i = 0; i < 256; ++i) {
      origin_.resources().add_synthetic("/obj/" + std::to_string(i), 16 * 1024,
                                        "application/octet-stream");
    }
    origin_.set_keep_log(false);
    node_.upstream_traffic().set_keep_log(false);
    attacker_traffic_.set_keep_log(false);
    legit_traffic_.set_keep_log(false);
    // Fill the budget several times over, so every attack insert evicts.
    for (int i = 0; i < 256; ++i) {
      legit_wire_.transfer(legit(static_cast<std::size_t>(i)));
    }
    for (int i = 0; i < 96; ++i) attacker_wire_.transfer(attack());
  }

  static cdn::VendorProfile profile() {
    cdn::VendorProfile p = cdn::make_profile(cdn::Vendor::kAkamai);
    p.traits.cache.max_bytes = 8u << 20;
    p.traits.cache.policy = cdn::CacheEvictionPolicy::kS3Fifo;
    return p;
  }

  static http::Request legit(std::size_t rank) {
    return http::make_get("shop.example.com", "/obj/" + std::to_string(rank));
  }

  http::Request attack() {
    http::Request request = http::make_get(
        "shop.example.com", "/target.bin?x=" + std::to_string(next_attack_++));
    request.headers.add("Range", "bytes=0-0");
    return request;
  }

  std::uint64_t fetches() { return node_.upstream_traffic().exchange_count(); }

  origin::OriginServer origin_;
  cdn::CdnNode node_;
  net::TrafficRecorder attacker_traffic_;
  net::Wire attacker_wire_;
  net::TrafficRecorder legit_traffic_;
  net::Wire legit_wire_;
  std::uint64_t next_attack_ = 0;
};

TEST_F(PollutionAllocBudget, AttackMiss) {
  const std::uint64_t before = fetches();
  EXPECT_LE(fewest_allocations(
                "pollution miss", [&](int) { return attack(); },
                [&](const http::Request& r) {
                  EXPECT_EQ(attacker_wire_.transfer(r).status, 206);
                }),
            kPollutionMissBound);
  EXPECT_EQ(fetches() - before, static_cast<std::uint64_t>(kRounds));
  EXPECT_GT(node_.cache().evictions(), 0u);
}

TEST_F(PollutionAllocBudget, LegitHit) {
  legit_wire_.transfer(legit(0));  // resident whatever the flood evicted
  const std::uint64_t before = fetches();
  EXPECT_LE(fewest_allocations(
                "pollution hit", [](int) { return legit(0); },
                [&](const http::Request& r) {
                  EXPECT_EQ(legit_wire_.transfer(r).status, 200);
                }),
            kPollutionHitBound);
  EXPECT_EQ(fetches(), before);  // every one a hit
}

// run_obr_block's exchange at n = 1024: Cloudflare (bypass) in front of
// Akamai, a 1 KiB resource, the client aborting after 4 KiB of body.
TEST(AllocBudget, ObrCascadeExchange) {
  cdn::ProfileOptions fcdn_options;
  fcdn_options.cloudflare_mode = cdn::ProfileOptions::CloudflareMode::kBypass;
  core::CascadeTestbed bed(cdn::make_profile(cdn::Vendor::kCloudflare, fcdn_options),
                           cdn::make_profile(cdn::Vendor::kAkamai),
                           core::obr_origin_config());
  bed.origin().resources().add_synthetic(std::string{core::kObrPath}, 1024);
  bed.origin().set_keep_log(false);
  bed.client_traffic().set_keep_log(false);
  bed.fcdn_bcdn_traffic().set_keep_log(false);
  bed.bcdn_origin_traffic().set_keep_log(false);

  const std::string range =
      core::obr_range_case(cdn::Vendor::kCloudflare, 1024).to_string();
  std::uint64_t next = 0;
  const auto make = [&](int) {
    char query[32];
    std::snprintf(query, sizeof(query), "?x=%06llu",
                  static_cast<unsigned long long>(next++));
    http::Request request = http::make_get(std::string{core::kObrHost},
                                           std::string{core::kObrPath} + query);
    request.headers.add("Range", range);
    return request;
  };
  net::TransferOptions abort_early;
  abort_early.abort_after_body_bytes = 4096;
  const auto send = [&](const http::Request& r) {
    EXPECT_EQ(bed.send(r, abort_early).status, 206);
  };
  send(make(0));

  EXPECT_LE(fewest_allocations("obr cascade n=1024", make, send), kObrBound);
  EXPECT_GT(bed.fcdn_bcdn_traffic().response_bytes(), 1024u * 1024);
}

}  // namespace
}  // namespace rangeamp
