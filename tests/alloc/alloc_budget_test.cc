// Deterministic allocation budgets for one client transfer on the paths the
// campaigns run: an SBR miss, a cache-pollution miss and hit, an OBR cascade
// exchange at two n, and an OBR exchange at a node with inline detection;
// and for the parse of Range values at the length guard, malformed or of
// the most runs a value can hold.  An allocation count, and the bytes those
// allocations ask for, are exact for a given toolchain and the same in
// Debug and Release builds, so unlike a wall-time floor these bounds fail
// on any hardware when a change adds allocations.
//
// This binary replaces the global operator new/delete with counting
// versions, which is why it is a suite of its own.  Each test builds its
// request outside the counted window and reports the fewest allocations and
// the fewest bytes any one of 16 consecutive exchanges makes: the steady
// per-exchange cost, without the amortized growth of the cache's queues and
// map (a deque block per dozen inserts, an occasional rehash) landing in one
// exchange's count.
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
#include "http/range.h"
#include "net/transport_factory.h"
#include "net/wire.h"
#include "origin/origin_server.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_alloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
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

// Budgets, at most 10% above what the code allocates today with GCC 12 and
// libstdc++: 14, 14, 3, 34, 34 and 36 allocations, and 2 030, 1 639, 618,
// 9 098, 38 266 and 5 196 bytes for the SBR miss, the pollution miss and
// hit and the three OBR exchanges.  Each message's header block is one
// allocation, sized before its first field.  A cut to a count should cut
// its bound.  Each OBR Range parse allocates one 32-byte run, whatever n is.
// The alternating value's parse asks for 3 994 496 bytes: its 87 379 runs
// and the 37 449 it outgrew, 32 bytes each.
constexpr std::uint64_t kSbrMissBound = 15;
constexpr std::uint64_t kSbrMissBytesBound = 2'233;
constexpr std::uint64_t kPollutionMissBound = 15;
constexpr std::uint64_t kPollutionMissBytesBound = 1'802;
constexpr std::uint64_t kPollutionHitBound = 3;
constexpr std::uint64_t kPollutionHitBytesBound = 679;
constexpr std::uint64_t kObrBound = 37;
constexpr std::uint64_t kObrBytesBound = 10'007;
constexpr std::uint64_t kObrWorkloadBound = 37;
constexpr std::uint64_t kObrWorkloadBytesBound = 42'092;
constexpr std::uint64_t kObrDetectionBound = 39;
constexpr std::uint64_t kObrDetectionBytesBound = 5'715;
constexpr std::uint64_t kMalformedRangeBytesBound = 1024;
constexpr std::uint64_t kAlternatingRangeBytesBound = 4'393'945;

// What one exchange allocates: blocks, and the bytes they ask for.
struct Cost {
  std::uint64_t allocations = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t bytes = std::numeric_limits<std::uint64_t>::max();
};

// The fewest allocations and the fewest bytes `send` allocates over kRounds
// exchanges, each on a request `make(i)` built before the count starts.
template <typename Make, typename Send>
Cost fewest_per_exchange(const char* what, Make make, Send send) {
  Cost fewest;
  for (int i = 0; i < kRounds; ++i) {
    const http::Request request = make(i);
    const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed);
    const std::uint64_t bytes = g_bytes.load(std::memory_order_relaxed);
    send(request);
    fewest.allocations =
        std::min(fewest.allocations,
                 g_allocations.load(std::memory_order_relaxed) - allocations);
    fewest.bytes =
        std::min(fewest.bytes, g_bytes.load(std::memory_order_relaxed) - bytes);
  }
  std::printf("%s: %llu allocations, %llu bytes per exchange\n", what,
              static_cast<unsigned long long>(fewest.allocations),
              static_cast<unsigned long long>(fewest.bytes));
  return fewest;
}

// One n-range OBR request for a fresh URL per call: the fixed-width ?x=
// query busts every cache on the path, so each exchange is a miss.
class ObrRequests {
 public:
  ObrRequests(cdn::Vendor fcdn, std::size_t n)
      : range_(core::obr_range_case(fcdn, n).to_string()) {}

  http::Request operator()(int) {
    char query[32];
    std::snprintf(query, sizeof(query), "?x=%06llu",
                  static_cast<unsigned long long>(next_++));
    http::Request request = http::make_get(std::string{core::kObrHost},
                                           std::string{core::kObrPath} + query);
    request.headers.add("Range", range_);
    return request;
  }

 private:
  std::string range_;
  std::uint64_t next_ = 0;
};

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
  const Cost cost = fewest_per_exchange("sbr miss", make, send);
  EXPECT_LE(cost.allocations, kSbrMissBound);
  EXPECT_LE(cost.bytes, kSbrMissBytesBound);
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
  const Cost cost = fewest_per_exchange(
      "pollution miss", [&](int) { return attack(); },
      [&](const http::Request& r) {
        EXPECT_EQ(attacker_wire_.transfer(r).status, 206);
      });
  EXPECT_LE(cost.allocations, kPollutionMissBound);
  EXPECT_LE(cost.bytes, kPollutionMissBytesBound);
  EXPECT_EQ(fetches() - before, static_cast<std::uint64_t>(kRounds));
  EXPECT_GT(node_.cache().evictions(), 0u);
}

TEST_F(PollutionAllocBudget, LegitHit) {
  legit_wire_.transfer(legit(0));  // resident whatever the flood evicted
  const std::uint64_t before = fetches();
  const Cost cost = fewest_per_exchange(
      "pollution hit", [](int) { return legit(0); },
      [&](const http::Request& r) {
        EXPECT_EQ(legit_wire_.transfer(r).status, 200);
      });
  EXPECT_LE(cost.allocations, kPollutionHitBound);
  EXPECT_LE(cost.bytes, kPollutionHitBytesBound);
  EXPECT_EQ(fetches(), before);  // every one a hit
}

// run_obr_block's exchange at `n`: Cloudflare (bypass) in front of Akamai, a
// 1 KiB resource, the client aborting after 4 KiB of body.
Cost obr_cascade_exchange(std::size_t n, const char* what) {
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

  ObrRequests make(cdn::Vendor::kCloudflare, n);
  net::TransferOptions abort_early;
  abort_early.abort_after_body_bytes = 4096;
  const auto send = [&](const http::Request& r) {
    EXPECT_EQ(bed.send(r, abort_early).status, 206);
  };
  send(make(0));

  const Cost cost = fewest_per_exchange(what, make, send);
  EXPECT_GT(bed.fcdn_bcdn_traffic().response_bytes(), n * 1024u);
  return cost;
}

TEST(AllocBudget, ObrCascadeExchange) {
  const Cost cost = obr_cascade_exchange(1024, "obr cascade n=1024");
  EXPECT_LE(cost.allocations, kObrBound);
  EXPECT_LE(cost.bytes, kObrBytesBound);
}

// The obr-cascade benchmark workload's n: 10 746 copies of "0-", a 32 KB
// Range value that each node parses and the FCDN spells again.
TEST(AllocBudget, ObrCascadeExchangeAtWorkloadN) {
  const Cost cost = obr_cascade_exchange(10'746, "obr cascade n=10746");
  EXPECT_LE(cost.allocations, kObrWorkloadBound);
  EXPECT_LE(cost.bytes, kObrWorkloadBytesBound);
}

// An Akamai node with inline detection answering n = 1024 overlapping ranges
// (a 1 KiB resource, the client aborting after 4 KiB of body).  The node and
// its detector share one parse of the Range, and the detector sums the
// selected bytes per run without building a list.
TEST(AllocBudget, ObrExchangeWithDetection) {
  cdn::VendorProfile profile = cdn::make_profile(cdn::Vendor::kAkamai);
  profile.traits.detection.enabled = true;
  core::SingleCdnTestbed bed(std::move(profile), core::obr_origin_config());
  bed.origin().resources().add_synthetic(std::string{core::kObrPath}, 1024);
  bed.origin().set_keep_log(false);
  bed.client_traffic().set_keep_log(false);
  bed.origin_traffic().set_keep_log(false);

  ObrRequests make(cdn::Vendor::kAkamai, 1024);
  net::TransferOptions abort_early;
  abort_early.abort_after_body_bytes = 4096;
  const auto send = [&](const http::Request& r) {
    EXPECT_EQ(bed.send(r, abort_early).status, 206);
  };
  send(make(0));

  const Cost cost = fewest_per_exchange("obr detection n=1024", make, send);
  EXPECT_LE(cost.allocations, kObrDetectionBound);
  EXPECT_LE(cost.bytes, kObrDetectionBytesBound);
  // Every exchange, the warm-up included, fed the detector.
  EXPECT_EQ(bed.cdn().detection()->stats().samples, kRounds + 1u);
}

// One good spec and then junk up to the length guard: malformed, so the
// parse fails at the second element.  It must cost what the one run it read
// costs, not anything sized from the value's length.
TEST(AllocBudget, MalformedRangeValueAllocatesLittle) {
  std::string value = "bytes=0-,";
  value.resize(http::kMaxRangeHeaderBytes, 'x');
  const std::uint64_t bytes = g_bytes.load(std::memory_order_relaxed);
  const bool parsed = http::parse_range_header(value).has_value();
  const std::uint64_t allocated = g_bytes.load(std::memory_order_relaxed) - bytes;
  std::printf("malformed %zu-byte Range value: %llu bytes\n", value.size(),
              static_cast<unsigned long long>(allocated));
  EXPECT_FALSE(parsed);
  EXPECT_LE(allocated, kMalformedRangeBytesBound);
}

// "bytes=0-,1-,0-,..." up to the length guard, valid or with a bad last
// element: 87 379 ranges, each a run of its own, the most runs a value can
// hold.  The runs vector grows eightfold and never past what the rest of
// the value can hold, so the last reservation is exact and the parse asks
// for the final runs plus the blocks they outgrew, valid or not.
std::uint64_t alternating_parse_bytes(bool bad_last, std::uint64_t* runs) {
  std::string value = "bytes=0-";
  for (std::size_t i = 1; value.size() + 3 <= http::kMaxRangeHeaderBytes; ++i) {
    value += i % 2 ? ",1-" : ",0-";
  }
  if (bad_last) value.back() = 'x';
  const std::uint64_t bytes = g_bytes.load(std::memory_order_relaxed);
  const auto set = http::parse_range_header(value);
  const std::uint64_t allocated = g_bytes.load(std::memory_order_relaxed) - bytes;
  EXPECT_EQ(set.has_value(), !bad_last);
  *runs = set ? set->runs().size() : 0;
  std::printf("alternating %zu-byte Range value%s: %llu bytes\n", value.size(),
              bad_last ? " with a bad last element" : "",
              static_cast<unsigned long long>(allocated));
  return allocated;
}

TEST(AllocBudget, AlternatingRangeValueAtTheLengthGuard) {
  std::uint64_t runs = 0;
  EXPECT_LE(alternating_parse_bytes(false, &runs), kAlternatingRangeBytesBound);
  EXPECT_EQ(runs, 87'379u);
  EXPECT_LE(alternating_parse_bytes(true, &runs), kAlternatingRangeBytesBound);
}

}  // namespace
}  // namespace rangeamp
