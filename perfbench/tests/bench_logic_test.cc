// Tests of the benchmark's own logic: span self-time arithmetic, allocation
// attribution, failure accounting, and byte equality of the traced rebuild
// with the campaign entry points on tiny instances of each workload.
//
//   python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "spans.h"
#include "traced.h"
#include "workloads.h"

namespace perfbench {
namespace {

SpanRecord span(std::uint32_t parent, std::int64_t start, std::int64_t end) {
  SpanRecord s;
  s.name = "s";
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

// Keeps the optimizer from proving an allocation unused.
void escape(void* p) { asm volatile("" : : "g"(p) : "memory"); }

TEST(SelfTime, SubtractsTheUnionOfChildIntervals) {
  // 1 [0,100)
  //   2 [10,40)          3 [30,50) overlaps 2     4 [90,120) sticks out
  //     5 [15,20) grandchild: counts against 2 only
  const std::vector<SpanRecord> spans = {
      span(0, 0, 100), span(1, 10, 40), span(1, 30, 50), span(1, 90, 120),
      span(2, 15, 20)};
  const std::vector<std::int64_t> self = self_times_ns(spans);
  ASSERT_EQ(self.size(), 5u);
  EXPECT_EQ(self[0], 100 - (50 - 10) - (100 - 90));
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 5);
}

TEST(SelfTime, NestedChildrenContainedInEachOther) {
  // Two children where one covers the other entirely.
  const std::vector<SpanRecord> spans = {span(0, 0, 50), span(1, 5, 45),
                                         span(1, 10, 20), span(0, 60, 70)};
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 10);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 10);
}

TEST(SpanLog, RecordsParentsTracesAndOrder) {
  SpanLog log;
  const std::uint32_t root = log.begin("campaign");
  log.set_trace(7);
  const std::uint32_t child = log.begin("exchange");
  const std::uint32_t grandchild = log.begin("cdn.handle");
  log.end(grandchild);
  log.end(child);
  log.set_trace(0);
  log.end(root);
  const std::vector<SpanRecord>& spans = log.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[2].parent, child);
  EXPECT_EQ(spans[0].trace, 0u);
  EXPECT_EQ(spans[1].trace, 7u);
  EXPECT_EQ(spans[2].trace, 7u);
  for (const SpanRecord& s : spans) EXPECT_GE(s.end_ns, s.start_ns);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

TEST(AllocationAttribution, ChargesTheInnermostOpenSpan) {
  SpanLog log;
  log.attach_allocations();
  const std::uint32_t outer = log.begin("outer");
  void* kept_outer = ::operator new(100);
  escape(kept_outer);
  const std::uint32_t inner = log.begin("inner");
  void* kept_inner = ::operator new(50);
  escape(kept_inner);
  void* freed_inner = ::operator new(30);
  escape(freed_inner);
  ::operator delete(freed_inner);
  log.end(inner);
  // Freed after `inner` closed: stays live for inner, and is never credited
  // to the still-open outer span it was not charged to.
  ::operator delete(kept_inner);
  void* freed_outer = ::operator new(20);
  escape(freed_outer);
  ::operator delete(freed_outer);
  log.end(outer);
  void* after = ::operator new(10);  // no open span: charged to nobody
  escape(after);
  ::operator delete(after);
  ::operator delete(kept_outer);
  log.detach_allocations();

  const SpanRecord o = log.spans()[outer - 1];
  const SpanRecord i = log.spans()[inner - 1];
  EXPECT_EQ(i.allocs, 2u);
  EXPECT_EQ(i.alloc_bytes, 80u);
  EXPECT_EQ(i.live_bytes(), 50u);
  EXPECT_EQ(o.allocs, 2u);
  EXPECT_EQ(o.alloc_bytes, 120u);
  EXPECT_EQ(o.live_bytes(), 100u);
}

TEST(AllocationAttribution, IgnoresDetachedLogsAndClearedGenerations) {
  SpanLog log;
  // Not attached: nothing is charged.
  const std::uint32_t first = log.begin("detached");
  void* p = ::operator new(64);
  escape(p);
  log.end(first);
  EXPECT_EQ(log.spans()[first - 1].allocs, 0u);

  // A block charged before clear() must not credit the new generation.
  log.attach_allocations();
  log.clear();
  const std::uint32_t a = log.begin("a");
  void* q = ::operator new(40);
  escape(q);
  log.end(a);
  log.clear();
  const std::uint32_t b = log.begin("b");
  ::operator delete(q);
  log.end(b);
  log.detach_allocations();
  ::operator delete(p);
  EXPECT_EQ(log.spans()[b - 1].allocs, 0u);
  EXPECT_EQ(log.spans()[b - 1].freed_bytes, 0u);
}

core::SbrCampaignResult golden_sbr_result() {
  core::SbrCampaignResult r;
  r.amplification = kSbrGolden.amplification;
  r.attacker.request_bytes = kSbrGolden.attacker_request_bytes;
  r.attacker.response_bytes = kSbrGolden.attacker_response_bytes;
  r.origin.response_bytes = kSbrGolden.origin_response_bytes;
  r.bandwidth.peak_origin_out_mbps = 1000.0;
  return r;
}

TEST(Ledger, AWrongGoldenIsAFailedOperation) {
  const core::SbrCampaignResult result = golden_sbr_result();
  Ledger ledger;
  EXPECT_TRUE(ledger.run("right golden", [&] { return check_sbr(result, kSbrGolden); }));
  SbrGolden wrong = kSbrGolden;
  wrong.origin_response_bytes += 1;
  EXPECT_FALSE(ledger.run("wrong golden", [&] { return check_sbr(result, wrong); }));
  wrong = kSbrGolden;
  wrong.amplification += 1e-3;
  EXPECT_FALSE(ledger.run("wrong golden", [&] { return check_sbr(result, wrong); }));
  EXPECT_EQ(ledger.attempted(), 3u);
  EXPECT_EQ(ledger.failed(), 2u);
}

TEST(Ledger, AnExceptionIsAFailedOperation) {
  Ledger ledger;
  EXPECT_FALSE(ledger.run("throws", []() -> Check { throw std::runtime_error("boom"); }));
  EXPECT_EQ(ledger.attempted(), 1u);
  EXPECT_EQ(ledger.failed(), 1u);
}

TEST(Checks, PollutionBudgetAndGoldens) {
  core::CachePollutionResult r;
  r.legit_requests = 6;
  r.attack_requests = 4;
  r.cache_bytes_peak = 8u << 20;
  EXPECT_TRUE(check_pollution(r, 10).ok());
  EXPECT_FALSE(check_pollution(r, 11).ok());
  r.cache_bytes_peak = (8u << 20) + 1;
  EXPECT_FALSE(check_pollution(r, 10).ok());
  r.legit_hit_rate = kPollutionGolden.serial_legit_hit_rate;
  EXPECT_TRUE(check_pollution_golden(r, false, kPollutionGolden).ok());
  EXPECT_FALSE(check_pollution_golden(r, true, kPollutionGolden).ok());
  EXPECT_FALSE(check_obr_max_n(kObrMaxN - 1).ok());
  EXPECT_TRUE(check_obr_max_n(kObrMaxN).ok());
}

// Traced rebuilds must move exactly the campaign's bytes.
TEST(TracedRebuild, SbrMatchesTheCampaignOnATinyInstance) {
  core::SbrCampaignConfig config = core::SbrCampaignConfig::Builder()
                                       .vendor(rangeamp::cdn::Vendor::kCloudflare)
                                       .file_size(64 * 1024)
                                       .requests_per_second(200)
                                       .duration_s(1)
                                       .edge_nodes(8)
                                       .build();
  SpanLog log;
  const Rebuilt rebuilt = run_rebuilt(config, Hooks{&log, nullptr, nullptr});
  EXPECT_EQ(rebuilt.fingerprint, fingerprint(core::run_sbr_campaign(config)));
  EXPECT_EQ(rebuilt.counts.exchanges, 200u);
  EXPECT_EQ(rebuilt.counts.origin_calls, 200u);
  // One campaign root with testbed, 200 exchanges, replay and projection.
  std::size_t roots = 0, exchanges = 0, cdn = 0, origin = 0;
  for (const SpanRecord& s : log.spans()) {
    const std::string name = s.name;
    roots += s.parent == 0;
    exchanges += name == "exchange";
    cdn += name == "cdn.handle";
    origin += name == "origin.handle";
  }
  EXPECT_EQ(roots, 1u);
  EXPECT_EQ(exchanges, 200u);
  EXPECT_EQ(cdn, 200u);
  EXPECT_EQ(origin, 200u);
}

TEST(TracedRebuild, ObrMatchesTheCampaignOnATinyInstance) {
  const core::ObrCampaignConfig config = core::ObrCampaignConfig::Builder()
                                             .fcdn(rangeamp::cdn::Vendor::kCloudflare)
                                             .bcdn(rangeamp::cdn::Vendor::kAkamai)
                                             .resource_size(1024)
                                             .overlapping_ranges(64)
                                             .requests_per_second(2)
                                             .duration_s(2)
                                             .build();
  SpanLog log;
  const Rebuilt rebuilt = run_rebuilt(config, Hooks{&log, nullptr, nullptr});
  EXPECT_EQ(rebuilt.fingerprint, fingerprint(core::run_obr_campaign(config)));
  EXPECT_EQ(rebuilt.counts.exchanges, 4u);
  EXPECT_GT(rebuilt.counts.fcdn_bcdn_response_bytes, 64u * 1024u * 4u);
  std::size_t bcdn = 0;
  for (const SpanRecord& s : log.spans()) bcdn += std::string(s.name) == "cdn.bcdn";
  EXPECT_EQ(bcdn, 4u);
}

TEST(TracedRebuild, CachePollutionMatchesTheCampaignOnATinyInstance) {
  core::CachePollutionConfig config = pollution_config(7, 1, 1);
  config.requests = 3000;
  config.warmup_requests = 64;
  config.cache.max_bytes = 1u << 20;
  SpanLog log;
  const Rebuilt rebuilt = run_rebuilt(config, Hooks{&log, nullptr, nullptr});
  const core::CachePollutionResult campaign = core::run_cache_pollution_campaign(config);
  EXPECT_EQ(rebuilt.fingerprint, fingerprint(campaign));
  EXPECT_EQ(rebuilt.counts.exchanges, 3064u);
  EXPECT_GT(campaign.cache_evictions, 0u);
}

}  // namespace
}  // namespace perfbench
