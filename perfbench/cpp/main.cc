// Campaign benchmark: one process measures one workload for a fixed number
// of seconds and prints its metrics as the last line of standard output.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
//             [--out-dir <dir>]
//
// --trace 0 reports the end-to-end metrics from untraced campaign calls;
// --trace 1 reports the per-layer metrics of a traced rebuild of the same
// campaign (run through perfbench_traced, which counts allocations).  Every
// campaign call is one operation and is checked; a failed check or an
// exception fails the run.  See README.md.
#include <malloc.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cdn/profiles.h"
#include "core/obr.h"
#include "host.h"
#include "http/multipart.h"
#include "http/range.h"
#include "spans.h"
#include "traced.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Every timed interval lasts at least this long: shorter ones are noise on
// the shared host this benchmark was built on.
constexpr double kMinInterval = 0.1;
// A run holds at least this many timed calls of each kind.
constexpr int kMinRounds = 3;
// The traced run writes out the spans of this many exchanges of its last
// traced call (plus the campaign-level spans); all of them stay in memory.
constexpr std::uint64_t kSpanDumpExchanges = 1000;

struct Args {
  Workload workload = Workload::kSbrSaturate;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;
};

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  out = value;
  return true;
}

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      const auto workload = parse_workload(value);
      if (!workload) return false;
      args.workload = *workload;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, args.seed)) return false;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, number) || number == 0 || number > 3600) return false;
      args.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!parse_u64(value, number) || number > 1) return false;
      args.trace = number == 1;
      have_trace = true;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

struct CallOutput {
  std::string fingerprint;
  Check check;
};

// One campaign call through the public entry point, with its output checks.
CallOutput call_campaign(Workload workload, std::uint64_t seed, bool sharded,
                         const Hooks& obs_hooks = {}) {
  const std::size_t shards = sharded ? shard_count(workload) : 1;
  const int threads = sharded ? kShardThreads : 1;
  CallOutput out;
  switch (workload) {
    case Workload::kSbrSaturate: {
      core::SbrCampaignConfig config = sbr_config(shards, threads);
      config.tracer = obs_hooks.tracer;
      config.metrics = obs_hooks.metrics;
      const core::SbrCampaignResult result = core::run_sbr_campaign(config);
      out.fingerprint = fingerprint(result);
      out.check = check_sbr(result, kSbrGolden);
      break;
    }
    case Workload::kObrCascade: {
      const core::ObrCampaignResult result =
          core::run_obr_campaign(obr_config(kObrN, shards, threads));
      out.fingerprint = fingerprint(result);
      out.check = check_obr(result, kObrGolden);
      break;
    }
    case Workload::kCachePollution: {
      core::CachePollutionConfig config = pollution_config(seed, shards, threads);
      config.metrics = obs_hooks.metrics;
      const core::CachePollutionResult result =
          core::run_cache_pollution_campaign(config);
      out.fingerprint = fingerprint(result);
      out.check = check_pollution(result, config.requests);
      if (out.check.ok() && seed == kPollutionGoldenSeed) {
        out.check = check_pollution_golden(result, sharded, kPollutionGolden);
      }
      break;
    }
  }
  return out;
}

// Runs campaign calls and keeps, per (seed, kind), the first fingerprint
// as the reference every later call must reproduce.  On sbr-saturate and
// obr-cascade the sharded kind shares the serial reference: the engine
// promises byte equality there.
class Campaigns {
 public:
  Campaigns(Workload workload, Ledger& ledger) : workload_(workload), ledger_(ledger) {}

  /// One checked call; returns its wall seconds, or a negative value if it
  /// failed.
  double call(std::uint64_t seed, bool sharded) {
    double seconds = -1;
    ledger_.run(label(seed, sharded), [&] {
      const double start = wall_seconds();
      CallOutput out = call_campaign(workload_, seed, sharded);
      const double elapsed = wall_seconds() - start;
      // Hand the call's freed memory back, so the process peak is the
      // largest single call and not what the allocator kept from earlier
      // calls on other threads.
      malloc_trim(0);
      if (!out.check.ok()) return out.check;
      Check same = matches_reference(seed, sharded, out.fingerprint);
      if (same.ok()) seconds = elapsed;
      return same;
    });
    return seconds;
  }

  /// Checks `fingerprint` against the reference of (seed, kind), setting it
  /// on first use.
  Check matches_reference(std::uint64_t seed, bool sharded,
                          const std::string& fingerprint) {
    const bool shared = workload_ != Workload::kCachePollution;
    std::string& ref = references_[{seed, sharded && !shared}];
    if (ref.empty()) {
      ref = fingerprint;
      return {};
    }
    if (ref != fingerprint) {
      return {sharded && shared ? "sharded result differs from serial"
                                : "result differs from the first call's"};
    }
    return {};
  }

  std::string label(std::uint64_t seed, bool sharded) const {
    return std::string(workload_name(workload_)) + (sharded ? " sharded" : " serial") +
           " call (seed " + std::to_string(seed) + ")";
  }

 private:
  Workload workload_;
  Ledger& ledger_;
  std::map<std::pair<std::uint64_t, bool>, std::string> references_;
};

// Seed of the timed calls: cache-pollution draws its requests from it;
// the SBR and OBR campaigns derive everything from the exchange index.
std::uint64_t campaign_seed(Workload workload, std::uint64_t seed) {
  return workload == Workload::kCachePollution ? seed : 0;
}

// Times `body` back to back until at least kMinInterval has passed; returns
// seconds per repetition.
double batch_seconds(const std::function<void()>& body) {
  const double start = wall_seconds();
  std::uint64_t reps = 0;
  double elapsed = 0;
  do {
    body();
    ++reps;
    elapsed = wall_seconds() - start;
  } while (elapsed < kMinInterval);
  return elapsed / static_cast<double>(reps);
}

// One set-up sample: obr-cascade's max-n discovery (one call, ~0.17 s), or
// the other workloads' testbed build (with cache-pollution's warm-up),
// repeated for kMinInterval.  Negative on failure.
double setup_sample(Workload workload, Ledger& ledger) {
  double seconds = -1;
  ledger.run(std::string(workload_name(workload)) + " set-up", [&] {
    if (workload == Workload::kObrCascade) {
      const double start = wall_seconds();
      const core::ObrMeasurement m = core::measure_obr(
          rangeamp::cdn::Vendor::kCloudflare, rangeamp::cdn::Vendor::kAkamai, 1024);
      const double elapsed = wall_seconds() - start;
      Check check = check_obr_max_n(m.max_n);
      if (check.ok()) seconds = elapsed;
      return check;
    }
    seconds = batch_seconds([&] { build_testbed_once(workload, /*warm_up=*/true); });
    return Check{};
  });
  return seconds;
}

// Golden calls made before any timing (and doubling as warm-up): serial and
// sharded at the seed the goldens were recorded at.
void golden_calls(Workload workload, Campaigns& campaigns) {
  const std::uint64_t seed = workload == Workload::kCachePollution ? kPollutionGoldenSeed : 0;
  campaigns.call(seed, false);
  campaigns.call(seed, true);
}

struct Series {
  std::vector<double> values;
  void add(double v) {
    if (v >= 0) values.push_back(v);
  }
};

void print_timing(const char* name, const std::vector<double>& v, const char* unit) {
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  std::printf("  %-26s median %.6g %s  p25 %.6g  p75 %.6g  max %.6g  (n=%zu)\n", name,
              median(sorted), unit, percentile(sorted, 0.25), percentile(sorted, 0.75),
              sorted.empty() ? 0.0 : sorted.back(), sorted.size());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += ledger.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted());
  json += ", \"failed\": " + std::to_string(ledger.failed());
  json += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

std::vector<double> throughputs(const std::vector<double>& seconds,
                                std::uint64_t exchanges) {
  std::vector<double> out;
  for (double s : seconds) out.push_back(static_cast<double>(exchanges) / s);
  return out;
}

// Exchanges per second over all of a run's calls of one kind: total
// exchanges over total call seconds.  Per-call times on a shared 4-vCPU
// virtual machine fall into a fast and a slow mode, and a median flips
// between the modes from run to run where the total does not.
double overall_rate(const std::vector<double>& seconds, std::uint64_t exchanges) {
  double total = 0;
  for (double s : seconds) total += s;
  return total == 0 ? 0
                    : static_cast<double>(exchanges) *
                          static_cast<double>(seconds.size()) / total;
}

// --trace 0: the end-to-end metrics.
std::vector<Metric> run_untraced(const Args& args, Ledger& ledger, double deadline) {
  Campaigns campaigns(args.workload, ledger);
  golden_calls(args.workload, campaigns);
  const std::uint64_t seed = campaign_seed(args.workload, args.seed);

  Series serial, sharded, setup;
  for (int round = 0; round < kMinRounds || wall_seconds() < deadline; ++round) {
    serial.add(campaigns.call(seed, false));
    sharded.add(campaigns.call(seed, true));
    setup.add(setup_sample(args.workload, ledger));
    if (ledger.failed() > 0) break;
  }

  const std::uint64_t exchanges = exchanges_per_call(args.workload);
  const std::vector<double> serial_eps = throughputs(serial.values, exchanges);
  const std::vector<double> sharded_eps = throughputs(sharded.values, exchanges);
  std::printf("%s: %llu exchanges per call, %zu shards on %d threads\n",
              workload_name(args.workload), static_cast<unsigned long long>(exchanges),
              shard_count(args.workload), kShardThreads);
  print_timing("serial_exchanges_per_s", serial_eps, "1/s");
  print_timing("sharded_exchanges_per_s", sharded_eps, "1/s");
  print_timing("setup_s", setup.values, "s");
  return {
      {"serial_exchanges_per_s", overall_rate(serial.values, exchanges), "1/s"},
      {"sharded_exchanges_per_s", overall_rate(sharded.values, exchanges), "1/s"},
      {"setup_s", median(setup.values), "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
}

// Layer figures of one traced call, read off the span log.
struct SpanFigures {
  double cdn_self_p50_us = 0, cdn_self_p99_us = 0;
  double fcdn_self_ms = 0, bcdn_self_ms = 0;
  double client_self_p50_us = 0, origin_handle_p50_us = 0;
  double uncovered_share = 0, project_s = 0, replay_ms = 0;
  std::uint64_t cdn_allocs = 0, cdn_alloc_bytes = 0, cdn_live_bytes = 0;
  std::uint64_t origin_calls = 0, origin_allocs = 0, origin_live_bytes = 0;
};

SpanFigures read_spans(const SpanLog& log, bool cascade) {
  const std::vector<SpanRecord>& spans = log.spans();
  const std::vector<std::int64_t> self = self_times_ns(spans);
  SpanFigures f;
  // Per exchange (trace id): cdn self time and client-transport self time.
  std::map<std::uint64_t, std::pair<double, double>> per_trace;
  std::vector<double> origin_us;
  double fcdn_ns = 0, bcdn_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const std::string_view name = s.name;
    const double self_ns = static_cast<double>(self[i]);
    if (name == "cdn.handle" || name == "cdn.bcdn") {
      per_trace[s.trace].first += self_ns;
      (name == "cdn.handle" ? fcdn_ns : bcdn_ns) += self_ns;
      f.cdn_allocs += s.allocs;
      f.cdn_alloc_bytes += s.alloc_bytes;
      f.cdn_live_bytes += s.live_bytes();
    } else if (name == "exchange") {
      per_trace[s.trace].second += self_ns;
    } else if (name == "origin.handle") {
      origin_us.push_back(1e-3 * static_cast<double>(s.duration_ns()));
      ++f.origin_calls;
      f.origin_allocs += s.allocs;
      f.origin_live_bytes += s.live_bytes();
    } else if (name == "campaign") {
      f.uncovered_share = self_ns / static_cast<double>(s.duration_ns());
    } else if (name == "sim.project") {
      f.project_s = 1e-9 * static_cast<double>(s.duration_ns());
    } else if (name == "core.replay") {
      f.replay_ms = 1e-6 * static_cast<double>(s.duration_ns());
    }
  }
  std::vector<double> cdn_us, client_us;
  for (const auto& [trace, times] : per_trace) {
    cdn_us.push_back(1e-3 * times.first);
    client_us.push_back(1e-3 * times.second);
  }
  f.cdn_self_p50_us = percentile(cdn_us, 0.50);
  f.cdn_self_p99_us = percentile(cdn_us, 0.99);
  f.client_self_p50_us = percentile(client_us, 0.50);
  f.origin_handle_p50_us = percentile(origin_us, 0.50);
  // A single tier is both the client-facing and the origin-facing tier.
  f.fcdn_self_ms = 1e-6 * fcdn_ns;
  f.bcdn_self_ms = 1e-6 * (cascade ? bcdn_ns : fcdn_ns);
  return f;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// --trace 1: the per-layer metrics.
std::vector<Metric> run_traced(const Args& args, Ledger& ledger, double deadline) {
  const Workload workload = args.workload;
  const bool cascade = workload == Workload::kObrCascade;
  Campaigns campaigns(workload, ledger);
  golden_calls(workload, campaigns);
  const std::uint64_t seed = campaign_seed(workload, args.seed);

  SpanLog log;
  log.attach_allocations();
  Series serial, sharded, traced, attached;
  std::vector<SpanFigures> figures;
  LayerCounts counts;
  double spans_per_exchange = 0;
  for (int round = 0; round < 1 || wall_seconds() < deadline; ++round) {
    serial.add(campaigns.call(seed, false));
    sharded.add(campaigns.call(seed, true));
    ledger.run("traced rebuild", [&] {
      log.clear();
      const Hooks hooks{&log, nullptr, nullptr};
      const double start = wall_seconds();
      const Rebuilt rebuilt = run_rebuilt(workload, seed, hooks);
      const double elapsed = wall_seconds() - start;
      Check same = campaigns.matches_reference(seed, false, rebuilt.fingerprint);
      if (!same.ok()) return Check{"traced rebuild bytes differ from the campaign call"};
      traced.add(elapsed);
      counts = rebuilt.counts;
      figures.push_back(read_spans(log, cascade));
      return Check{};
    });
    ledger.run("obs-attached call", [&] {
      rangeamp::obs::Tracer tracer;
      rangeamp::obs::MetricsRegistry metrics;
      // The hooks each entry point exposes: the SBR campaign takes a tracer
      // and a registry, cache-pollution a registry; the OBR campaign takes
      // none, so its rebuild gets both, where CascadeTestbed attaches them.
      const Hooks hooks{nullptr,
                        workload == Workload::kCachePollution ? nullptr : &tracer,
                        &metrics};
      const double start = wall_seconds();
      const std::string fp = cascade ? run_rebuilt(workload, seed, hooks).fingerprint
                                     : call_campaign(workload, seed, false, hooks).fingerprint;
      const double elapsed = wall_seconds() - start;
      Check same = campaigns.matches_reference(seed, false, fp);
      if (!same.ok()) return Check{"attaching obs changed the campaign's bytes"};
      attached.add(elapsed);
      spans_per_exchange = ratio(static_cast<double>(tracer.spans().size()),
                                 static_cast<double>(exchanges_per_call(workload)));
      return Check{};
    });
    if (ledger.failed() > 0) break;
  }
  log.detach_allocations();

  // Fixed-cost layer timings, each a median of batches of kMinInterval.
  std::vector<double> testbed_s, parse_s, multipart_s;
  const std::string range_value = workload_range_value(workload);
  const std::uint64_t resource = workload_resource_bytes(workload);
  const auto parsed = rangeamp::http::parse_range_header(range_value);
  const std::vector<rangeamp::http::ResolvedRange> resolved =
      parsed ? rangeamp::http::resolve_all(*parsed, resource)
             : std::vector<rangeamp::http::ResolvedRange>{};
  const std::string boundary =
      rangeamp::cdn::make_profile(rangeamp::cdn::Vendor::kAkamai).traits.multipart_boundary;
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 3; ++i) {
    testbed_s.push_back(batch_seconds([&] { build_testbed_once(workload, false); }));
    parse_s.push_back(batch_seconds([&] {
      sink = sink + rangeamp::http::parse_range_header(range_value)->count();
    }));
    multipart_s.push_back(batch_seconds([&] {
      sink = sink + rangeamp::http::multipart_byteranges_size(
                        resolved, resource, "application/octet-stream", boundary);
    }));
  }

  if (!args.out_dir.empty()) {
    std::ofstream out(args.out_dir + "/" + workload_name(workload) + "-spans.jsonl");
    out << log.to_jsonl(kSpanDumpExchanges);
  }

  // Span figures are means over the traced calls: a phase a campaign lacks
  // reads a few tens of nanoseconds per call, and a mean of those does not
  // repeat to the nanosecond from run to run the way a median can.
  const auto mean_over_calls = [&](double SpanFigures::*field) {
    double sum = 0;
    for (const SpanFigures& f : figures) sum += f.*field;
    return figures.empty() ? 0 : sum / static_cast<double>(figures.size());
  };
  const double exchanges = static_cast<double>(counts.exchanges);
  const double requests = static_cast<double>(counts.requests);
  const SpanFigures last = figures.empty() ? SpanFigures{} : figures.back();
  const double cache_lookups = static_cast<double>(counts.cache.hits + counts.cache.misses);
  print_timing("untraced serial s", serial.values, "s");
  print_timing("untraced sharded s", sharded.values, "s");
  print_timing("traced serial s", traced.values, "s");
  print_timing("obs-attached serial s", attached.values, "s");
  return {
      {"sim.project_s", mean_over_calls(&SpanFigures::project_s), "s"},
      {"sim.flow_seconds", static_cast<double>(counts.flow_seconds), "count"},
      {"sim.in_flight_peak", static_cast<double>(counts.in_flight_peak), "count"},
      {"core.testbed_ms", 1e3 * median(testbed_s), "ms"},
      {"core.replay_ms", mean_over_calls(&SpanFigures::replay_ms), "ms"},
      {"core.shard_speedup", ratio(median(serial.values), median(sharded.values)), "ratio"},
      {"core.uncovered_share", mean_over_calls(&SpanFigures::uncovered_share), "ratio"},
      {"cdn.self_us.p50", mean_over_calls(&SpanFigures::cdn_self_p50_us), "us"},
      {"cdn.self_us.p99", mean_over_calls(&SpanFigures::cdn_self_p99_us), "us"},
      {"cdn.fcdn_self_ms", mean_over_calls(&SpanFigures::fcdn_self_ms), "ms"},
      {"cdn.bcdn_self_ms", mean_over_calls(&SpanFigures::bcdn_self_ms), "ms"},
      {"cdn.allocs_per_exchange", ratio(static_cast<double>(last.cdn_allocs), exchanges), "count"},
      {"cdn.alloc_bytes_per_exchange", ratio(static_cast<double>(last.cdn_alloc_bytes), exchanges), "B"},
      {"cdn.live_bytes_per_exchange", ratio(static_cast<double>(last.cdn_live_bytes), exchanges), "B"},
      {"cdn.cache_hit_ratio", ratio(static_cast<double>(counts.cache.hits), cache_lookups), "ratio"},
      {"cdn.cache_evictions_per_request", ratio(static_cast<double>(counts.cache.evictions), requests), "count"},
      {"cdn.origin_fetches_per_exchange", ratio(static_cast<double>(counts.origin_calls), exchanges), "count"},
      {"net.client_self_us.p50", mean_over_calls(&SpanFigures::client_self_p50_us), "us"},
      {"net.client_response_bytes_per_exchange", ratio(static_cast<double>(counts.client_response_bytes), exchanges), "B"},
      {"net.origin_response_bytes_per_exchange", ratio(static_cast<double>(counts.origin_response_bytes), exchanges), "B"},
      {"net.fcdn_bcdn_response_bytes_per_exchange", ratio(static_cast<double>(counts.fcdn_bcdn_response_bytes), exchanges), "B"},
      {"http.parse_range_ms", 1e3 * median(parse_s), "ms"},
      {"http.multipart_size_ms", 1e3 * median(multipart_s), "ms"},
      {"origin.handle_us.p50", mean_over_calls(&SpanFigures::origin_handle_p50_us), "us"},
      {"origin.allocs_per_call", ratio(static_cast<double>(last.origin_allocs), static_cast<double>(last.origin_calls)), "count"},
      {"origin.live_bytes_per_call", ratio(static_cast<double>(last.origin_live_bytes), static_cast<double>(last.origin_calls)), "B"},
      {"obs.tracer_slowdown", ratio(median(attached.values), median(serial.values)), "ratio"},
      {"obs.spans_per_exchange", spans_per_exchange, "count"},
      {"bench.trace_overhead", ratio(median(traced.values), median(serial.values)), "ratio"},
  };
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload sbr-saturate|obr-cascade|cache-pollution "
                 "--seed <n> --seconds <s> --trace 0|1 [--out-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  const std::int64_t steal_at_start = steal_jiffies();
  const double start = wall_seconds();
  const double deadline = start + args.seconds;
  Ledger ledger;
  const std::vector<Metric> metrics = args.trace ? run_traced(args, ledger, deadline)
                                                 : run_untraced(args, ledger, deadline);
  std::printf("host: %s\n", host_record_json(steal_at_start, wall_seconds() - start).c_str());
  print_result(ledger, metrics);
  return ledger.failed() == 0 ? 0 : 1;
}
