// Micro-benchmarks (google-benchmark) for the substrate hot paths: Range
// header parsing, multipart framing size computation, serialization size,
// full SBR/OBR end-to-end exchanges and the corpus generator.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/rangeamp.h"
#include "http/date.h"
#include "http2/hpack.h"
#include "sim/attack_load.h"

using namespace rangeamp;

namespace {

void BM_ParseRangeHeaderSingle(benchmark::State& state) {
  for (auto _ : state) {
    auto set = http::parse_range_header("bytes=0-0");
    benchmark::DoNotOptimize(set);
  }
}
BENCHMARK(BM_ParseRangeHeaderSingle);

void BM_ParseRangeHeaderMulti(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::string value = core::obr_range_case(cdn::Vendor::kCloudflare, n)
                                .to_string();
  for (auto _ : state) {
    auto set = http::parse_range_header(value);
    benchmark::DoNotOptimize(set);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ParseRangeHeaderMulti)->Range(8, 8192)->Arg(10746)->Complexity(benchmark::oN);

// "bytes=" followed by n list elements, element i spelled `spell(i)`.
template <typename Spell>
std::string range_value_of(std::size_t n, Spell spell) {
  std::string value = "bytes=";
  for (std::size_t i = 0; i < n; ++i) {
    if (i) value += ',';
    value += spell(i);
  }
  return value;
}

// The parse with no two consecutive equal ranges ("0-,1-,2-,..."): what an
// attacker who varies every spec costs a node.
void BM_ParseRangeHeaderDistinct(benchmark::State& state) {
  const std::string value = range_value_of(
      static_cast<std::size_t>(state.range(0)),
      [](std::size_t i) { return std::to_string(i) + "-"; });
  for (auto _ : state) {
    auto set = http::parse_range_header(value);
    benchmark::DoNotOptimize(set);
  }
}
BENCHMARK(BM_ParseRangeHeaderDistinct)->Arg(10746);

// Two ranges in turn ("0-,1-,0-,..."): no range equals the one before it,
// and each takes the fewest bytes a range can.
void BM_ParseRangeHeaderAlternating(benchmark::State& state) {
  const std::string value = range_value_of(
      static_cast<std::size_t>(state.range(0)),
      [](std::size_t i) { return std::string{i % 2 ? "1-" : "0-"}; });
  for (auto _ : state) {
    auto set = http::parse_range_header(value);
    benchmark::DoNotOptimize(set);
  }
}
BENCHMARK(BM_ParseRangeHeaderAlternating)->Arg(10746);

// Equal ranges spelled two ways in turn ("0-,00-,0-,..."): every range
// repeats the previous one's value, but never its bytes.
void BM_ParseRangeHeaderRespelled(benchmark::State& state) {
  const std::string value = range_value_of(
      static_cast<std::size_t>(state.range(0)),
      [](std::size_t i) { return std::string{i % 2 ? "00-" : "0-"}; });
  for (auto _ : state) {
    auto set = http::parse_range_header(value);
    benchmark::DoNotOptimize(set);
  }
}
BENCHMARK(BM_ParseRangeHeaderRespelled)->Arg(10746);

// Cloudflare's OBR case built and spelled, as each probe's client does.
void BM_ObrRangeCase(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto value = core::obr_range_case(cdn::Vendor::kCloudflare, n).to_string();
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_ObrRangeCase)->Arg(10746);

// A parsed OBR set spelled again, as the FCDN does when it forwards it.
void BM_RangeSetToString(benchmark::State& state) {
  const auto set = http::parse_range_header(
      core::obr_range_case(cdn::Vendor::kCloudflare,
                           static_cast<std::size_t>(state.range(0)))
          .to_string());
  for (auto _ : state) {
    auto value = set->to_string();
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_RangeSetToString)->Arg(10746);

// Table V's max-n search for one cascade: 29 probes through fresh testbeds,
// 24 of them accepted.  This is the benchmark's obr-cascade set-up.
void BM_MeasureObr(benchmark::State& state) {
  for (auto _ : state) {
    auto m = core::measure_obr(cdn::Vendor::kCloudflare, cdn::Vendor::kAkamai, 1024);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_MeasureObr)->Unit(benchmark::kMillisecond);

void BM_MultipartSizeComputation(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<http::ResolvedRange> ranges(n, http::ResolvedRange{0, 1023});
  for (auto _ : state) {
    auto size = http::multipart_byteranges_size(ranges, 1024,
                                                "application/octet-stream",
                                                "boundary123456");
    benchmark::DoNotOptimize(size);
  }
}
BENCHMARK(BM_MultipartSizeComputation)->Range(8, 8192);

void BM_SerializedSize25MB(benchmark::State& state) {
  http::Response resp = http::make_response(
      http::kOk, http::Body::synthetic(1, 0, 25 * (1u << 20)));
  for (auto _ : state) {
    auto size = http::serialized_size(resp);
    benchmark::DoNotOptimize(size);
  }
}
BENCHMARK(BM_SerializedSize25MB);

void BM_SbrExchange(benchmark::State& state) {
  const std::uint64_t size = static_cast<std::uint64_t>(state.range(0)) << 20;
  for (auto _ : state) {
    auto m = core::measure_sbr(cdn::Vendor::kAkamai, size);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_SbrExchange)->Arg(1)->Arg(25);

void BM_ObrExchange(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  core::CascadeTestbed bed(
      cdn::make_profile(cdn::Vendor::kStackPath),
      cdn::make_profile(cdn::Vendor::kAkamai), core::obr_origin_config());
  bed.origin().resources().add_synthetic("/p.bin", 1024);
  auto request = http::make_get("victim.example.com", "/p.bin");
  request.headers.add(
      "Range", core::obr_range_case(cdn::Vendor::kStackPath, n).to_string());
  net::TransferOptions abort_early;
  abort_early.abort_after_body_bytes = 4096;
  for (auto _ : state) {
    auto response = bed.send(request, abort_early);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ObrExchange)->Arg(64)->Arg(1024)->Arg(10240);

// run_obr_block's exchange: Cloudflare (Bypass) in front of Akamai, a fresh
// ?x= query per exchange so both nodes miss, every log off.  BM_ObrExchange
// repeats one URL, so after its first exchange the FCDN answers from its own
// cache and the BCDN is never asked again.
void BM_ObrCascadeMiss(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
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
      core::obr_range_case(cdn::Vendor::kCloudflare, n).to_string();
  net::TransferOptions abort_early;
  abort_early.abort_after_body_bytes = 4096;
  std::uint64_t next = 0;
  for (auto _ : state) {
    char query[32];
    std::snprintf(query, sizeof(query), "?x=%06llu",
                  static_cast<unsigned long long>(next++));
    auto request = http::make_get(std::string{core::kObrHost},
                                  std::string{core::kObrPath} + query);
    request.headers.add("Range", range);
    auto response = bed.send(request, abort_early);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ObrCascadeMiss)->Arg(10746);

void BM_GenerateCorpus(benchmark::State& state) {
  for (auto _ : state) {
    auto corpus = http::generate_corpus(42, 128, 1u << 20);
    benchmark::DoNotOptimize(corpus);
  }
}
BENCHMARK(BM_GenerateCorpus);

void BM_CacheHitServe(benchmark::State& state) {
  core::SingleCdnTestbed bed(cdn::make_profile(cdn::Vendor::kCloudflare));
  bed.origin().resources().add_synthetic("/hot.bin", 1u << 20);
  auto request = http::make_get("victim.example.com", "/hot.bin");
  bed.send(request);  // warm the cache
  request.headers.add("Range", "bytes=0-1023");
  for (auto _ : state) {
    auto response = bed.send(request);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_CacheHitServe);

// run_pollution_block's node: one Akamai node under an 8 MiB S3-FIFO budget,
// a 256 KiB attack object and 16 KiB catalog objects, every log off.  Each
// iteration is one bytes=0-0 miss on a fresh ?x= key and one 16 KiB hit.
void BM_PollutionExchange(benchmark::State& state) {
  cdn::VendorProfile profile = cdn::make_profile(cdn::Vendor::kAkamai);
  profile.traits.cache.max_bytes = 8u << 20;
  profile.traits.cache.policy = cdn::CacheEvictionPolicy::kS3Fifo;
  core::SingleCdnTestbed bed(std::move(profile));
  bed.origin().resources().add_synthetic("/target.bin", 256 * 1024,
                                         "application/octet-stream");
  bed.origin().resources().add_synthetic("/obj/0", 16 * 1024,
                                         "application/octet-stream");
  bed.origin().set_keep_log(false);
  bed.client_traffic().set_keep_log(false);
  bed.origin_traffic().set_keep_log(false);
  const http::Request hit = http::make_get("shop.example.com", "/obj/0");
  bed.send(hit);  // warm the cache
  std::uint64_t next = 0;
  for (auto _ : state) {
    auto attack = http::make_get("shop.example.com",
                                 "/target.bin?x=" + std::to_string(next++));
    attack.headers.add("Range", "bytes=0-0");
    auto miss = bed.send(attack);
    benchmark::DoNotOptimize(miss);
    auto response = bed.send(hit);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_PollutionExchange);

void BM_HpackEncodeRequestHeaders(benchmark::State& state) {
  http2::Encoder encoder;
  const std::vector<http2::HeaderEntry> headers = {
      {":method", "GET"},
      {":scheme", "https"},
      {":authority", "victim.example.com"},
      {":path", "/payload.bin?cb=1"},
      {"range", "bytes=0-0"},
      {"user-agent", "rangeamp/1.0"},
  };
  for (auto _ : state) {
    auto block = encoder.encode(headers);
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK(BM_HpackEncodeRequestHeaders);

void BM_HpackDecodeRequestHeaders(benchmark::State& state) {
  http2::Encoder encoder;
  const std::string block = encoder.encode({
      {":method", "GET"},
      {":path", "/payload.bin"},
      {"range", "bytes=0-0"},
  });
  for (auto _ : state) {
    http2::Decoder decoder;
    auto headers = decoder.decode(block);
    benchmark::DoNotOptimize(headers);
  }
}
BENCHMARK(BM_HpackDecodeRequestHeaders);

void BM_HttpDateParse(benchmark::State& state) {
  for (auto _ : state) {
    auto ts = http::parse_http_date("Sun, 06 Nov 1994 08:49:37 GMT");
    benchmark::DoNotOptimize(ts);
  }
}
BENCHMARK(BM_HttpDateParse);

// The Fig 7 projection at campaign shapes: args are requests per second and
// attack seconds.  4000 x 4 is the sbr-saturate benchmark workload (16 000
// flows in flight at peak); 20 000 x 10 piles up ~200 000.
void BM_AttackLoad(benchmark::State& state) {
  sim::AttackLoadConfig config;
  config.requests_per_second = static_cast<int>(state.range(0));
  config.duration_s = static_cast<double>(state.range(1));
  config.origin_response_bytes = 65'800;
  config.client_response_bytes = 817;
  for (auto _ : state) {
    auto series = sim::simulate_attack_load(config);
    benchmark::DoNotOptimize(series);
  }
}
BENCHMARK(BM_AttackLoad)->Args({4000, 4})->Args({20'000, 10})->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
