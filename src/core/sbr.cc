#include "core/sbr.h"

#include "core/parallel.h"
#include "core/testbed.h"

namespace rangeamp::core {

using cdn::Vendor;
using http::ByteRangeSpec;
using http::RangeSet;

SbrPlan sbr_plan(Vendor vendor, std::uint64_t file_size) {
  SbrPlan plan;
  switch (vendor) {
    case Vendor::kAkamai:
    case Vendor::kCdn77:
    case Vendor::kCdnsun:
    case Vendor::kCloudflare:
    case Vendor::kFastly:
    case Vendor::kGcoreLabs:
    case Vendor::kStackPath:
    case Vendor::kTencentCloud:
      plan.description = "bytes=0-0";
      plan.range = RangeSet{ByteRangeSpec::closed(0, 0)};
      break;
    case Vendor::kAlibabaCloud:
      plan.description = "bytes=-1";
      plan.range = RangeSet{ByteRangeSpec::suffix_of(1)};
      break;
    case Vendor::kAzure:
      if (file_size <= 8 * (1u << 20)) {
        plan.description = "bytes=0-0 (F<=8MB)";
        plan.range = RangeSet{ByteRangeSpec::closed(0, 0)};
      } else {
        plan.description = "bytes=8388608-8388608 (F>8MB)";
        plan.range = RangeSet{ByteRangeSpec::closed(8'388'608, 8'388'608)};
      }
      break;
    case Vendor::kCloudFront:
      plan.description = "bytes=0-0,9437184-9437184";
      plan.range = RangeSet{ByteRangeSpec::closed(0, 0),
                            ByteRangeSpec::closed(9'437'184, 9'437'184)};
      break;
    case Vendor::kHuaweiCloud:
      if (file_size < cdn::kHuaweiSizeThreshold) {
        plan.description = "bytes=-1 (F<10MB)";
        plan.range = RangeSet{ByteRangeSpec::suffix_of(1)};
      } else {
        plan.description = "bytes=0-0 (F>=10MB)";
        plan.range = RangeSet{ByteRangeSpec::closed(0, 0)};
      }
      break;
    case Vendor::kKeyCdn:
      plan.description = "bytes=0-0 & bytes=0-0";
      plan.range = RangeSet{ByteRangeSpec::closed(0, 0)};
      plan.sends = 2;  // first sighting is forwarded lazily; the second
                       // triggers Deletion (Table I)
      break;
  }
  return plan;
}

SbrMeasurement measure_sbr(Vendor vendor, std::uint64_t file_size,
                           const cdn::ProfileOptions& options,
                           obs::Tracer* tracer) {
  SingleCdnTestbed bed(cdn::make_profile(vendor, options));
  bed.origin().resources().add_synthetic("/payload.bin", file_size);
  bed.set_tracer(tracer);

  const SbrPlan plan = sbr_plan(vendor, file_size);
  // A single fresh cache-busting query: KeyCDN's two sends must share the
  // same cache key for the second one to trigger Deletion.
  http::Request request =
      http::make_get(std::string{kDefaultHost}, "/payload.bin?cb=000001");
  request.headers.add("Range", plan.range.to_string());

  {
    obs::SpanScope root(tracer, "sbr.measure");
    root.note("vendor", cdn::vendor_name(vendor));
    root.note("file_size", std::to_string(file_size));
    root.note("case", plan.description);
    for (int i = 0; i < plan.sends; ++i) bed.send(request);
    // Recorder totals, stamped on the root so a trace consumer can verify
    // the trace's own per-segment wire-span sums against the "tcpdump" view.
    root.note("expect_client_request_bytes",
              std::to_string(bed.client_traffic().request_bytes()));
    root.note("expect_client_response_bytes",
              std::to_string(bed.client_traffic().response_bytes()));
    root.note("expect_origin_request_bytes",
              std::to_string(bed.origin_traffic().request_bytes()));
    root.note("expect_origin_response_bytes",
              std::to_string(bed.origin_traffic().response_bytes()));
  }

  SbrMeasurement m;
  m.vendor = vendor;
  m.file_size = file_size;
  m.exploited_case = plan.description;
  m.client_response_bytes = bed.client_traffic().response_bytes();
  m.origin_response_bytes = bed.origin_traffic().response_bytes();
  m.client_request_bytes = bed.client_traffic().request_bytes();
  m.origin_request_bytes = bed.origin_traffic().request_bytes();
  m.amplification =
      m.client_response_bytes == 0
          ? 0
          : static_cast<double>(m.origin_response_bytes) /
                static_cast<double>(m.client_response_bytes);
  return m;
}

SbrMeasurement measure_sbr_h2(Vendor vendor, std::uint64_t file_size,
                              int requests, const cdn::ProfileOptions& options,
                              obs::Tracer* tracer) {
  SingleCdnTestbedH2 bed(cdn::make_profile(vendor, options));
  bed.origin().resources().add_synthetic("/payload.bin", file_size);
  bed.set_tracer(tracer);
  const SbrPlan plan = sbr_plan(vendor, file_size);

  for (int i = 0; i < requests; ++i) {
    // Fresh cache-busting query per amplification unit, as a real campaign
    // would rotate; KeyCDN's plan sends each twice under the same key.
    http::Request request = http::make_get(
        std::string{kDefaultHost}, "/payload.bin?cb=" + std::to_string(i));
    request.headers.add("Range", plan.range.to_string());
    for (int s = 0; s < plan.sends; ++s) bed.send(request);
  }

  SbrMeasurement m;
  m.vendor = vendor;
  m.file_size = file_size;
  m.exploited_case = plan.description + " (h2)";
  m.client_response_bytes = bed.client_traffic().response_bytes();
  m.origin_response_bytes = bed.origin_traffic().response_bytes();
  m.client_request_bytes = bed.client_traffic().request_bytes();
  m.origin_request_bytes = bed.origin_traffic().request_bytes();
  m.amplification =
      m.client_response_bytes == 0
          ? 0
          : static_cast<double>(m.origin_response_bytes) /
                static_cast<double>(m.client_response_bytes);
  return m;
}

std::vector<SbrMeasurement> sweep_sbr(Vendor vendor,
                                      const std::vector<std::uint64_t>& file_sizes,
                                      const cdn::ProfileOptions& options,
                                      obs::Tracer* tracer, int threads) {
  // One shard per size when threads > 1, else one block over every size.
  // Each shard traces into its own sink, merged in size order, so the
  // sweep's trace reads exactly like the serial one.
  struct Rows {
    std::vector<SbrMeasurement> rows;
    void merge(const Rows& other) {
      rows.insert(rows.end(), other.rows.begin(), other.rows.end());
    }
  };
  return run_sharded<Rows>(
             file_sizes.size(), threads > 1 ? file_sizes.size() : 1, threads,
             /*seed=*/0, /*group=*/1, {tracer, nullptr},
             [&](const Shard& shard, ShardSinks sinks) {
               Rows block;
               for (std::uint64_t i = shard.begin; i < shard.end; ++i) {
                 block.rows.push_back(measure_sbr(
                     vendor, file_sizes[static_cast<std::size_t>(i)], options,
                     sinks.tracer));
               }
               return block;
             })
      .rows;
}

}  // namespace rangeamp::core
