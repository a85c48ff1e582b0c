#include "core/scanner.h"

#include "core/obr.h"
#include "core/testbed.h"
#include "http/multipart.h"

namespace rangeamp::core {

using cdn::Vendor;
using http::ByteRangeSpec;
using http::RangeSet;

namespace {

// Renders what one origin-side request did with the Range header.
std::string render_forwarded(const http::Request& origin_request,
                             std::string_view sent_value) {
  const auto range = origin_request.headers.get("Range");
  if (origin_request.method == http::Method::HEAD) {
    return range ? "HEAD " + std::string{*range} : "HEAD";
  }
  if (!range) return "None";
  if (*range == sent_value) return "Unchanged";
  return std::string{*range};
}

}  // namespace

std::string OriginView::summary() const {
  if (forwarded.empty()) return "(no origin request)";
  std::string out;
  for (std::size_t i = 0; i < forwarded.size(); ++i) {
    if (i) out += " & ";
    out += forwarded[i];
  }
  return out;
}

std::vector<ForwardProbe> standard_forward_probes() {
  std::vector<ForwardProbe> probes;
  probes.push_back({"bytes=first-last (tiny)", RangeSet{ByteRangeSpec::closed(0, 0)}});
  probes.push_back(
      {"bytes=first-last (first>=1024)", RangeSet{ByteRangeSpec::closed(2048, 2049)}});
  probes.push_back({"bytes=first-last (second 8MiB window)",
                    RangeSet{ByteRangeSpec::closed(8'388'608, 8'388'608)}});
  probes.push_back({"bytes=-suffix", RangeSet{ByteRangeSpec::suffix_of(1)}});
  probes.push_back({"bytes=first-", RangeSet{ByteRangeSpec::open(5)}});
  probes.push_back({"bytes=f1-l1,f2-l2 (disjoint)",
                    RangeSet{ByteRangeSpec::closed(0, 0),
                             ByteRangeSpec::closed(9'437'184, 9'437'184)}});
  probes.push_back({"bytes=0-,0-,0- (overlapping)",
                    RangeSet{ByteRangeSpec::open(0), ByteRangeSpec::open(0),
                             ByteRangeSpec::open(0)}});
  probes.push_back({"bytes=1-,0-,0- (overlapping, start1>=1)",
                    RangeSet{ByteRangeSpec::open(1), ByteRangeSpec::open(0),
                             ByteRangeSpec::open(0)}});
  probes.push_back({"bytes=-1024,0-,0- (overlapping, suffix lead)",
                    RangeSet{ByteRangeSpec::suffix_of(1024), ByteRangeSpec::open(0),
                             ByteRangeSpec::open(0)}});
  return probes;
}

std::vector<ForwardObservation> scan_forwarding(Vendor vendor,
                                                const cdn::ProfileOptions& options,
                                                std::vector<std::uint64_t> file_sizes) {
  if (file_sizes.empty()) {
    file_sizes = {1u << 20, 9u * (1u << 20), 12u * (1u << 20), 20u * (1u << 20)};
  }
  std::vector<ForwardObservation> observations;
  for (const std::uint64_t size : file_sizes) {
    for (const ForwardProbe& probe : standard_forward_probes()) {
      SingleCdnTestbed bed(cdn::make_profile(vendor, options));
      bed.origin().resources().add_synthetic("/probe.bin", size);

      http::Request request =
          http::make_get(std::string{kDefaultHost}, "/probe.bin?scan=1");
      const std::string sent_value = probe.range.to_string();
      request.headers.add("Range", sent_value);

      ForwardObservation obs;
      obs.vendor = vendor;
      obs.probe_label = probe.label;
      obs.sent_range = sent_value;
      obs.file_size = size;

      bed.send(request);
      for (const auto& r : bed.origin().request_log()) {
        obs.first_request.forwarded.push_back(render_forwarded(r, sent_value));
      }
      const std::size_t after_first = bed.origin().request_log().size();

      bed.send(request);  // detect stateful vendors (KeyCDN)
      for (std::size_t i = after_first; i < bed.origin().request_log().size(); ++i) {
        obs.second_request.forwarded.push_back(
            render_forwarded(bed.origin().request_log()[i], sent_value));
      }

      obs.origin_response_bytes = bed.origin_traffic().response_bytes();
      obs.client_response_bytes = bed.client_traffic().response_bytes();
      // SBR-vulnerable: the origin shipped (at least) the whole entity while
      // the client received only a sliver.
      obs.sbr_vulnerable = obs.origin_response_bytes >= size &&
                           obs.client_response_bytes < size / 4;
      // OBR-FCDN-vulnerable: an overlapping multi-range set crossed the
      // upstream segment unchanged.
      if (probe.range.count() > 1) {
        const auto resolved = http::resolve_all(probe.range, size);
        if (http::any_overlap(resolved)) {
          for (const auto& f : obs.first_request.forwarded) {
            if (f == "Unchanged") obs.obr_forward_vulnerable = true;
          }
        }
      }
      observations.push_back(std::move(obs));
    }
  }
  return observations;
}

std::vector<CorpusScanRow> scan_corpus(Vendor vendor, std::uint64_t seed,
                                       std::size_t count, std::uint64_t file_size,
                                       const cdn::ProfileOptions& options) {
  static constexpr http::RangeShape kShapes[] = {
      http::RangeShape::kSingleClosed,  http::RangeShape::kSingleOpen,
      http::RangeShape::kSingleSuffix,  http::RangeShape::kTinyClosed,
      http::RangeShape::kMultiDisjoint, http::RangeShape::kMultiOverlapping,
      http::RangeShape::kManySmall,
  };
  std::vector<CorpusScanRow> rows;
  for (const auto shape : kShapes) rows.push_back({shape, 0, 0, 0, 0, 0});

  const auto corpus = http::generate_corpus(seed, count, file_size);
  std::uint64_t serial = 0;
  for (const auto& generated : corpus) {
    SingleCdnTestbed bed(cdn::make_profile(vendor, options));
    bed.origin().resources().add_synthetic("/corpus.bin", file_size);

    http::Request request = http::make_get(
        std::string{kDefaultHost}, "/corpus.bin?cb=" + std::to_string(++serial));
    const std::string sent_value = generated.set.to_string();
    request.headers.add("Range", sent_value);
    bed.send(request);

    CorpusScanRow* row = nullptr;
    for (auto& r : rows) {
      if (r.shape == generated.shape) row = &r;
    }
    ++row->total;
    const auto& log = bed.origin().request_log();
    if (log.size() > 1) ++row->multi_connection;
    bool lazy = false, deleted = false, expanded = false;
    for (const auto& origin_request : log) {
      const auto forwarded = render_forwarded(origin_request, sent_value);
      if (forwarded == "Unchanged") {
        lazy = true;
      } else if (forwarded == "None" || forwarded == "HEAD") {
        deleted = true;
      } else {
        expanded = true;
      }
    }
    if (lazy) ++row->lazy;
    if (deleted) ++row->deleted;
    if (expanded) ++row->expanded;
  }
  return rows;
}

ReplyObservation scan_replying(Vendor vendor, const cdn::ProfileOptions& options) {
  const auto honored_parts = [&](std::size_t n) -> std::size_t {
    // BCDN role: the attacker has disabled range support on the origin.
    SingleCdnTestbed bed(cdn::make_profile(vendor, options), obr_origin_config());
    bed.origin().resources().add_synthetic("/reply.bin", 1024);
    http::Request request =
        http::make_get(std::string{kDefaultHost}, "/reply.bin?scan=1");
    RangeSet set;
    set.push(ByteRangeSpec::open(0), n);
    request.headers.add("Range", set.to_string());
    const http::Response response = bed.send(request);
    if (response.status != http::kPartialContent) return 0;
    const auto ct = response.headers.get("Content-Type");
    if (!ct) return 0;
    const auto boundary = http::boundary_from_content_type(*ct);
    if (!boundary) return 1;  // single-part 206
    const auto parts =
        http::parse_multipart_byteranges(response.body.materialize(), *boundary);
    return parts ? parts->size() : 0;
  };

  ReplyObservation obs;
  obs.vendor = vendor;
  const std::size_t at5 = honored_parts(5);
  if (at5 == 5) {
    obs.obr_reply_vulnerable = true;
    // Find the honored cap by doubling then bisecting (bounded probe).
    std::size_t lo = 5, hi = 10;
    constexpr std::size_t kBound = 4096;
    while (hi <= kBound && honored_parts(hi) == hi) {
      lo = hi;
      hi *= 2;
    }
    if (hi > kBound) {
      obs.honored_cap = 0;  // unlimited within tested bound
      obs.response_format = "n-part response (overlapping)";
    } else {
      while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (honored_parts(mid) == mid) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      obs.honored_cap = lo;
      obs.response_format =
          "n-part response (overlapping), n <= " + std::to_string(lo);
    }
  } else if (at5 == 0) {
    obs.response_format = "range ignored or rejected";
  } else if (at5 == 1) {
    obs.response_format = "single part (coalesced or first range)";
  } else {
    obs.response_format = std::to_string(at5) + " parts (coalesced)";
  }
  return obs;
}

}  // namespace rangeamp::core
