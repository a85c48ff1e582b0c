#include "core/autoplan.h"

#include "core/testbed.h"

namespace rangeamp::core {

using http::ByteRangeSpec;
using http::RangeSet;

namespace {

std::vector<SbrPlan> candidate_plans(std::uint64_t file_size) {
  std::vector<SbrPlan> plans;
  plans.push_back({"bytes=0-0", RangeSet{ByteRangeSpec::closed(0, 0)}, 1});
  plans.push_back({"bytes=-1", RangeSet{ByteRangeSpec::suffix_of(1)}, 1});
  plans.push_back({"bytes=0-", RangeSet{ByteRangeSpec::open(0)}, 1});
  // The stateful probe: the same tiny range sent twice (KeyCDN's pattern).
  plans.push_back({"bytes=0-0 & bytes=0-0", RangeSet{ByteRangeSpec::closed(0, 0)}, 2});
  if (file_size > 8'388'608) {
    // Azure's second-window case.
    plans.push_back({"bytes=8388608-8388608",
                     RangeSet{ByteRangeSpec::closed(8'388'608, 8'388'608)}, 1});
  }
  // CloudFront's expansion-stretching multi case.
  plans.push_back({"bytes=0-0,9437184-9437184",
                   RangeSet{ByteRangeSpec::closed(0, 0),
                            ByteRangeSpec::closed(9'437'184, 9'437'184)},
                   1});
  // A mid-file tiny range (catches prefix-window behaviours).
  if (file_size > 2) {
    plans.push_back({"bytes=mid-mid",
                     RangeSet{ByteRangeSpec::closed(file_size / 2, file_size / 2)},
                     1});
  }
  return plans;
}

}  // namespace

AutoPlanResult autoplan_sbr(const std::function<cdn::VendorProfile()>& factory,
                            std::uint64_t file_size) {
  AutoPlanResult result;
  for (const SbrPlan& plan : candidate_plans(file_size)) {
    SingleCdnTestbed bed(factory());
    bed.origin().resources().add_synthetic("/probe.bin", file_size);
    http::Request request =
        http::make_get(std::string{kDefaultHost}, "/probe.bin?auto=1");
    request.headers.add("Range", plan.range.to_string());
    for (int s = 0; s < plan.sends; ++s) bed.send(request);

    CandidateResult candidate;
    candidate.plan = plan;
    candidate.origin_response_bytes = bed.origin_traffic().response_bytes();
    candidate.client_response_bytes = bed.client_traffic().response_bytes();
    candidate.amplification =
        candidate.client_response_bytes == 0
            ? 0
            : static_cast<double>(candidate.origin_response_bytes) /
                  static_cast<double>(candidate.client_response_bytes);
    if (candidate.amplification > result.amplification) {
      result.amplification = candidate.amplification;
      result.best = plan;
    }
    result.candidates.push_back(std::move(candidate));
  }
  return result;
}

AutoPlanResult autoplan_sbr(cdn::Vendor vendor, std::uint64_t file_size,
                            const cdn::ProfileOptions& options) {
  return autoplan_sbr([&] { return cdn::make_profile(vendor, options); },
                      file_size);
}

}  // namespace rangeamp::core
