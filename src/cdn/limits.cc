#include "cdn/limits.h"

namespace rangeamp::cdn {

std::optional<std::string> check_request_limits(const RequestHeaderLimits& limits,
                                                const http::Request& request) {
  if (limits.total_header_bytes &&
      request.headers.serialized_size() > *limits.total_header_bytes) {
    return "total request header size " +
           std::to_string(request.headers.serialized_size()) + " exceeds limit " +
           std::to_string(*limits.total_header_bytes);
  }
  if (limits.single_header_line_bytes) {
    for (const auto f : request.headers) {
      if (f.line_size() > *limits.single_header_line_bytes) {
        return "header '" + std::string{f.name} + "' line size " +
               std::to_string(f.line_size()) +
               " exceeds limit " + std::to_string(*limits.single_header_line_bytes);
      }
    }
  }
  if (limits.cloudflare_range_budget) {
    const auto range = request.headers.get("Range");
    if (range) {
      const std::size_t rl = request.request_line_size();
      const std::size_t hhl =
          6 + request.headers.get_or("Host", "").size();  // "Host: " + value
      const std::size_t rhl = 7 + range->size();          // "Range: " + value
      if (rl + 2 * hhl + rhl > *limits.cloudflare_range_budget) {
        return "RL + 2*HHL + RHL = " + std::to_string(rl + 2 * hhl + rhl) +
               " exceeds budget " + std::to_string(*limits.cloudflare_range_budget);
      }
    }
  }
  return std::nullopt;
}

std::string_view forward_policy_name(ForwardPolicy p) noexcept {
  switch (p) {
    case ForwardPolicy::kLaziness: return "Laziness";
    case ForwardPolicy::kDeletion: return "Deletion";
    case ForwardPolicy::kExpansion: return "Expansion";
  }
  return "?";
}

std::string_view reply_policy_name(MultiRangeReplyPolicy p) noexcept {
  switch (p) {
    case MultiRangeReplyPolicy::kHonorOverlapping: return "n-part (overlapping honored)";
    case MultiRangeReplyPolicy::kCoalesce: return "coalesced";
    case MultiRangeReplyPolicy::kRejectOverlapping416:
      return "overlapping rejected (416)";
    case MultiRangeReplyPolicy::kFirstRangeOnly: return "first range only";
    case MultiRangeReplyPolicy::kIgnoreRange: return "range ignored (200)";
    case MultiRangeReplyPolicy::kReject416: return "rejected (416)";
  }
  return "?";
}

std::string_view degradation_policy_name(DegradationPolicy p) noexcept {
  switch (p) {
    case DegradationPolicy::kSynthesizeError: return "synthesize-error";
    case DegradationPolicy::kServeStale: return "serve-stale";
    case DegradationPolicy::kNegativeCache: return "negative-cache";
  }
  return "?";
}

std::string_view conformance_mode_name(ConformanceMode m) noexcept {
  switch (m) {
    case ConformanceMode::kOff: return "off";
    case ConformanceMode::kLenient: return "lenient";
    case ConformanceMode::kStrict: return "strict";
  }
  return "?";
}

}  // namespace rangeamp::cdn
