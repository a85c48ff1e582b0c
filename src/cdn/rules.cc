#include "cdn/rules.h"

#include <charconv>
#include <cstdlib>

#include "cdn/logic.h"

namespace rangeamp::cdn {

using http::RangeSet;
using http::Request;
using http::Response;

namespace {

RuleShape classify(const RangeSet& range) {
  if (range.count() > 1) return RuleShape::kMulti;
  const auto& spec = range.front();
  if (spec.is_suffix()) return RuleShape::kSingleSuffix;
  if (spec.is_open()) return RuleShape::kSingleOpen;
  return RuleShape::kSingleClosed;
}

std::optional<std::uint64_t> first_position(const RangeSet& range) {
  const auto& spec = range.front();
  if (spec.is_suffix()) return std::nullopt;
  return spec.first();
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t v = 0;
  if (s.empty()) return std::nullopt;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

std::optional<double> parse_seconds(std::string_view s) {
  if (s.empty()) return std::nullopt;
  const std::string copy{s};
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || v < 0) return std::nullopt;
  return v;
}

}  // namespace

Response RuleBasedLogic::on_miss(CdnNode& node, const Request& request,
                                 const std::optional<RangeSet>& range) {
  if (!range) return deletion_miss(node, request, range);

  const RuleShape shape = classify(*range);
  const auto first = first_position(*range);

  // The resource size is learned lazily, with a HEAD probe, the first time a
  // size-conditioned rule actually becomes a candidate -- requests whose
  // shape never reaches such a rule must not cost an extra origin exchange.
  std::optional<std::uint64_t> size;
  bool size_probed = false;

  for (const PolicyRule& rule : rules_) {
    if (rule.shape != RuleShape::kAny && rule.shape != shape) continue;
    if (rule.first_below && (!first || *first >= *rule.first_below)) continue;
    if (rule.first_at_least && (!first || *first < *rule.first_at_least)) continue;
    if (rule.needs_size() && !size_probed) {
      FetchResult head =
          node.fetch_result(request, std::nullopt, {}, http::Method::HEAD);
      // Without the probe no size-conditioned rule can be decided safely;
      // the vendor's degradation policy answers instead.
      if (!head.ok()) return node.degrade(request, range, head);
      size = parse_u64(head.response.headers.get_or("Content-Length", ""));
      size_probed = true;
    }
    if (rule.size_below && (!size || *size >= *rule.size_below)) continue;
    if (rule.size_at_least && (!size || *size < *rule.size_at_least)) continue;

    switch (rule.action.kind) {
      case RuleAction::Kind::kLazy:
        return laziness_miss(node, request, range);
      case RuleAction::Kind::kDelete:
        return deletion_miss(node, request, range);
      case RuleAction::Kind::kExpand: {
        BoundedExpansionLogic expand(rule.action.parameter);
        return expand.on_miss(node, request, range);
      }
      case RuleAction::Kind::kSlice: {
        SliceLogic slice(rule.action.parameter);
        return slice.on_miss(node, request, range);
      }
    }
  }
  return laziness_miss(node, request, range);
}

std::optional<VendorProfile> parse_profile_spec(std::string_view text,
                                                std::string* error) {
  const auto fail = [&](std::size_t line_no, const std::string& what) {
    if (error) *error = "line " + std::to_string(line_no) + ": " + what;
    return std::nullopt;
  };

  VendorProfile profile;
  profile.traits.name = "custom";
  std::vector<PolicyRule> rules;

  std::size_t line_no = 0;
  std::size_t cursor = 0;
  while (cursor <= text.size()) {
    const auto eol = text.find('\n', cursor);
    std::string_view line = text.substr(
        cursor, eol == std::string_view::npos ? std::string_view::npos
                                              : eol - cursor);
    cursor = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    line = trim(line);
    if (line.empty() || line.front() == '#') continue;

    const auto colon = line.find(':');
    if (colon == std::string_view::npos) return fail(line_no, "missing ':'");
    const std::string_view key = trim(line.substr(0, colon));
    const std::string_view value = trim(line.substr(colon + 1));

    if (key == "name") {
      profile.traits.name = std::string{value};
    } else if (key == "limit.total_header_bytes") {
      const auto v = parse_u64(value);
      if (!v) return fail(line_no, "bad number");
      profile.traits.limits.total_header_bytes = static_cast<std::size_t>(*v);
    } else if (key == "limit.single_header_line_bytes") {
      const auto v = parse_u64(value);
      if (!v) return fail(line_no, "bad number");
      profile.traits.limits.single_header_line_bytes =
          static_cast<std::size_t>(*v);
    } else if (key == "limit.cloudflare_range_budget") {
      const auto v = parse_u64(value);
      if (!v) return fail(line_no, "bad number");
      profile.traits.limits.cloudflare_range_budget =
          static_cast<std::size_t>(*v);
    } else if (key == "limit.max_range_count") {
      const auto v = parse_u64(value);
      if (!v) return fail(line_no, "bad number");
      profile.traits.ingress_max_range_count = static_cast<std::size_t>(*v);
    } else if (key == "reply") {
      if (value == "honor") {
        profile.traits.multi_reply = MultiRangeReplyPolicy::kHonorOverlapping;
      } else if (value == "coalesce") {
        profile.traits.multi_reply = MultiRangeReplyPolicy::kCoalesce;
      } else if (value == "first") {
        profile.traits.multi_reply = MultiRangeReplyPolicy::kFirstRangeOnly;
      } else if (value == "ignore") {
        profile.traits.multi_reply = MultiRangeReplyPolicy::kIgnoreRange;
      } else if (value == "reject") {
        profile.traits.multi_reply = MultiRangeReplyPolicy::kReject416;
      } else if (value == "reject-overlap") {
        profile.traits.multi_reply = MultiRangeReplyPolicy::kRejectOverlapping416;
      } else {
        return fail(line_no, "unknown reply policy '" + std::string{value} + "'");
      }
    } else if (key == "reply.max_ranges") {
      const auto v = parse_u64(value);
      if (!v) return fail(line_no, "bad number");
      profile.traits.multi_reply_max_ranges = static_cast<std::size_t>(*v);
    } else if (key == "cache") {
      if (value == "on") {
        profile.traits.cache_enabled = true;
      } else if (value == "off") {
        profile.traits.cache_enabled = false;
      } else {
        return fail(line_no, "cache must be on|off");
      }
    } else if (key == "resilience.retries") {
      const auto v = parse_u64(value);
      if (!v) return fail(line_no, "bad number");
      profile.traits.resilience.max_retries = static_cast<int>(*v);
    } else if (key == "resilience.timeout_seconds") {
      const auto v = parse_seconds(value);
      if (!v) return fail(line_no, "bad number");
      profile.traits.resilience.attempt_timeout_seconds = *v;
    } else if (key == "resilience.backoff_initial_seconds") {
      const auto v = parse_seconds(value);
      if (!v) return fail(line_no, "bad number");
      profile.traits.resilience.backoff_initial_seconds = *v;
    } else if (key == "resilience.degrade") {
      if (value == "error") {
        profile.traits.resilience.degradation = DegradationPolicy::kSynthesizeError;
      } else if (value == "serve-stale") {
        profile.traits.resilience.degradation = DegradationPolicy::kServeStale;
      } else if (value == "negative-cache") {
        profile.traits.resilience.degradation = DegradationPolicy::kNegativeCache;
      } else {
        return fail(line_no, "degrade must be error|serve-stale|negative-cache");
      }
    } else if (key == "response_target_bytes") {
      const auto v = parse_u64(value);
      if (!v) return fail(line_no, "bad number");
      profile.traits.client_response_target_bytes = static_cast<std::size_t>(*v);
    } else if (key == "rule") {
      // "<shape> [if <cond>[,<cond>...]] -> <action>[:<param>]"
      PolicyRule rule;
      const auto arrow = value.find("->");
      if (arrow == std::string_view::npos) return fail(line_no, "rule needs '->'");
      std::string_view lhs = trim(value.substr(0, arrow));
      const std::string_view rhs = trim(value.substr(arrow + 2));

      std::string_view shape_token = lhs;
      std::string_view conditions;
      if (const auto if_pos = lhs.find(" if "); if_pos != std::string_view::npos) {
        shape_token = trim(lhs.substr(0, if_pos));
        conditions = trim(lhs.substr(if_pos + 4));
      }
      if (shape_token == "single-closed") {
        rule.shape = RuleShape::kSingleClosed;
      } else if (shape_token == "single-open") {
        rule.shape = RuleShape::kSingleOpen;
      } else if (shape_token == "single-suffix") {
        rule.shape = RuleShape::kSingleSuffix;
      } else if (shape_token == "multi") {
        rule.shape = RuleShape::kMulti;
      } else if (shape_token == "default" || shape_token == "any") {
        rule.shape = RuleShape::kAny;
      } else {
        return fail(line_no, "unknown shape '" + std::string{shape_token} + "'");
      }

      std::size_t cpos = 0;
      while (cpos < conditions.size()) {
        auto comma = conditions.find(',', cpos);
        if (comma == std::string_view::npos) comma = conditions.size();
        const std::string_view cond = trim(conditions.substr(cpos, comma - cpos));
        cpos = comma + 1;
        if (cond.empty()) continue;
        const auto parse_cond = [&](std::string_view prefix)
            -> std::optional<std::uint64_t> {
          if (!cond.starts_with(prefix)) return std::nullopt;
          return parse_u64(trim(cond.substr(prefix.size())));
        };
        if (const auto v = parse_cond("first<")) {
          rule.first_below = v;
        } else if (const auto v2 = parse_cond("first>=")) {
          rule.first_at_least = v2;
        } else if (const auto v3 = parse_cond("size<")) {
          rule.size_below = v3;
        } else if (const auto v4 = parse_cond("size>=")) {
          rule.size_at_least = v4;
        } else {
          return fail(line_no, "unknown condition '" + std::string{cond} + "'");
        }
      }

      std::string_view action_token = rhs;
      std::uint64_t parameter = 0;
      if (const auto sep = rhs.find(':'); sep != std::string_view::npos) {
        action_token = trim(rhs.substr(0, sep));
        const auto v = parse_u64(trim(rhs.substr(sep + 1)));
        if (!v) return fail(line_no, "bad action parameter");
        parameter = *v;
      }
      if (action_token == "lazy") {
        rule.action = {RuleAction::Kind::kLazy, 0};
      } else if (action_token == "delete") {
        rule.action = {RuleAction::Kind::kDelete, 0};
      } else if (action_token == "expand") {
        rule.action = {RuleAction::Kind::kExpand,
                       parameter ? parameter : 8 * 1024};
      } else if (action_token == "slice") {
        rule.action = {RuleAction::Kind::kSlice,
                       parameter ? parameter : 1u << 20};
      } else {
        return fail(line_no, "unknown action '" + std::string{action_token} + "'");
      }
      rules.push_back(rule);
    } else {
      return fail(line_no, "unknown key '" + std::string{key} + "'");
    }
  }

  profile.traits.response_identity_headers = {
      {"Server", profile.traits.name}};
  if (profile.traits.client_response_target_bytes != 0) {
    profile.traits.response_pad_bytes = calibrate_response_pad(profile.traits);
  }
  profile.logic = std::make_unique<RuleBasedLogic>(std::move(rules));
  return profile;
}

}  // namespace rangeamp::cdn
