#include "cdn/node.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <charconv>
#include <cstdio>
#include <span>

#include "cdn/limits.h"
#include "http/chunked.h"
#include "http/multipart.h"
#include "http/serialize.h"

namespace rangeamp::cdn {

using http::Body;
using http::Headers;
using http::RangeSet;
using http::Request;
using http::ResolvedRange;
using http::Response;

namespace {

constexpr std::string_view kHopByHop[] = {
    "Connection", "Keep-Alive", "TE", "Trailer", "Transfer-Encoding",
    "Upgrade",    "Proxy-Authorization", "Proxy-Connection",
};

bool is_hop_by_hop(std::string_view name) {
  return std::any_of(std::begin(kHopByHop), std::end(kHopByHop),
                     [&](std::string_view h) { return http::iequals(h, name); });
}

// Writes `serial` over out[0, 16) as zero-padded lowercase hex (the
// "%016llx" form).
void write_serial(char* out, std::uint64_t serial) {
  char digits[16];
  char* end = std::to_chars(digits, digits + 16, serial, 16).ptr;
  const std::ptrdiff_t zeros = 16 - (end - digits);
  std::fill(out, out + zeros, '0');
  std::copy(digits, end, out + zeros);
}

// Appends "Via: 1.1 <node_id>" (RFC 7230 section 5.7.1), written in place.
void add_via(Headers& headers, std::string_view node_id) {
  constexpr std::string_view kProtocol = "1.1 ";
  char* value = headers.add_value("Via", kProtocol.size() + node_id.size());
  std::copy(node_id.begin(), node_id.end(),
            std::copy(kProtocol.begin(), kProtocol.end(), value));
}

// Builds a vendor-styled response: status line, Date, identity headers,
// content headers, Accept-Ranges and the calibration pad.  Shared between
// CdnNode and calibrate_response_pad() so calibration measures exactly what
// the node emits.  A pad of 16 bytes or more opens with `serial`.  The
// block is sized before its first field, so it costs one allocation.
Response styled_response(const VendorTraits& traits, int status,
                         std::span<const http::HeaderField> content, Body body,
                         std::uint64_t serial) {
  // RFC 7230 section 5.7.1: intermediaries append themselves on responses
  // too.  The line is serialized like any other header, so it participates
  // in every segment's byte accounting.
  const bool via = traits.emit_via && !traits.node_id.empty();
  const std::size_t pad = traits.response_pad_bytes;
  std::size_t bytes = Headers::field_bytes("Date", traits.date.size()) +
                      traits.response_identity_headers.serialized_size() +
                      Headers::field_bytes("Accept-Ranges", 5);
  if (via) bytes += Headers::field_bytes("Via", 4 + traits.node_id.size());
  for (const auto& f : content) bytes += Headers::field_bytes(f.name, f.value.size());
  if (pad > 0) bytes += Headers::field_bytes(kPadHeaderName, pad);

  Response resp;
  resp.status = status;
  resp.headers.reserve(bytes);
  resp.headers.add("Date", traits.date);
  resp.headers.append(traits.response_identity_headers);
  if (via) add_via(resp.headers, traits.node_id);
  for (const auto& f : content) resp.headers.add(f.name, f.value);
  resp.headers.add("Accept-Ranges", "bytes");
  if (pad > 0) {
    char* value = resp.headers.add_value(kPadHeaderName, pad);
    std::fill_n(value, pad, 'x');
    if (pad >= 16) write_serial(value, serial);
  }
  resp.body = std::move(body);
  return resp;
}

// The content fields of a served representation, in wire order: the
// validators it has, Content-Length, Content-Range (for a single range) and
// Content-Type.  The fields view their arguments, and the two numbers are
// spelled into the object, so it is built where it is used.
class ContentFields {
 public:
  ContentFields(std::string_view last_modified, std::string_view etag,
                std::uint64_t length, std::string_view content_type,
                const ResolvedRange* range = nullptr, std::uint64_t total = 0) {
    if (!last_modified.empty()) fields_[count_++] = {"Last-Modified", last_modified};
    if (!etag.empty()) fields_[count_++] = {"ETag", etag};
    const char* end = std::to_chars(length_, length_ + sizeof length_, length).ptr;
    fields_[count_++] = {"Content-Length", {length_, end}};
    if (range != nullptr) {
      end = http::write_content_range(range_, *range, total);
      fields_[count_++] = {"Content-Range", {range_, end}};
    }
    fields_[count_++] = {"Content-Type", content_type};
  }
  ContentFields(const ContentFields&) = delete;
  ContentFields& operator=(const ContentFields&) = delete;

  operator std::span<const http::HeaderField>() const noexcept {
    return {fields_.data(), count_};
  }

 private:
  std::array<http::HeaderField, 5> fields_;
  std::size_t count_ = 0;
  char length_[20];
  char range_[http::kContentRangeMaxBytes];
};

}  // namespace

namespace {

// h2 framing is a property of the segment, not a factory backend (the
// net layer cannot depend on http2), so the node selects it here; the
// HTTP/1.1 backends go through net::make_transport.
std::unique_ptr<net::Transport> make_upstream_transport(
    SegmentFraming framing, const net::TransportSpec& spec,
    net::TrafficRecorder& recorder, net::HttpHandler& upstream) {
  if (framing == SegmentFraming::kHttp2) {
    return std::make_unique<http2::Http2Wire>(recorder, upstream);
  }
  return net::make_transport(spec, recorder, upstream);
}

}  // namespace

CdnNode::CdnNode(VendorProfile profile, net::HttpHandler& upstream,
                 std::string upstream_segment, SegmentFraming upstream_framing,
                 const net::TransportSpec& upstream_transport)
    : traits_(std::move(profile.traits)),
      logic_(std::move(profile.logic)),
      upstream_traffic_(std::move(upstream_segment)),
      upstream_(make_upstream_transport(upstream_framing, upstream_transport,
                                        upstream_traffic_, upstream)),
      cache_(traits_.cache),
      loop_token_(traits_.shield.loop.token.empty()
                      ? default_cdn_loop_token(traits_.name)
                      : traits_.shield.loop.token),
      breaker_(traits_.shield.breaker),
      fills_(traits_.shield.coalescing),
      overload_(traits_.overload) {
  if (traits_.node_id.empty()) traits_.node_id = loop_token_;
  if (traits_.detection.enabled) {
    detection_ = std::make_unique<NodeDetection>(traits_.detection, 0);
  }
}

std::optional<Response> CdnNode::check_cdn_loop(const Request& request) {
  const LoopDefensePolicy& loop = traits_.shield.loop;
  if (!loop.enabled) return std::nullopt;

  std::vector<CdnLoopEntry> entries;
  for (const std::string_view value : request.headers.get_all("CDN-Loop")) {
    auto parsed = parse_cdn_loop(value);
    if (!parsed) {
      // A value we cannot lex cannot be checked for recurrence; failing
      // closed is the only safe option for a loop defense.
      ++shield_stats_.loop_rejected;
      return error(http::kBadRequest, "malformed CDN-Loop header");
    }
    entries.insert(entries.end(), parsed->begin(), parsed->end());
  }
  if (cdn_loop_contains(entries, loop_token_)) {
    ++shield_stats_.loop_rejected;
    return error(http::kLoopDetected,
                 "loop detected: " + loop_token_ + " already forwarded this");
  }
  if (loop.max_hops != 0 && entries.size() >= loop.max_hops) {
    ++shield_stats_.hop_cap_rejected;
    return error(http::kLoopDetected,
                 "CDN-Loop hop cap exceeded (" +
                     std::to_string(entries.size()) + " >= " +
                     std::to_string(loop.max_hops) + ")");
  }
  return std::nullopt;
}

Response CdnNode::handle(const Request& request) {
  obs::SpanScope span(tracer_, "cdn.handle");
  if (span) {
    span.note("vendor", traits_.name);
    span.note("node", traits_.node_id);
  }
  if (m_requests_) m_requests_->inc();
  // Inline detection measures the back-to-origin bytes this exchange causes
  // (the recorder delta around it) and feeds the per-client detector
  // afterwards, with the Range the exchange parsed.
  const net::TrafficTotals origin_before =
      detection_ ? upstream_traffic_.totals() : net::TrafficTotals{};
  std::optional<Response> rejected = check_ingress(request, span);
  // The Range is parsed once, past the protocol rejections; the detector
  // still sees it on those.
  std::optional<RangeSet> range;
  if (!rejected || detection_) {
    if (const auto value = request.headers.get("Range")) {
      range = http::parse_range_header(*value);  // malformed -> ignored
    }
  }
  Response response =
      rejected ? std::move(*rejected) : handle_request(request, range, span);
  if (detection_) {
    net::TrafficTotals origin_delta = upstream_traffic_.totals();
    origin_delta.request_bytes -= origin_before.request_bytes;
    origin_delta.response_bytes -= origin_before.response_bytes;
    feed_detection(request, range, response, origin_delta, span);
  }
  sync_cache_stats(span);
  span.set_status(response.status);
  return response;
}

void CdnNode::sync_cache_stats(obs::SpanScope& span) {
  if (!metrics_ && !span) return;
  const Cache::Stats st = cache_.stats();
  // cache_.clear() resets the engine's monotonic counters; restart the
  // deltas instead of underflowing (the Prometheus counters stay monotonic).
  if (st.evictions < cache_evictions_seen_) cache_evictions_seen_ = 0;
  if (st.admission_rejects < cache_rejects_seen_) cache_rejects_seen_ = 0;
  const std::uint64_t ev_delta = st.evictions - cache_evictions_seen_;
  const std::uint64_t rej_delta = st.admission_rejects - cache_rejects_seen_;
  cache_evictions_seen_ = st.evictions;
  cache_rejects_seen_ = st.admission_rejects;
  if (span && ev_delta != 0) {
    span.note("cache_evictions", std::to_string(ev_delta));
  }
  if (span && rej_delta != 0) {
    span.note("cache_admission_rejects", std::to_string(rej_delta));
  }
  if (!metrics_) return;
  if (ev_delta != 0) m_cache_evictions_->inc(ev_delta);
  if (rej_delta != 0) m_cache_rejects_->inc(rej_delta);
  // The gauge is shared across this vendor's nodes, so report the *change*
  // in this node's resident bytes: the gauge then reads the deployment-wide
  // total (and per-shard registries merge additively, see metrics.h).
  const double bytes_delta =
      static_cast<double>(st.bytes) - cache_bytes_reported_;
  if (bytes_delta != 0) m_cache_bytes_->add(bytes_delta);
  cache_bytes_reported_ = static_cast<double>(st.bytes);
}

std::optional<Response> CdnNode::check_ingress(const Request& request,
                                               obs::SpanScope& span) {
  if (const auto violation = check_request_limits(traits_.limits, request)) {
    span.note("verdict", "header-limits");
    return error(http::kRequestHeaderFieldsTooLarge, *violation);
  }
  if (auto rejected = check_cdn_loop(request)) {
    span.note("verdict", "loop-rejected");
    if (m_loop_rejected_) m_loop_rejected_->inc();
    return rejected;
  }
  if (auto rejected = check_deadline_ingress(request, span)) {
    span.note("verdict", "deadline-expired");
    return rejected;
  }
  return std::nullopt;
}

Response CdnNode::handle_request(const Request& request,
                                 const std::optional<RangeSet>& range,
                                 obs::SpanScope& span) {
  if (range && traits_.ingress_max_range_count != 0 &&
      range->count() > traits_.ingress_max_range_count) {
    return error(http::kBadRequest,
                 "Range header carries too many ranges (guard: " +
                     std::to_string(traits_.ingress_max_range_count) + ")");
  }

  // RFC 9112 section 3.2 gives the request-target no fragment, and RFC
  // 3986's reg-name has no '#'.  The node keeps its own entries under
  // '#'-suffixed keys (docs/cache-model.md), so a target or Host that could
  // spell one would alias them.
  if (request.target.find('#') != std::string::npos ||
      request.headers.get_or("Host", "").find('#') != std::string_view::npos) {
    return error(http::kBadRequest, "'#' in request target or Host");
  }

  // Quarantine sits below the protocol rejections (431/508/400) and the
  // deadline ingress check (which must run unconditionally to reset
  // per-exchange state), and above everything that costs work: cache
  // lookups, coalescing, overload admission, the vendor miss path.
  if (detection_ && traits_.detection.quarantine_enabled) {
    if (auto rejected = check_quarantine(request, range, span)) {
      return std::move(*rejected);
    }
  }

  if (traits_.cache_enabled) {
    std::string key = resolve_cache_key(request);
    if (const CachedEntity* hit = cache_.find(key)) {
      const double now = clock_ ? clock_() : 0.0;
      if (hit->fresh_at(now)) {
        span.note("cache", "hit");
        if (m_cache_hits_) m_cache_hits_->inc();
        return respond_entity(*hit, range);
      }
      // Stale under overload pressure: skip the conditional GET entirely --
      // the stale copy absorbs the request at zero upstream cost
      // (stale-while-revalidate collapsed onto the overload manager).
      if (traits_.overload.watermarks.enabled &&
          overload_.admit(sim_now()) != OverloadVerdict::kAdmit) {
        ++overload_stats_.degraded;
        ++overload_stats_.stale_under_pressure;
        span.note("overload", "serve-stale");
        if (m_overload_degraded_) m_overload_degraded_->inc();
        Response resp = respond_entity(*hit, range);
        resp.headers.add("Warning", "110 - \"Response is Stale\"");
        return resp;
      }
      // Stale: revalidate with a conditional GET instead of a refetch.
      // (Key differs from the terminal "cache" verdict: a failed revalidation
      // falls through to the miss path, and note keys must stay unique.)
      span.note("revalidate", "stale");
      http::Request conditional = request;
      conditional.headers.set("If-None-Match", hit->etag);
      FetchResult check = fetch_result(conditional, std::nullopt);
      if (check.shed == ShedCause::kDeadline || check.deadline_expired) {
        // Deadline outranks serve-stale: past the client-facing deadline
        // even the stale copy is useless work (see degrade()).
        span.note("degrade", "deadline-504");
        return degrade(request, range, check);
      }
      if (!check.ok() &&
          traits_.resilience.degradation == DegradationPolicy::kServeStale) {
        // Stale-if-error: the revalidation failed, the stale copy absorbs it.
        span.note("degrade", "serve-stale");
        Response resp = respond_entity(*hit, range);
        resp.headers.add("Warning", "111 - \"Revalidation Failed\"");
        return resp;
      }
      if (check.ok()) {
        if (check.response.status == 304) {
          // Build the reply before touching: a purge-on-touch (stale entry
          // whose new horizon is not in the future) frees the slot `hit`
          // points into.
          Response resp = respond_entity(*hit, range);
          cache_.touch(key, now + traits_.cache_ttl_seconds, now);
          return resp;
        }
        if (auto entity = entity_from_response(check.response)) {
          store(request, *entity);
          return respond_entity(*entity, range);
        }
      }
      // Revalidation failed outright: fall through to the vendor's miss path.
    }
    key.append("#neg");  // the key's last use
    if (const CachedEntity* negative = cache_.find(key)) {
      const double now = clock_ ? clock_() : 0.0;
      if (negative->fresh_at(now)) {
        span.note("cache", "negative-hit");
        return error(http::kBadGateway, "negative-cached upstream failure");
      }
    }
  }

  // Request coalescing: a miss whose (key, Range) pair matches a fill still
  // inside its lock window replays the leader's response instead of running
  // the vendor miss path -- N concurrent cache-busting misses collapse into
  // one origin fetch (proxy_cache_lock / Varnish request collapsing).
  span.note("cache", "miss");
  if (m_cache_misses_) m_cache_misses_->inc();
  if (traits_.shield.coalescing.enabled) {
    const double now = sim_now();
    std::string fill_key = resolve_cache_key(request);
    fill_key.push_back('\x1f');
    fill_key.append(request.headers.get_or("Range", ""));
    // A held fill outranks overload shedding: replaying the leader's
    // response costs the origin nothing, so shedding it would only hurt
    // availability (same argument as serve-stale vs the open breaker).
    if (const Response* held = fills_.find(fill_key, now)) {
      ++shield_stats_.coalesced_hits;
      span.note("fill_lock", "coalesced-hit");
      if (m_coalesced_hits_) m_coalesced_hits_->inc();
      return *held;
    }
    if (auto refused = check_overload(request, range, span)) {
      return std::move(*refused);
    }
    ++shield_stats_.fill_fetches;
    span.note("fill_lock", "leader");
    Response filled = logic_->on_miss(*this, request, range);
    fills_.record(std::move(fill_key), filled, now);
    return filled;
  }
  if (auto refused = check_overload(request, range, span)) {
    return std::move(*refused);
  }
  return logic_->on_miss(*this, request, range);
}

std::optional<Response> CdnNode::check_quarantine(
    const Request& request, const std::optional<RangeSet>& range,
    obs::SpanScope& span) {
  const double now = sim_now();
  const std::string client_key{request.headers.get_or(kClientKeyHeader, "")};
  const std::string base_key = detection_base_key(request);
  const core::RangeClass shape = core::classify_range(range);
  const NodeDetection::Match verdict =
      detection_->match(client_key, base_key, shape, now);
  if (verdict == NodeDetection::Match::kNone) return std::nullopt;
  if (verdict == NodeDetection::Match::kClient) {
    // The attack is demonstrably still live; without this refresh the
    // signature would expire under the quarantine (quarantined requests
    // never reach the detectors) and the cluster would oscillate between
    // quarantining and re-detecting the same client.
    detection_->refresh_client(client_key, now);
  }
  span.note("verdict", verdict == NodeDetection::Match::kClient
                           ? "quarantine-client"
                           : "quarantine-pattern");
  if (m_quarantined_) m_quarantined_->inc();
  Response resp =
      error(http::kTooManyRequests,
            verdict == NodeDetection::Match::kClient
                ? "request quarantined: client matches an active RangeAmp "
                  "attack signature"
                : "request quarantined: target/shape matches an active "
                  "RangeAmp attack signature");
  char value[32];
  std::snprintf(value, sizeof(value), "%.0f",
                traits_.detection.quarantine_retry_after_seconds);
  resp.headers.add("Retry-After", value);
  return resp;
}

void CdnNode::feed_detection(const Request& request,
                             const std::optional<RangeSet>& range,
                             const Response& response,
                             const net::TrafficTotals& origin_delta,
                             obs::SpanScope& span) {
  // A quarantine 429 is the detector's own output, not evidence: the
  // stream behind it carries no origin traffic and would read as clean,
  // decaying the very alarm that blocks it.
  if (response.status == http::kTooManyRequests) return;
  net::TrafficTotals client_delta;
  client_delta.request_bytes = http::serialized_size(request);
  client_delta.response_bytes = http::serialized_size(response);
  const std::uint64_t resource = resource_bytes_from_response(response);
  const double now = sim_now();
  const core::DetectorSample sample = core::make_detector_sample(
      core::selected_bytes_of(range, resource), resource, client_delta,
      origin_delta, std::string{request.headers.get_or(kClientKeyHeader, "")},
      detection_base_key(request), core::classify_range(range));
  const std::uint64_t alarms_before = detection_->stats().alarms;
  const AttackSignature* fresh = detection_->observe(sample, now);
  if (detection_->stats().alarms != alarms_before) {
    span.note("detect", "alarm");
    if (m_detect_alarms_) m_detect_alarms_->inc();
  }
  if (fresh != nullptr && gossip_ != nullptr) {
    gossip_->note_fresh_signature(*fresh, now);
  }
}

std::optional<Response> CdnNode::check_deadline_ingress(const Request& request,
                                                        obs::SpanScope& span) {
  // Per-exchange state reset happens here, knobs on or off -- a node is
  // reused across requests and stale budgets must never leak.
  deadline_remaining_.reset();
  incoming_attempt_count_ = 1;

  const RetryBudgetPolicy& rb = traits_.overload.retry_budget;
  if (const auto value = request.headers.get(kAttemptCountHeader)) {
    if (const auto count = parse_attempt_count(*value)) {
      incoming_attempt_count_ = *count;
      if (rb.enabled && rb.count_chain_attempts && *count > 1) {
        // An upstream hop is retrying through us: charge its retry against
        // our budget so a chain cannot multiply attempts geometrically.
        overload_.note_chain_attempt(sim_now());
        ++overload_stats_.chain_attempts;
        span.note("chain_attempt", std::to_string(*count));
      }
    }
  }

  const DeadlinePolicy& dp = traits_.overload.deadline;
  if (!dp.enabled) return std::nullopt;
  double budget = dp.default_budget_seconds;
  if (const auto value = request.headers.get(kDeadlineBudgetHeader)) {
    if (const auto parsed = parse_deadline_budget(*value)) budget = *parsed;
    // An unparseable value falls back to the default: the header is
    // internal, and failing open here only loses an optimization.
  }
  deadline_remaining_ = budget;
  if (budget < dp.per_hop_min_seconds) {
    ++overload_stats_.deadline_rejected_ingress;
    if (m_deadline_expired_) m_deadline_expired_->inc();
    span.note("deadline", "expired-at-ingress");
    return deadline_response("at ingress");
  }
  return std::nullopt;
}

std::optional<Response> CdnNode::check_overload(
    const Request& request, const std::optional<RangeSet>& range,
    obs::SpanScope& span) {
  const WatermarkPolicy& wp = traits_.overload.watermarks;
  if (!wp.enabled) return std::nullopt;
  const double now = sim_now();
  const OverloadVerdict verdict = overload_.admit(now);
  if (verdict == OverloadVerdict::kAdmit) {
    ++overload_stats_.admitted;
    overload_.note_queued(now);
    return std::nullopt;
  }
  span.note("overload", std::string{overload_verdict_name(verdict)});
  span.note("pressure",
            std::string{pressure_dim_name(overload_.last_pressure_dim())});
  if (verdict == OverloadVerdict::kDegrade) {
    ++overload_stats_.degraded;
    if (m_overload_degraded_) m_overload_degraded_->inc();
    if (const CachedEntity* stale = stale_entity(request)) {
      ++overload_stats_.stale_under_pressure;
      Response resp = respond_entity(*stale, range);
      resp.headers.add("Warning", "110 - \"Response is Stale\"");
      return resp;
    }
    return shed_response(ShedCause::kOverloadLow);
  }
  ++overload_stats_.shed_high_watermark;
  if (m_overload_shed_) m_overload_shed_->inc();
  return shed_response(ShedCause::kOverloadHigh);
}

void CdnNode::set_upstream_fault_injector(net::FaultInjector* injector) {
  upstream_->set_fault_injector(injector);
}

void CdnNode::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  upstream_->set_tracer(tracer);
}

void CdnNode::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (!metrics) {
    m_requests_ = m_cache_hits_ = m_cache_misses_ = m_coalesced_hits_ =
        m_fetch_attempts_ = m_loop_rejected_ = m_shed_ = m_budget_overflows_ =
            m_overload_shed_ = m_overload_degraded_ = m_deadline_expired_ =
                m_retry_budget_denied_ = m_cache_evictions_ = m_cache_rejects_ =
                    m_detect_alarms_ = m_quarantined_ = nullptr;
    m_cache_bytes_ = nullptr;
    return;
  }
  const std::string label = "{vendor=\"" + traits_.name + "\"}";
  m_requests_ = &metrics->counter("cdn_requests_total" + label,
                                  "requests this vendor's nodes handled");
  m_cache_hits_ = &metrics->counter("cdn_cache_hits_total" + label,
                                    "fresh full-entity cache hits");
  m_cache_misses_ = &metrics->counter("cdn_cache_misses_total" + label,
                                      "requests that reached the miss path");
  m_coalesced_hits_ =
      &metrics->counter("cdn_coalesced_hits_total" + label,
                        "misses answered from a fill-lock leader's response");
  m_fetch_attempts_ =
      &metrics->counter("cdn_origin_fetch_attempts_total" + label,
                        "upstream wire transfers, retries included");
  m_loop_rejected_ =
      &metrics->counter("cdn_loop_rejected_total" + label,
                        "requests rejected by the CDN-Loop defense (508/400)");
  m_shed_ = &metrics->counter(
      "cdn_shed_total" + label,
      "fetches shed before any wire transfer (breaker open / admission)");
  m_budget_overflows_ = &metrics->counter(
      "cdn_validator_budget_overflows_total" + label,
      "body-buffer / multipart-assembly budget trips (ingest and egress)");
  m_overload_shed_ = &metrics->counter(
      "cdn_overload_shed_total" + label,
      "misses hard-rejected 503 at a high watermark");
  m_overload_degraded_ = &metrics->counter(
      "cdn_overload_degraded_total" + label,
      "misses degraded between watermarks (stale served or 503)");
  m_deadline_expired_ = &metrics->counter(
      "cdn_deadline_expired_total" + label,
      "exchanges refused or cancelled by the propagated deadline (504)");
  m_retry_budget_denied_ = &metrics->counter(
      "cdn_retry_budget_denied_total" + label,
      "upstream retries refused by the cross-hop retry budget");
  m_cache_evictions_ = &metrics->counter(
      "cdn_cache_evictions_total" + label,
      "cache entries evicted under the byte budget (markers' stranded "
      "variants included)");
  m_cache_rejects_ = &metrics->counter(
      "cdn_cache_admission_rejects_total" + label,
      "cache inserts shed because eviction could not make room");
  m_detect_alarms_ = &metrics->counter(
      "cdn_detection_alarms_total" + label,
      "per-client detector alarm transitions at ingress");
  m_quarantined_ = &metrics->counter(
      "cdn_detection_quarantined_total" + label,
      "requests answered 429 on an active attack-signature match");
  m_cache_bytes_ = &metrics->gauge(
      "cdn_cache_bytes" + label,
      "charged bytes resident in this vendor's caches (key + entity + "
      "per-entry overhead)");
  // Fresh registry handles: re-baseline the deltas so a registry attached
  // mid-life starts from the cache's current state.
  cache_evictions_seen_ = cache_.evictions();
  cache_rejects_seen_ = cache_.admission_rejects();
  cache_bytes_reported_ = 0;
  const double bytes_now = static_cast<double>(cache_.bytes());
  if (bytes_now != 0) m_cache_bytes_->add(bytes_now);
  cache_bytes_reported_ = bytes_now;
}

Request CdnNode::build_upstream_request(const Request& client_request,
                                        const std::optional<RangeSet>& range,
                                        http::Method method_override) const {
  Request upstream_request;
  upstream_request.method = method_override;
  upstream_request.target = client_request.target;
  // The client's Range and hop-by-hop fields stay on this hop.  So do the
  // deadline/attempt headers: each hop re-stamps its own values per attempt
  // (fetch_result), never relays the client's.
  const auto relayed = [](std::string_view name) {
    return !http::iequals(name, "Range") && !is_hop_by_hop(name) &&
           !http::iequals(name, kDeadlineBudgetHeader) &&
           !http::iequals(name, kAttemptCountHeader);
  };
  // Sized once: the relayed fields, the forward block, CDN-Loop, Via and the
  // Range.
  std::size_t bytes = client_request.headers.serialized_size() +
                      traits_.forward_headers.serialized_size();
  for (const auto f : client_request.headers) {
    if (!relayed(f.name)) bytes -= Headers::field_bytes(f.name, f.value.size());
  }
  if (traits_.shield.loop.enabled) {
    bytes += Headers::field_bytes("CDN-Loop", loop_token_.size());
  }
  if (traits_.emit_via) bytes += Headers::field_bytes("Via", 4 + traits_.node_id.size());
  const std::size_t range_size = range ? range->string_size() : 0;
  if (range) bytes += Headers::field_bytes("Range", range_size);
  Headers& headers = upstream_request.headers;
  headers.reserve(bytes);
  for (const auto f : client_request.headers) {
    if (relayed(f.name)) headers.add(f.name, f.value);
  }
  headers.append(traits_.forward_headers);
  if (traits_.shield.loop.enabled) {
    // RFC 8586: every forwarding CDN appends its cdn-id.  Incoming CDN-Loop
    // fields were copied through above, so the chain accumulates hop by hop.
    // Some vendors (Cloudflare, StackPath) already emit their cdn-id among
    // the canonical forward_headers; skip the append rather than name this
    // hop twice.
    bool already_listed = false;
    for (const std::string_view value : headers.get_all("CDN-Loop")) {
      const auto parsed = parse_cdn_loop(value);
      if (parsed && cdn_loop_contains(*parsed, loop_token_)) {
        already_listed = true;
        break;
      }
    }
    if (!already_listed) headers.add("CDN-Loop", loop_token_);
  }
  if (traits_.emit_via) add_via(headers, traits_.node_id);
  if (range) range->write(headers.add_value("Range", range_size));
  return upstream_request;
}

net::TransferOutcome CdnNode::upstream_transfer(
    const Request& upstream_request, const net::TransferOptions& options) {
  return upstream_->transfer_outcome(upstream_request, options);
}

Response CdnNode::shed_response(ShedCause cause) {
  const bool overload_cause = cause == ShedCause::kOverloadHigh ||
                              cause == ShedCause::kOverloadLow;
  Response resp = error(http::kServiceUnavailable,
                        std::string{overload_cause
                                        ? "request shed by overload control: "
                                        : "request shed by origin shield: "} +
                            std::string{shed_cause_name(cause)});
  char value[32];
  std::snprintf(value, sizeof(value), "%.0f",
                overload_cause
                    ? traits_.overload.watermarks.retry_after_seconds
                    : traits_.shield.breaker.retry_after_seconds);
  resp.headers.add("Retry-After", value);
  ++shield_stats_.shed_responses;
  return resp;
}

Response CdnNode::deadline_response(std::string_view where) {
  return error(http::kGatewayTimeout,
               std::string{"exchange deadline expired "} + std::string{where});
}

Response CdnNode::fetch(const Request& client_request,
                        const std::optional<RangeSet>& range,
                        const net::TransferOptions& options,
                        http::Method method_override) {
  FetchResult result = fetch_result(client_request, range, options, method_override);
  if (result.shed == ShedCause::kDeadline) {
    return deadline_response("before upstream leg");
  }
  if (result.shed != ShedCause::kNone) return shed_response(result.shed);
  if (result.error) {
    // Present the failure as an upstream gateway error so callers that only
    // understand responses still behave: the status is never cacheable and
    // relays as this vendor's 502/504.
    const int status =
        result.error->kind == net::TransferErrorKind::kTimeout
            ? http::kGatewayTimeout
            : http::kBadGateway;
    Response failed;
    failed.status = status;
    failed.headers.add("Content-Length", "0");
    failed.headers.add("X-Transfer-Error", net::transfer_error_name(result.error->kind));
    return failed;
  }
  return std::move(result.response);
}

namespace {

std::string_view breaker_state_name(UpstreamBreaker::State state) noexcept {
  switch (state) {
    case UpstreamBreaker::State::kClosed: return "closed";
    case UpstreamBreaker::State::kOpen: return "open";
    case UpstreamBreaker::State::kHalfOpen: return "half-open";
  }
  return "unknown";
}

}  // namespace

FetchResult CdnNode::fetch_result(const Request& client_request,
                                  const std::optional<RangeSet>& range,
                                  const net::TransferOptions& options,
                                  http::Method method_override) {
  fetch_taint_no_store_ = false;
  const ResiliencePolicy& rp = traits_.resilience;
  const DeadlinePolicy& dlp = traits_.overload.deadline;
  const RetryBudgetPolicy& rbp = traits_.overload.retry_budget;
  Request upstream_request =
      build_upstream_request(client_request, range, method_override);

  obs::SpanScope span(tracer_, "cdn.fetch");
  if (span) {
    // The upstream Range is the vendor's rewrite of the client's (Laziness
    // keeps it, Deletion drops it, Expansion widens it).
    span.note("upstream_range", range ? range->to_string() : "(none)");
    if (traits_.shield.breaker.enabled) {
      span.note("breaker", breaker_state_name(breaker_.state()));
    }
  }

  net::TransferOptions attempt_options = options;
  if (!attempt_options.timeout_seconds && rp.attempt_timeout_seconds > 0) {
    attempt_options.timeout_seconds = rp.attempt_timeout_seconds;
  }

  // Stale-if-error short-circuit: when a stale copy can absorb the failure,
  // do not hammer the origin with the full retry budget.
  int budget = rp.max_retries;
  if (rp.degradation == DegradationPolicy::kServeStale &&
      rp.serve_stale_skips_retries && stale_entity(client_request) != nullptr) {
    budget = 0;
  }

  // Deadline gate ahead of everything else, the breaker included: a leg
  // whose remaining budget is below the per-hop minimum is cancelled before
  // any side effect -- no wire byte moves and no breaker state is touched.
  const bool deadline_active = dlp.enabled && deadline_remaining_.has_value();
  if (deadline_active && *deadline_remaining_ < dlp.per_hop_min_seconds) {
    FetchResult cancelled;
    cancelled.shed = ShedCause::kDeadline;
    cancelled.deadline_expired = true;
    cancelled.attempts = 0;
    fetch_taint_no_store_ = true;
    ++overload_stats_.deadline_cancelled_legs;
    if (m_deadline_expired_) m_deadline_expired_->inc();
    span.note("deadline", "cancelled-before-wire");
    return cancelled;
  }

  // Circuit breaker + admission control gate the whole fetch: an open
  // circuit or exhausted connection budget sheds the request before any
  // counted wire transfer -- the origin never sees it.
  const double now = sim_now();
  if (const ShedCause cause = breaker_.admit(now); cause != ShedCause::kNone) {
    FetchResult shed;
    shed.shed = cause;
    shed.attempts = 0;
    if (cause == ShedCause::kBreakerOpen) {
      ++shield_stats_.shed_breaker_open;
    } else {
      ++shield_stats_.shed_admission;
    }
    span.note("shed", shed_cause_name(cause));
    if (m_shed_) m_shed_->inc();
    return shed;
  }
  if (traits_.shield.breaker.enabled &&
      breaker_.state() == UpstreamBreaker::State::kHalfOpen) {
    ++shield_stats_.half_open_probes;
  }
  const std::uint64_t trips_before = breaker_.trips();

  FetchResult result;
  double backoff = rp.backoff_initial_seconds;
  for (int attempt = 0;; ++attempt) {
    net::TransferOptions this_attempt = attempt_options;
    bool deadline_binds = false;
    if (deadline_active) {
      // The remaining budget caps this attempt's timeout: a leg the deadline
      // would outlive is cut at the budget, costing only the request bytes
      // that already crossed (the response never does).
      if (!this_attempt.timeout_seconds ||
          *deadline_remaining_ < *this_attempt.timeout_seconds) {
        this_attempt.timeout_seconds = *deadline_remaining_;
        deadline_binds = true;
      }
      if (dlp.propagate) {
        upstream_request.headers.set(kDeadlineBudgetHeader,
                                     format_deadline_budget(*deadline_remaining_));
      }
    }
    if (rbp.enabled && rbp.count_chain_attempts) {
      // x-envoy-attempt-count semantics: the chain-wide attempt number of
      // this leg, so the next hop can charge retried requests against its
      // own budget.
      upstream_request.headers.set(kAttemptCountHeader,
                                   std::to_string(incoming_attempt_count_ + attempt));
    }
    if (attempt == 0 && rbp.enabled) {
      overload_.note_first_attempt(now);
      ++overload_stats_.attempts.first_attempts;
    }

    net::TransferOutcome outcome =
        upstream_transfer(upstream_request, this_attempt);
    result.attempts = attempt + 1;
    result.elapsed_seconds += outcome.latency_seconds;
    result.error = outcome.error;
    result.upstream_5xx = outcome.ok() && rp.retry_on_5xx &&
                          outcome.response.status >= 500 &&
                          outcome.response.status <= 599;
    // The transfer occupies a breaker connection slot for its injected
    // latency and feeds the overload manager's pressure windows.
    breaker_.occupy_connection(now + outcome.latency_seconds);
    overload_.note_inflight(now, now + outcome.latency_seconds);
    if (!outcome.error.has_value()) {
      overload_.note_body_bytes(now, outcome.response.body.size());
    }
    if (deadline_active) *deadline_remaining_ -= outcome.latency_seconds;
    const bool timed_out =
        outcome.error.has_value() &&
        outcome.error->kind == net::TransferErrorKind::kTimeout;
    result.response = std::move(outcome.response);

    if (deadline_binds && timed_out) {
      // The deadline, not the vendor's attempt timeout, cut this leg: mark
      // the exchange expired, never store, and stop -- a retry would only
      // burn more of a budget that is already gone.
      result.deadline_expired = true;
      fetch_taint_no_store_ = true;
      ++overload_stats_.deadline_cancelled_legs;
      if (m_deadline_expired_) m_deadline_expired_->inc();
      span.note("deadline", "cancelled-leg");
      break;
    }

    const bool retryable = result.error.has_value() || result.upstream_5xx;
    if (!retryable || attempt >= budget) break;
    if (deadline_active &&
        *deadline_remaining_ - backoff < dlp.per_hop_min_seconds) {
      // Backing off would eat the rest of the budget; give up now.
      result.deadline_expired = true;
      fetch_taint_no_store_ = true;
      ++overload_stats_.deadline_cancelled_legs;
      if (m_deadline_expired_) m_deadline_expired_->inc();
      span.note("deadline", "no-budget-for-retry");
      break;
    }
    if (!overload_.try_start_retry(sim_now())) {
      // Retry budget spent: the failure stands, and the cross-hop storm the
      // per-request policy would have started never leaves this node.
      ++overload_stats_.retries_denied;
      if (m_retry_budget_denied_) m_retry_budget_denied_->inc();
      span.note("retry_budget", "denied");
      break;
    }
    if (rbp.enabled) ++overload_stats_.attempts.retries;
    result.elapsed_seconds += backoff;
    if (deadline_active) *deadline_remaining_ -= backoff;
    backoff *= rp.backoff_multiplier;
  }
  // Feed the breaker ONE verdict for the whole fetch.  Counting every
  // attempt would let a single request's retries trip the breaker on their
  // own (retries x trip-threshold coupling) and would re-open a half-open
  // circuit several times per probe; the breaker tracks upstream health per
  // exchange, and the resilience layer's retries are internal to one
  // exchange.  (Any 5xx counts, retryable or not -- health, not retryability.)
  if (result.attempts > 0) {
    const bool upstream_failure = result.error.has_value() ||
                                  (result.response.status >= 500 &&
                                   result.response.status <= 599);
    if (upstream_failure) {
      breaker_.on_failure(now);
    } else {
      breaker_.on_success();
    }
  }
  shield_stats_.breaker_trips += breaker_.trips() - trips_before;
  if (span) {
    span.note("attempts", std::to_string(result.attempts));
    if (result.error) {
      span.note("transfer_error",
                net::transfer_error_name(result.error->kind));
    }
    span.set_status(result.response.status);
  }
  if (m_fetch_attempts_) {
    m_fetch_attempts_->inc(static_cast<std::uint64_t>(result.attempts));
  }
  if (traits_.conformance.mode != ConformanceMode::kOff &&
      result.shed == ShedCause::kNone && !result.error.has_value()) {
    apply_conformance(result, range, span);
  }
  return result;
}

void CdnNode::count_violation(http::ValidationCheck check,
                              std::string_view action) {
  if (!metrics_) return;
  metrics_
      ->counter("cdn_validator_violations_total{vendor=\"" + traits_.name +
                    "\",check=\"" +
                    std::string{http::validation_check_name(check)} +
                    "\",action=\"" + std::string{action} + "\"}",
                "upstream response validation failures by check and verdict")
      .inc();
}

void CdnNode::apply_conformance(FetchResult& result,
                                const std::optional<RangeSet>& range,
                                obs::SpanScope& span) {
  const ConformancePolicy& cp = traits_.conformance;
  ++validation_stats_.upstream_responses_validated;

  const http::ResponseValidator validator(
      {cp.max_body_bytes, cp.max_multipart_assembly_bytes});
  const http::ValidationReport report = validator.validate(result.response, range);
  if (report.ok()) {
    span.note("validator", "ok");
    return;
  }
  validation_stats_.violations += report.violations.size();
  const bool over_budget = report.has(http::ValidationCheck::kBodyBudget) ||
                           report.has(http::ValidationCheck::kMultipartBudget);
  if (over_budget) {
    ++validation_stats_.budget_overflows;
    if (m_budget_overflows_) m_budget_overflows_->inc();
  }

  // Verdict.  Strict rejects any violation; lenient rejects fatal shapes,
  // truncates an over-long identity body down to its declared length, and
  // passes the remaining soft lies through uncached.
  std::string_view action;
  if (cp.mode == ConformanceMode::kStrict || report.any_fatal()) {
    action = "reject-502";
    Response rejected =
        error(http::kBadGateway,
              "upstream response failed validation: " + report.summary());
    rejected.headers.add("X-Validator-Checks", report.summary());
    result.response = std::move(rejected);
    fetch_taint_no_store_ = true;
    ++validation_stats_.rejected_502;
  } else if (report.has(http::ValidationCheck::kContentLengthMismatch) &&
             report.declared_content_length &&
             result.response.body.size() > *report.declared_content_length) {
    // Truncate-and-drop: keep the declared prefix, drop the smuggled tail.
    action = "truncate-drop";
    result.response.body = result.response.body.slice(
        0, *report.declared_content_length);
    fetch_taint_no_store_ = true;
    ++validation_stats_.passed_uncached;
  } else {
    action = "pass-uncached";
    fetch_taint_no_store_ = true;
    ++validation_stats_.passed_uncached;
  }
  for (const auto& v : report.violations) count_violation(v.check, action);
  if (span) {
    span.note("validator", std::string{action});
    span.note("validator_checks", report.summary());
  }
}

std::optional<Response> CdnNode::check_assembly_budget(
    std::uint64_t body_bytes) {
  const ConformancePolicy& cp = traits_.conformance;
  if (cp.mode == ConformanceMode::kOff ||
      cp.max_multipart_assembly_bytes == 0 ||
      body_bytes <= cp.max_multipart_assembly_bytes) {
    return std::nullopt;
  }
  ++validation_stats_.assembly_overflows;
  if (m_budget_overflows_) m_budget_overflows_->inc();
  count_violation(http::ValidationCheck::kMultipartBudget, "reject-502");
  return error(http::kBadGateway,
               "multipart assembly of " + std::to_string(body_bytes) +
                   " bytes exceeds budget of " +
                   std::to_string(cp.max_multipart_assembly_bytes));
}

const CachedEntity* CdnNode::stale_entity(const Request& request) const {
  if (!traits_.cache_enabled) return nullptr;
  return cache_.find(resolve_cache_key(request));
}

Response CdnNode::degrade(const Request& request,
                          const std::optional<RangeSet>& range,
                          const FetchResult& result) {
  const ResiliencePolicy& rp = traits_.resilience;
  if (result.shed == ShedCause::kDeadline || result.deadline_expired) {
    // Deadline outranks every degradation, serve-stale included: past the
    // client-facing deadline the downstream has abandoned the exchange, so
    // even a free stale answer is useless work.  504, never cached.
    return deadline_response("after " + std::to_string(result.attempts) +
                             " attempt(s)");
  }
  if (result.shed != ShedCause::kNone) {
    // Serve-stale outranks the open circuit: the stale copy costs the origin
    // nothing, so shedding it would only hurt availability.  Everything else
    // is answered 503 + Retry-After (see docs/defense-model.md).
    if (rp.degradation == DegradationPolicy::kServeStale) {
      if (const CachedEntity* stale = stale_entity(request)) {
        Response resp = respond_entity(*stale, range);
        resp.headers.add("Warning", "111 - \"Revalidation Failed\"");
        return resp;
      }
    }
    return shed_response(result.shed);
  }
  if (rp.degradation == DegradationPolicy::kServeStale) {
    if (const CachedEntity* stale = stale_entity(request)) {
      Response resp = respond_entity(*stale, range);
      // RFC 5861 stale-if-error marker (obs-deprecated Warning code kept for
      // observability; only fault paths ever carry it).
      resp.headers.add("Warning", "111 - \"Revalidation Failed\"");
      return resp;
    }
  }
  if (rp.degradation == DegradationPolicy::kNegativeCache &&
      traits_.cache_enabled) {
    CachedEntity negative;
    negative.content_type = "#negative";
    negative.expires_at =
        (clock_ ? clock_() : 0.0) + rp.negative_cache_ttl_seconds;
    cache_.put(resolve_cache_key(request) + "#neg", std::move(negative));
  }
  if (result.error) {
    const bool timeout =
        result.error->kind == net::TransferErrorKind::kTimeout;
    return error(timeout ? http::kGatewayTimeout : http::kBadGateway,
                 std::string{"upstream failure: "} +
                     std::string{net::transfer_error_name(result.error->kind)} +
                     " after " + std::to_string(result.attempts) + " attempt(s)");
  }
  // A concrete upstream 5xx survived the retries: relay it faithfully.
  return relay(result.response);
}

std::optional<CachedEntity> CdnNode::entity_from_response(const Response& upstream) {
  if (upstream.status != http::kOk) return std::nullopt;
  CachedEntity entity;
  if (http::is_chunked(upstream)) {
    // A chunked 200 must be de-framed before ranges can be served from it.
    // A stream cut mid-chunk fails to decode, so truncated chunked entities
    // can never poison the cache.
    auto decoded = http::decode_chunked(upstream.body.materialize());
    if (!decoded) return std::nullopt;
    entity.entity = std::move(*decoded);
  } else {
    // Refuse partial fills: a body shorter than the declared Content-Length
    // is a truncated transfer (upstream died mid-entity), and caching it
    // would serve a poisoned representation forever.
    if (const auto declared = upstream.headers.get("Content-Length")) {
      std::uint64_t length = 0;
      const auto [ptr, ec] = std::from_chars(
          declared->data(), declared->data() + declared->size(), length);
      if (ec != std::errc{} || ptr != declared->data() + declared->size() ||
          length != upstream.body.size()) {
        return std::nullopt;
      }
    }
    entity.entity = upstream.body;
  }
  entity.content_type =
      std::string{upstream.headers.get_or("Content-Type", "application/octet-stream")};
  entity.etag = std::string{upstream.headers.get_or("ETag", "")};
  entity.last_modified = std::string{upstream.headers.get_or("Last-Modified", "")};
  entity.vary = std::string{upstream.headers.get_or("Vary", "")};
  return entity;
}

namespace {

// Calls `visit` on each member of a Vary list, with the optional whitespace
// around it (SP or HTAB, RFC 9110 section 5.6.1) trimmed; empty members are
// skipped.
template <typename Visit>
void for_each_vary_member(std::string_view vary, Visit visit) {
  const auto ows = [](char c) { return c == ' ' || c == '\t'; };
  std::size_t pos = 0;
  while (pos <= vary.size()) {
    auto comma = vary.find(',', pos);
    if (comma == std::string_view::npos) comma = vary.size();
    std::string_view member = vary.substr(pos, comma - pos);
    while (!member.empty() && ows(member.front())) member.remove_prefix(1);
    while (!member.empty() && ows(member.back())) member.remove_suffix(1);
    if (!member.empty()) visit(member);
    pos = comma + 1;
  }
}

// Joins the request's values of the headers a Vary list names.
std::string variant_of(const Request& request, std::string_view vary) {
  std::string out;
  for_each_vary_member(vary, [&](std::string_view name) {
    out.append(request.headers.get_or(name, ""));
    out.push_back('\x1f');
  });
  return out;
}

// RFC 9111 section 4.1: a stored response whose Vary has the member "*"
// never matches a later request.
bool varies_on_everything(std::string_view vary) {
  bool star = false;
  for_each_vary_member(vary, [&](std::string_view member) { star |= member == "*"; });
  return star;
}

}  // namespace

std::string CdnNode::resolve_cache_key(const Request& request) const {
  std::string key = cache_key(request);
  const std::size_t base = key.size();
  // A marker entry records that this URL's responses vary; the entity then
  // lives under a per-variant key (RFC 7234 section 4.1's secondary key).
  key.append("#vary");
  const CachedEntity* marker = cache_.find(key);
  key.resize(base);
  if (marker != nullptr) {
    key.append("#variant=").append(variant_of(request, marker->vary));
  }
  return key;
}

std::string CdnNode::cache_key(const Request& request) const {
  return Cache::key(request.headers.get_or("Host", ""),
                    traits_.cache_ignore_query ? request.path()
                                               : std::string_view{request.target});
}

void CdnNode::store(const Request& request, CachedEntity entity) {
  if (!traits_.cache_enabled) return;
  if (fetch_taint_no_store_) {
    // Cache-poison guard: the response this entity came from failed
    // validation, so it may be relayed downstream but never stored.
    ++validation_stats_.store_suppressed;
    if (metrics_) {
      metrics_
          ->counter("cdn_validator_store_suppressed_total{vendor=\"" +
                        traits_.name + "\"}",
                    "cache writes blocked by the never-cache taint")
          .inc();
    }
    return;
  }
  if (traits_.cache_ttl_seconds > 0 && clock_) {
    entity.expires_at = clock_() + traits_.cache_ttl_seconds;
  }
  if (varies_on_everything(entity.vary)) return;  // could never be served
  std::string key = cache_key(request);
  if (!entity.vary.empty()) {
    CachedEntity marker;
    marker.vary = entity.vary;
    std::string variant_key =
        key + "#variant=" + variant_of(request, entity.vary);
    key.append("#vary");
    cache_.put(std::move(key), std::move(marker));
    cache_.put(std::move(variant_key), std::move(entity));
    return;
  }
  cache_.put(std::move(key), std::move(entity));
}

Response CdnNode::respond_416(std::uint64_t total_size) {
  const std::string unsatisfied = http::content_range_unsatisfied(total_size);
  const http::HeaderField content[] = {{"Content-Range", unsatisfied},
                                       {"Content-Length", "0"}};
  return style(http::kRangeNotSatisfiable, content, Body{});
}

Response CdnNode::respond_entity(const CachedEntity& entity,
                                 const std::optional<RangeSet>& range) {
  return serve({entity.entity, 0, entity.size(), entity.content_type,
                entity.etag, entity.last_modified},
               range ? &*range : nullptr);
}

Response CdnNode::respond_window(const EntityWindow& window, const RangeSet& range) {
  return serve({window.body, window.offset, window.total_size,
                window.content_type, window.etag, window.last_modified},
               &range);
}

Response CdnNode::serve(const WindowRef& window, const RangeSet* range) {
  const std::uint64_t total = window.total;
  const std::uint64_t win_first = window.offset;
  const std::uint64_t win_size = window.body.size();

  const auto single = [&](const ResolvedRange& r) {
    return style(http::kPartialContent,
                 ContentFields(window.last_modified, window.etag, r.length(),
                               window.content_type, &r, total),
                 window.body.slice(r.first - win_first, r.length()));
  };
  const auto multipart = [&](std::vector<http::RunPart> parts) {
    return respond_multipart(
        http::MultipartWriter(traits_.multipart_boundary, window.content_type,
                              total, traits_.multipart_part_extra_headers)
            .frame(window.body, std::move(parts)),
        window.last_modified, window.etag);
  };
  const auto full_200 = [&]() -> Response {
    if (win_first != 0 || win_size != total) {
      return error(http::kBadGateway, "policy requires full entity not held");
    }
    return style(http::kOk,
                 ContentFields(window.last_modified, window.etag, total,
                               window.content_type),
                 window.body);
  };
  const auto held = [&](const ResolvedRange& r) {
    return r.first >= win_first && r.last < win_first + win_size;
  };
  constexpr std::string_view kNoneHeld = "no requested range within fetched window";

  if (range == nullptr) return full_200();
  if (range->count() == 1) {
    const auto r = http::resolve(range->front(), total);
    if (!r) return respond_416(total);
    if (!held(*r)) return error(http::kBadGateway, kNoneHeld);
    return single(*r);
  }

  // One pass over the runs: resolve each run's range once, keep it if the
  // window holds it, and fold it into the previous part when it repeats that
  // part's range.
  bool satisfiable = false;
  std::uint64_t servable = 0;  // ranges kept, repeats included
  http::RunPartList list;
  for (const http::RangeRun& run : range->runs()) {
    const auto r = http::resolve(run.spec, total);
    if (!r) continue;
    satisfiable = true;
    if (!held(*r)) continue;
    servable += run.count;
    list.add(*r, r->first - win_first, run.count);
  }
  std::vector<http::RunPart> parts = std::move(list).take();
  if (!satisfiable) return respond_416(total);
  if (servable == 0) return error(http::kBadGateway, kNoneHeld);
  if (servable == 1) return single(parts.front().range);

  // The distinct ranges, for the policies that compare ranges.
  const auto listed = [&] {
    std::vector<ResolvedRange> ranges;
    ranges.reserve(parts.size());
    for (const auto& p : parts) ranges.push_back(p.range);
    return ranges;
  };
  switch (traits_.multi_reply) {
    case MultiRangeReplyPolicy::kHonorOverlapping:
      if (traits_.multi_reply_max_ranges != 0 &&
          servable > traits_.multi_reply_max_ranges) {
        return full_200();
      }
      return multipart(std::move(parts));
    case MultiRangeReplyPolicy::kCoalesce: {
      const auto merged = http::coalesce(listed());
      if (merged.size() == 1) return single(merged.front());
      std::vector<http::RunPart> merged_parts;
      merged_parts.reserve(merged.size());
      for (const auto& r : merged) merged_parts.push_back({r, r.first - win_first});
      return multipart(std::move(merged_parts));
    }
    case MultiRangeReplyPolicy::kRejectOverlapping416:
      // A repeated range overlaps itself.
      if (parts.size() < servable || http::any_overlap(listed())) {
        return respond_416(total);
      }
      return multipart(std::move(parts));
    case MultiRangeReplyPolicy::kFirstRangeOnly:
      return single(parts.front().range);
    case MultiRangeReplyPolicy::kIgnoreRange:
      return full_200();
    case MultiRangeReplyPolicy::kReject416:
      return respond_416(total);
  }
  return error(http::kBadGateway, "unreachable reply policy");
}

Response CdnNode::respond_assembled(
    std::uint64_t total_size, const std::string& content_type,
    const std::string& etag, const std::string& last_modified,
    std::vector<std::pair<http::ResolvedRange, Body>> parts) {
  if (parts.empty()) return respond_416(total_size);

  if (parts.size() == 1) {
    auto& [r, payload] = parts.front();
    return style(http::kPartialContent,
                 ContentFields(last_modified, etag, r.length(), content_type, &r,
                               total_size),
                 std::move(payload));
  }
  Body source;
  std::vector<http::RunPart> run_parts;
  run_parts.reserve(parts.size());
  std::uint64_t offset = 0;
  for (const auto& [r, payload] : parts) {
    assert(payload.size() == r.length());
    run_parts.push_back({r, offset});
    offset += r.length();
    source.append_body(payload);
  }
  return respond_multipart(
      http::MultipartWriter(traits_.multipart_boundary, content_type, total_size,
                            traits_.multipart_part_extra_headers)
          .frame(std::move(source), std::move(run_parts)),
      last_modified, etag);
}

Response CdnNode::respond_multipart(Body body, const std::string& last_modified,
                                    const std::string& etag) {
  const std::uint64_t size = body.size();  // one run chunk: O(1)
  if (auto over = check_assembly_budget(size)) return std::move(*over);
  return style(http::kPartialContent,
               ContentFields(last_modified, etag, size,
                             http::multipart_content_type(traits_.multipart_boundary)),
               std::move(body));
}

Response CdnNode::relay(Response upstream) {
  constexpr std::string_view kRelayed[] = {
      "Last-Modified", "ETag",         "Content-Length",
      "Content-Range", "Content-Type", "Transfer-Encoding"};
  std::array<http::HeaderField, std::size(kRelayed)> content;
  std::size_t count = 0;
  for (const std::string_view name : kRelayed) {
    if (const auto v = upstream.headers.get(name)) content[count++] = {name, *v};
  }
  return style(upstream.status, std::span{content.data(), count},
               std::move(upstream.body));
}

Response CdnNode::error(int status, std::string_view note) {
  Body body = Body::literal(std::string{note});
  const std::uint64_t length = body.size();
  return style(status, ContentFields({}, {}, length, "text/plain"), std::move(body));
}

Response CdnNode::style(int status, std::span<const http::HeaderField> content,
                        Body body) const {
  // Real CDN trace ids (CF-Ray, X-Amz-Cf-Id, ...) differ per response.  The
  // serial at the head of the pad varies it the same way -- same length, so
  // HTTP/1.1 byte counts (and the Table IV calibration) are untouched, but
  // HPACK cannot fully index repeated responses the way it never could in
  // production.
  const std::uint64_t serial =
      traits_.response_pad_bytes >= 16 ? ++response_serial_ : 0;
  return styled_response(traits_, status, content, std::move(body), serial);
}

std::size_t calibrate_response_pad(const VendorTraits& traits) {
  if (traits.client_response_target_bytes == 0) return 0;
  // Canonical exploited-case response: single-range 206, bytes 0-0 of a
  // 25 MB resource, Apache-flavored validators (mirrors what the origin
  // model emits).
  VendorTraits probe = traits;
  probe.response_pad_bytes = 0;
  const http::HeaderField content[] = {
      {"Last-Modified", "Mon, 06 Jul 2020 11:22:33 GMT"},
      {"ETag", "\"3a7f52-1900000\""},
      {"Content-Length", "1"},
      {"Content-Range", "bytes 0-0/26214400"},
      {"Content-Type", "application/octet-stream"},
  };
  const Response canonical = styled_response(probe, http::kPartialContent, content,
                                             Body::literal("x"), 0);
  const std::uint64_t base = http::serialized_size(canonical);
  if (traits.client_response_target_bytes <= base) return 0;
  const std::uint64_t diff = traits.client_response_target_bytes - base;
  // The pad header costs "X-Edge-Trace: " + value + CRLF = value + 16 bytes.
  const std::uint64_t overhead = kPadHeaderName.size() + 4;
  if (diff <= overhead) return 0;
  return static_cast<std::size_t>(diff - overhead);
}

}  // namespace rangeamp::cdn
