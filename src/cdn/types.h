// Shared vocabulary for the CDN model.
//
// Tables I-III of the paper are, in effect, a catalogue of per-vendor values
// for the types in this header: how a Range header is rewritten before going
// back to origin (ForwardPolicy), how a multi-range request is answered
// (MultiRangeReplyPolicy), and what ingress header limits bound the OBR
// attack's n (RequestHeaderLimits in limits.h).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/detector.h"
#include "http/headers.h"

namespace rangeamp::cdn {

/// How a CDN rewrites the Range header of a back-to-origin request
/// (section III-B of the paper).  Used both as configuration for generic
/// logic and as the classification emitted by the policy scanner.
enum class ForwardPolicy {
  kLaziness,   ///< forward the Range header unchanged
  kDeletion,   ///< remove the Range header (fetch the full entity)
  kExpansion,  ///< replace with a larger byte range
};

std::string_view forward_policy_name(ForwardPolicy p) noexcept;

/// How a CDN answers a multi-range request once it holds the entity.
enum class MultiRangeReplyPolicy {
  /// Generate one part per requested range with no overlap checks -- the
  /// behaviour Table III flags as OBR-vulnerable (Akamai, Azure, StackPath).
  kHonorOverlapping,
  /// Coalesce overlapping/adjacent ranges first (RFC 7233 §6.1 guard).
  kCoalesce,
  /// Honor disjoint sets but reject any overlapping set with 416 (the
  /// "reject" option of RFC 7233 §6.1; CDN77's post-disclosure fix).
  kRejectOverlapping416,
  /// Answer with the first satisfiable range only, single-part.
  kFirstRangeOnly,
  /// Ignore the Range header, answer 200 with the full entity.
  kIgnoreRange,
  /// Reject the request with 416.
  kReject416,
};

std::string_view reply_policy_name(MultiRangeReplyPolicy p) noexcept;

/// What a CDN serves once its upstream retry budget is exhausted.
enum class DegradationPolicy {
  /// Synthesize a gateway error: 504 for timeouts, 502 for resets and
  /// truncated entities; a real upstream 5xx is relayed as-is.
  kSynthesizeError,
  /// Serve the stale cached copy when one exists (nginx
  /// proxy_cache_use_stale / RFC 5861 stale-if-error); fall back to the
  /// synthesized error otherwise.
  kServeStale,
  /// Negative-cache the failure: subsequent misses for the same key are
  /// answered 502 from the edge, without touching the origin, until the
  /// negative entry expires.
  kNegativeCache,
};

std::string_view degradation_policy_name(DegradationPolicy p) noexcept;

/// Back-to-origin resilience: what a CDN node does when an upstream fetch
/// fails (connection reset, truncated entity, timeout, retryable 5xx).
/// The defaults -- no retries, no timeout, synthesized errors -- reproduce
/// the paper-testbed behaviour exactly: with no faults injected, every
/// exchange is byte-identical to a resilience-unaware node.
struct ResiliencePolicy {
  /// Upstream re-attempts after the first failed try.  Every attempt is a
  /// full Wire transfer, so each one is counted by the segment's
  /// TrafficRecorder -- the retry-amplification effect under measurement.
  int max_retries = 0;

  /// Backoff schedule between attempts: the gap before retry k is
  /// backoff_initial_seconds * backoff_multiplier^(k-1).  Only accounted in
  /// FetchResult::elapsed_seconds (wires carry no clock).
  double backoff_initial_seconds = 0.5;
  double backoff_multiplier = 2.0;

  /// Per-attempt timeout budget: an attempt whose (injected) latency
  /// exceeds this fails with a timeout.  0 = wait forever.
  double attempt_timeout_seconds = 0;

  /// Treat upstream 5xx responses as retryable failures.
  bool retry_on_5xx = true;

  /// Policy once the budget is exhausted.
  DegradationPolicy degradation = DegradationPolicy::kSynthesizeError;

  /// Freshness lifetime of negative-cache entries (kNegativeCache only).
  double negative_cache_ttl_seconds = 30;

  /// With kServeStale: when a stale copy is already in cache, give up after
  /// the first failed attempt instead of burning the retry budget -- the
  /// origin-protective half of stale-if-error.
  bool serve_stale_skips_retries = true;
};

// ---------------------------------------------------------------------------
// Origin shielding (the second line of defense real CDNs run behind the
// section VI-C header rewrites).  Every knob defaults to OFF so that a
// profile without explicit shield configuration produces byte-identical
// traffic to a shield-unaware node.
// ---------------------------------------------------------------------------

/// RFC 8586 CDN-Loop defense: emit our cdn-id on every forwarded request and
/// reject requests whose CDN-Loop already names us (self-recurrence) or
/// carries more entries than the hop cap.  Terminates forwarding cycles
/// (FCDN -> BCDN -> FCDN) with 508 instead of amplifying until the stack
/// overflows.
struct LoopDefensePolicy {
  bool enabled = false;

  /// Our cdn-id as it appears in CDN-Loop (RFC 8586 section 2).  Empty =
  /// derived from the vendor name at profile construction.
  std::string token;

  /// Reject when the incoming CDN-Loop already lists this many hops
  /// (0 = no cap; self-recurrence is still rejected).
  std::size_t max_hops = 8;
};

/// Per-cache-key fill collapsing (Varnish request coalescing / nginx
/// proxy_cache_lock): concurrent misses for the same key share one origin
/// fetch, the followers replay the leader's response.
struct CoalescingPolicy {
  bool enabled = false;

  /// How long a completed fill keeps absorbing same-key misses (simulation
  /// seconds -- the fill-lock hold time).  Without a clock on the node the
  /// simulation instant never advances, so every same-key miss coalesces.
  double window_seconds = 1.0;
};

/// Envoy-style upstream circuit breaking + admission control, fed by the
/// typed TransferOutcomes of the resilience layer.
struct CircuitBreakerPolicy {
  bool enabled = false;

  /// Consecutive upstream failures (transport error or 5xx) that trip the
  /// breaker open.
  int consecutive_failures_trip = 5;

  /// How long the breaker stays open before probing (simulation seconds).
  double open_seconds = 30.0;

  /// Upstream probes admitted in half-open state; one success closes the
  /// breaker, one failure re-opens it.
  int half_open_probes = 1;

  /// Admission control: shed when this many upstream transfers are already
  /// in flight (busy = injected latency not yet elapsed).  0 = unlimited.
  int max_connections = 0;

  /// Extra queue allowance on top of max_connections (Envoy max_pending).
  int max_pending = 0;

  /// Retry-After value attached to shed 503s.
  double retry_after_seconds = 30.0;
};

/// The full shielding layer of one node.  Defaults are all off: traffic is
/// byte-identical to a node without the subsystem.
struct OriginShieldPolicy {
  LoopDefensePolicy loop;
  CoalescingPolicy coalescing;
  CircuitBreakerPolicy breaker;
};

// ---------------------------------------------------------------------------
// Overload control (the third defense layer: Envoy-style overload manager).
// Watermark-based load shedding, deadline propagation along the forwarding
// chain, and cross-hop retry budgets.  Every knob defaults to OFF so a
// profile without explicit overload configuration produces byte-identical
// traffic to an overload-unaware node.  Semantics: docs/overload-model.md.
// ---------------------------------------------------------------------------

/// Watermark-based admission control.  Three pressure dimensions are tracked
/// over a sliding window; each has a low and a high watermark.  Below every
/// low watermark a miss is admitted.  Between low and high the node degrades:
/// serve the stale copy when one exists, otherwise answer 503 + Retry-After.
/// At or above any high watermark the miss is hard-rejected (503), no stale
/// fallback.  A watermark pair with high == 0 disables that dimension.
struct WatermarkPolicy {
  bool enabled = false;

  /// Sliding window over which pressure is measured (simulation seconds).
  double window_seconds = 1.0;

  /// Upstream transfers still in flight (injected latency not yet elapsed).
  int concurrency_low = 0;
  int concurrency_high = 0;

  /// Misses admitted to the fill path inside the window (queue depth proxy).
  int queue_low = 0;
  int queue_high = 0;

  /// Upstream response-body bytes buffered inside the window.
  std::uint64_t body_bytes_low = 0;
  std::uint64_t body_bytes_high = 0;

  /// Retry-After value attached to overload 503s.
  double retry_after_seconds = 30.0;
};

/// Per-exchange deadline propagation (gRPC/Envoy timeout semantics projected
/// onto the synchronous testbed).  The first hop stamps a time budget on the
/// forwarded request; each hop decrements it by the latency and backoff it
/// observes, refuses work whose remaining budget is below the per-hop
/// minimum (504, never cached), and caps each attempt's timeout at the
/// remaining budget so a slow upstream leg is cancelled -- costing only
/// request-header bytes -- instead of completing work the client-facing
/// deadline has already made useless.
struct DeadlinePolicy {
  bool enabled = false;

  /// Budget stamped when a request arrives without a deadline header.
  double default_budget_seconds = 10.0;

  /// Minimum budget worth starting a leg for: below this, the hop answers
  /// 504 immediately (ingress) or cancels before the wire (egress).
  double per_hop_min_seconds = 0.05;

  /// Forward the remaining budget to the next hop (kDeadlineBudgetHeader).
  /// Off = enforce locally but strip the header (chain-edge behaviour).
  bool propagate = true;
};

/// Envoy-style retry budget: retries are admitted only up to a bounded ratio
/// of the first attempts seen inside the window, with a small fixed floor so
/// a quiet node can still retry at all.  With count_chain_attempts on, a
/// forwarded request that is itself a retry (attempt-count header > 1)
/// consumes this hop's budget too -- the cross-hop guard that keeps chained
/// vendors from multiplying attempts geometrically.
struct RetryBudgetPolicy {
  bool enabled = false;

  /// Retries admitted per first attempt inside the window.
  double ratio = 0.2;

  /// Floor: retries always admitted regardless of the ratio.
  int min_retries = 3;

  /// Sliding window over which attempts are counted (simulation seconds).
  double window_seconds = 10.0;

  /// Count upstream hops' retries (kAttemptCountHeader > 1) against this
  /// hop's budget.
  bool count_chain_attempts = true;
};

/// The full overload-control layer of one node.  Defaults are all off:
/// traffic is byte-identical to a node without the subsystem.
struct OverloadPolicy {
  WatermarkPolicy watermarks;
  DeadlinePolicy deadline;
  RetryBudgetPolicy retry_budget;
};

// ---------------------------------------------------------------------------
// Byzantine-origin hardening (the paper's section VI consistency checks):
// validate what the upstream leg actually returned before trusting it.
// ---------------------------------------------------------------------------

/// How strictly a node validates upstream responses (origin -> CDN and
/// BCDN -> FCDN legs alike).
enum class ConformanceMode {
  /// No validation at all -- the paper-testbed behaviour.  The default, so
  /// every seed CSV stays byte-identical.
  kOff,
  /// Fatal violations (smuggling shapes, undecodable framing, blown memory
  /// budgets) are rejected with a synthesized 502; soft violations
  /// (consistency lies a downstream could tolerate) are relayed but never
  /// cached -- the cache-poison guard.
  kLenient,
  /// Any violation is rejected with a synthesized 502 and never cached.
  kStrict,
};

std::string_view conformance_mode_name(ConformanceMode m) noexcept;

/// Upstream response validation + per-exchange resource budgets.
struct ConformancePolicy {
  ConformanceMode mode = ConformanceMode::kOff;

  /// Max upstream response body bytes buffered for one exchange (0 = no
  /// limit).  A response over budget is refused with 502 before the node
  /// materializes it -- the Envoy per-stream buffer-limit analogue.
  std::uint64_t max_body_bytes = 64ull * 1024 * 1024;

  /// Max bytes of one multipart/byteranges body this node will assemble or
  /// ingest, part framing included (0 = no limit).  Bounds the OBR
  /// node-exhaustion scenario.
  std::uint64_t max_multipart_assembly_bytes = 256ull * 1024 * 1024;
};

/// Counters of the validation layer (all zero while conformance is off).
struct ValidationStats {
  std::uint64_t upstream_responses_validated = 0;
  std::uint64_t violations = 0;           ///< individual failed checks
  std::uint64_t rejected_502 = 0;         ///< responses replaced by a 502
  std::uint64_t passed_uncached = 0;      ///< soft violations relayed uncached
  std::uint64_t store_suppressed = 0;     ///< cache writes blocked by taint
  std::uint64_t budget_overflows = 0;     ///< body/multipart budget trips
  std::uint64_t assembly_overflows = 0;   ///< client-facing assembly over budget
};

// ---------------------------------------------------------------------------
// Distributed detection (the section VI-C alerting gap, docs/detection-model.md).
// Per-node RangeAmp detectors fed inline at ingress, attack signatures
// gossiped between the nodes of an EdgeCluster, and optional quarantine
// enforcement (429) on signature match.  Every knob defaults to OFF so a
// profile without explicit detection configuration produces byte-identical
// traffic to a detection-unaware node.
// ---------------------------------------------------------------------------

/// Seeded anti-entropy gossip between the nodes of one EdgeCluster.
struct GossipPolicy {
  bool enabled = false;

  /// Peers each node pushes its signature table to per round (capped at
  /// cluster size - 1; 0 with gossip enabled = detection stays node-local,
  /// the gossip-off ablation arm).
  std::size_t fanout = 2;

  /// Simulation seconds between gossip rounds.
  double round_seconds = 0.5;

  /// Seed of the peer-selection and message-loss streams.  Rounds derive
  /// per-(round, node) SplitMix64 streams from it, so the exchange schedule
  /// is deterministic regardless of thread count.
  std::uint64_t seed = 1;

  /// Probability an individual node->peer message is dropped, drawn from a
  /// seeded net::FaultInjector rate rule (0 = lossless).
  double message_loss_rate = 0;
};

/// Per-node inline detection + signature table + quarantine.
struct DetectionPolicy {
  bool enabled = false;

  /// Detector tuning shared by every per-client detector instance.  The
  /// decay_clean_windows knob is what lets a node recover after a rotating
  /// attacker moves on.
  core::DetectorConfig detector;

  /// Per-client detector instances a node keeps (FIFO eviction of the
  /// oldest non-alarmed client past the cap; 0 = unbounded).
  std::size_t max_tracked_clients = 4096;

  /// Lifetime of an attack signature from its last refresh (simulation
  /// seconds).  Expired signatures are swept each gossip round and on
  /// lookup.
  double signature_ttl_seconds = 1.5;

  /// Bounded signature-table size (fresh inserts are rejected once full
  /// after an expiry sweep; 0 = unbounded).
  std::size_t max_signatures = 65536;

  /// Enforce: answer 429 + Retry-After at ingress for requests matching an
  /// active signature.  Off = detect-and-report only (shadow mode).
  bool quarantine_enabled = false;

  /// Retry-After value attached to quarantine 429s.
  double quarantine_retry_after_seconds = 30.0;

  /// Also quarantine by (base cache key, tiny-closed range shape) pattern,
  /// catching an attacker who rotates client identity as well as ingress
  /// node -- at the cost of collateral on legitimate tiny probes of the
  /// same URL (the false-positive arm the bench measures).
  bool pattern_quarantine = false;

  /// Gossip transport for the cluster this node joins.
  GossipPolicy gossip;
};

// ---------------------------------------------------------------------------
// Cache engine configuration (src/cdn/cache.h, docs/cache-model.md).
// Every knob defaults to "unbounded, single shard" so a profile without
// explicit cache configuration behaves exactly like the historic unbounded
// map and every committed CSV regenerates byte-identically.
// ---------------------------------------------------------------------------

/// Eviction policy of the byte-budgeted cache engine.
enum class CacheEvictionPolicy {
  /// Single FIFO queue: evict strictly in insertion order.  The naive
  /// baseline a random-query pollution flood flushes trivially.
  kFifoNaive,
  /// S3-FIFO (Yang et al., SOSP'23 shape): a small probationary queue
  /// absorbs new inserts, one-hit wonders are evicted from it without ever
  /// touching the main queue, re-accessed entries are promoted, and a ghost
  /// list of recently evicted key hashes readmits returning keys straight
  /// to main.  This is what keeps a 1-byte-range random-query flood from
  /// displacing the legit working set.
  kS3Fifo,
};

std::string_view cache_policy_name(CacheEvictionPolicy p) noexcept;

/// Byte-budgeted sharded cache knobs.  All entries -- full entities,
/// `#vary` variant markers, per-variant copies, `#neg` negative entries,
/// slice parts -- are charged against the budget.
struct CacheTraits {
  /// Total byte budget across all shards (key + entity bytes + fixed
  /// per-entry overhead).  0 = unbounded: no eviction, no admission
  /// control, identical behaviour to the historic unbounded cache.
  std::uint64_t max_bytes = 0;

  /// Independent shards (each with its own lock, queues and budget slice
  /// max_bytes / shards).  Entries shard by the hash of the *base* key
  /// (everything before the first '#'), so a URL's entity, variants,
  /// negative entry and slices always land in the same shard.
  std::size_t shards = 1;

  CacheEvictionPolicy policy = CacheEvictionPolicy::kS3Fifo;

  /// Fraction of a shard's budget given to the S3-FIFO small queue.
  double small_fraction = 0.10;

  /// Ghost list length per shard (recently evicted key hashes).
  std::size_t ghost_entries = 4096;

  /// Memory-pressure watermarks, as fractions of a shard's budget.  An
  /// insert that would push the shard past the high watermark first evicts
  /// down to the low watermark; if eviction cannot make room the insert is
  /// shed (admission reject) before the budget is ever exceeded.
  double low_watermark = 0.90;
  double high_watermark = 0.98;
};

/// Ingress request-header limits (section V-C: these bound the OBR n).
struct RequestHeaderLimits {
  /// Max total size of all header fields, counted as the serialized header
  /// block ("Name: value\r\n" per field).  Akamai: 32 KB; StackPath: ~81 KB.
  std::optional<std::size_t> total_header_bytes;

  /// Max size of a single header line "Name: value" (no CRLF).
  /// CDN77 / CDNsun: 16 KB.
  std::optional<std::size_t> single_header_line_bytes;

  /// Cloudflare's published constraint on the Range header:
  ///   RL + 2*HHL + RHL <= budget   (budget = 32411 bytes)
  /// where RL is the request-line size, HHL the Host header line size and
  /// RHL the Range header line size (all without CRLF).
  std::optional<std::size_t> cloudflare_range_budget;
};

/// Static identity and calibration data for one vendor.
struct VendorTraits {
  std::string name;

  /// Ingress limits applied before any processing.
  RequestHeaderLimits limits;

  /// Identity headers this vendor adds to every client-facing response
  /// (Server banner, trace ids, cache status...).  Order is preserved.
  http::Headers response_identity_headers;

  /// Calibration: total serialized size (status line + headers + 1-byte
  /// body) of this vendor's canonical single-range 206 response, fitted so
  /// the SBR amplification factors land on Table IV.  0 disables padding.
  std::size_t client_response_target_bytes = 0;

  /// Headers added to every back-to-origin request (Via, X-Forwarded-For,
  /// ...).  Their size participates in the *next* hop's ingress limits,
  /// which is what differentiates the max n per FCDN in Table V.
  http::Headers forward_headers;

  /// Boundary string used for multipart/byteranges responses built by this
  /// vendor.  Lengths are calibrated so the per-part framing overhead matches
  /// the fcdn-bcdn traffic of Table V.
  std::string multipart_boundary = "rangeamp_boundary";

  /// Extra headers this vendor writes into every part of a multipart
  /// response (Azure's verbose per-part framing).
  http::Headers multipart_part_extra_headers;

  /// How multi-range requests are answered from a held entity.
  MultiRangeReplyPolicy multi_reply = MultiRangeReplyPolicy::kCoalesce;

  /// Max ranges honored by kHonorOverlapping before falling back to
  /// kIgnoreRange (Azure: 64; 0 = unlimited).
  std::size_t multi_reply_max_ranges = 0;

  /// Ingress guard: reject requests whose Range header carries more than
  /// this many ranges (0 = off).  The range-count-cap mitigation of
  /// section VI-C.
  std::size_t ingress_max_range_count = 0;

  /// Whether full-entity responses are cached (Cloudflare "Bypass" page
  /// rules and similar configurations disable caching).
  bool cache_enabled = true;

  /// Cache freshness lifetime in (simulation) seconds; 0 = entries never
  /// expire.  Expired entries are revalidated with a conditional GET
  /// (If-None-Match) instead of refetched.  Requires a clock on the node.
  double cache_ttl_seconds = 0;

  /// Upstream failure handling (retry/backoff/timeout/degradation).  The
  /// defaults change nothing while no faults are injected.
  ResiliencePolicy resilience;

  /// Origin shielding: loop defense, request coalescing, circuit breaking.
  /// All off by default (no byte or behaviour change).
  OriginShieldPolicy shield;

  /// Byzantine-origin hardening: upstream response validation + memory
  /// budgets.  Mode defaults to kOff (no byte or behaviour change).
  ConformancePolicy conformance;

  /// Overload control: watermark shedding, deadline propagation, retry
  /// budgets.  All off by default (no byte or behaviour change).
  OverloadPolicy overload;

  /// Cache engine: byte budget, sharding, eviction policy.  Defaults to
  /// unbounded / single shard (no byte or behaviour change).
  CacheTraits cache;

  /// Inline RangeAmp detection, gossip signature propagation and quarantine.
  /// All off by default (no byte or behaviour change).
  DetectionPolicy detection;

  /// Emit "Via: 1.1 <node_id>" on forwarded upstream requests AND on every
  /// client-facing response (RFC 7230 section 5.7.1).  Off by default: the
  /// vendors' *canonical* Via lines already live in forward_headers /
  /// response_identity_headers where the paper documents them, and the
  /// calibrated byte counts must not move underneath the Table IV fit.
  /// When on, the Via line participates in byte accounting like any other
  /// serialized header (see DESIGN.md section 5).
  bool emit_via = false;

  /// Hop identity used by emit_via and as the Via pseudonym.  Empty =
  /// derived from the vendor name at profile construction; EdgeCluster
  /// suffixes it with the node index so multi-node Via chains are
  /// distinguishable.
  std::string node_id;

  /// Exclude the query string from the cache key -- the customer-side
  /// mitigation Cloudflare and Azure recommended in the paper's disclosure
  /// (section VII): it defeats the attacker's cache-busting query rotation.
  bool cache_ignore_query = false;

  /// Fixed Date header for deterministic byte counts.
  std::string date = "Tue, 07 Jul 2020 03:14:16 GMT";

  /// Computed at profile construction: padding applied to client-facing
  /// responses so the canonical 206 hits client_response_target_bytes.
  std::size_t response_pad_bytes = 0;
};

}  // namespace rangeamp::cdn
