// Apache-2.4-flavored origin server model.
//
// The paper's testbed origin is "Apache/2.4.18 with the default
// configuration applied" (section V).  This model reproduces the behaviours
// the experiments depend on:
//
//   * range support can be toggled -- the OBR attacker disables range
//     requests on the origin so it always answers 200 with the full entity
//     (section IV-C);
//   * single-range 206 with Content-Range, multi-range 206 as
//     multipart/byteranges;
//   * RFC 7233 / post-CVE-2011-3192 hygiene: overlapping or out-of-order
//     range sets are coalesced, and sets larger than `max_ranges` (Apache's
//     MaxRanges, default 200) fall back to a 200 full-entity response;
//   * a fully unsatisfiable set yields 416 with Content-Range "bytes */size".
//
// The server keeps a request log (unless switched off) so the policy scanner
// can diff what the client sent against what actually arrived behind the CDN
// (experiment 1).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "http/range.h"
#include "net/fault.h"
#include "net/handler.h"
#include "origin/resource_store.h"

namespace rangeamp::origin {

struct OriginConfig {
  /// Whether the origin honors Range (Accept-Ranges: bytes).  When false the
  /// Range header is ignored and every hit returns 200 + full entity.
  bool supports_ranges = true;

  /// Apache MaxRanges: sets with more ranges are answered with 200 + full
  /// entity (0 disables the limit).
  std::size_t max_ranges = 200;

  /// Coalesce overlapping/adjacent ranges before answering (Apache >= 2.2.20
  /// behaviour, the CVE-2011-3192 fix).  When false, ranges are honored
  /// verbatim -- useful to model naive servers in tests.
  bool coalesce_overlapping = true;

  /// Server identity banner.
  std::string server_banner = "Apache/2.4.18 (Ubuntu)";

  /// Fixed Date header value: experiments must be byte-deterministic.
  std::string date = "Tue, 07 Jul 2020 03:14:15 GMT";

  /// Boundary used for multipart/byteranges responses.
  std::string multipart_boundary = "0a1b2c3d4e5f6a7b";

  /// Stream full-entity 200 responses with Transfer-Encoding: chunked
  /// instead of Content-Length (dynamic-content servers).
  bool chunked_full_responses = false;

  /// Extra headers appended to every response (application-level headers a
  /// real deployment would add: Cache-Control, Vary, ...).  Benchmarks use
  /// this to match the paper testbed's response header footprint.
  http::Headers extra_headers;

  /// Deterministic failure modeling (non-owning; must outlive the server).
  /// When set, the injector is consulted once per handled request:
  ///   * kStatus faults answer an Apache-style error page with that status
  ///     (load balancer / app failure behind the origin's front);
  ///   * kTruncateBody faults serve the normal response with the body cut at
  ///     the scheduled byte while the framing headers keep promising the full
  ///     entity -- for chunked responses the cut lands mid-chunk, so
  ///     downstream de-framing fails exactly as it would on a died socket.
  /// kConnectionReset and kLatency are transport-level concerns; schedule
  /// them on the segment's transport (net::Transport::set_fault_injector)
  /// instead -- this layer ignores them.
  net::FaultInjector* fault_injector = nullptr;
};

class OriginServer final : public net::HttpHandler {
 public:
  explicit OriginServer(OriginConfig config = {}) : config_(std::move(config)) {}

  ResourceStore& resources() noexcept { return resources_; }
  const ResourceStore& resources() const noexcept { return resources_; }

  OriginConfig& config() noexcept { return config_; }
  const OriginConfig& config() const noexcept { return config_; }

  http::Response handle(const http::Request& request) override;

  /// Every request observed while the log is on, in arrival order (scanner
  /// input).
  const std::vector<http::Request>& request_log() const noexcept { return log_; }
  void clear_log() { log_.clear(); }

  /// Enables/disables the request log (on by default).  The scanner and
  /// tests read it; campaigns, which never do, switch it off.
  void set_keep_log(bool keep) { keep_log_ = keep; }

 private:
  http::Response respond_full(const Resource& res) const;
  http::Response respond_single_range(const Resource& res,
                                      const http::ResolvedRange& range) const;
  http::Response respond_multipart(const Resource& res,
                                   const std::vector<http::ResolvedRange>& ranges) const;
  http::Response respond_416(const Resource& res) const;
  http::Response error_response(int status, std::string_view text) const;
  /// Writes Date, Server and the extra headers, then `own` in order; a field
  /// with an empty name is one this response leaves out.  The block is sized
  /// before its first field, so it costs one allocation.
  void add_headers(http::Response& resp,
                   std::initializer_list<http::HeaderField> own) const;

  OriginConfig config_;
  ResourceStore resources_;
  bool keep_log_ = true;
  std::vector<http::Request> log_;
};

}  // namespace rangeamp::origin
