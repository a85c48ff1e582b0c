#include "origin/origin_server.h"

#include "http/chunked.h"
#include "http/date.h"
#include "http/multipart.h"
#include "http/range.h"

namespace rangeamp::origin {

using http::Body;
using http::Request;
using http::Response;

void OriginServer::add_common_headers(Response& resp,
                                      std::size_t own_fields) const {
  resp.headers.reserve(2 + config_.extra_headers.size() + own_fields);
  resp.headers.add("Date", config_.date);
  resp.headers.add("Server", config_.server_banner);
  for (const auto& f : config_.extra_headers) resp.headers.add(f.name, f.value);
}

Response OriginServer::error_response(int status, std::string_view text) const {
  Response resp;
  resp.status = status;
  add_common_headers(resp, 3);
  resp.headers.add("Content-Type", "text/html; charset=iso-8859-1");
  resp.body = Body::literal(std::string{text});
  resp.headers.add("Content-Length", std::to_string(resp.body.size()));
  resp.headers.add("Connection", "keep-alive");
  return resp;
}

Response OriginServer::respond_full(const Resource& res) const {
  Response resp;
  resp.status = http::kOk;
  add_common_headers(resp, 6);
  resp.headers.add("Last-Modified", res.last_modified);
  resp.headers.add("ETag", res.etag);
  if (config_.supports_ranges) resp.headers.add("Accept-Ranges", "bytes");
  resp.headers.add("Content-Length", std::to_string(res.size()));
  resp.headers.add("Content-Type", res.content_type);
  resp.headers.add("Connection", "keep-alive");
  resp.body = res.entity;
  if (config_.chunked_full_responses) http::apply_chunked_coding(resp);
  return resp;
}

Response OriginServer::respond_single_range(const Resource& res,
                                            const http::ResolvedRange& range) const {
  Response resp;
  resp.status = http::kPartialContent;
  add_common_headers(resp, 7);
  resp.headers.add("Last-Modified", res.last_modified);
  resp.headers.add("ETag", res.etag);
  resp.headers.add("Accept-Ranges", "bytes");
  resp.headers.add("Content-Length", std::to_string(range.length()));
  resp.headers.add("Content-Range", http::content_range(range, res.size()));
  resp.headers.add("Content-Type", res.content_type);
  resp.headers.add("Connection", "keep-alive");
  resp.body = res.entity.slice(range.first, range.length());
  return resp;
}

Response OriginServer::respond_multipart(
    const Resource& res, const std::vector<http::ResolvedRange>& ranges) const {
  Response resp;
  resp.status = http::kPartialContent;
  add_common_headers(resp, 6);
  resp.headers.add("Last-Modified", res.last_modified);
  resp.headers.add("ETag", res.etag);
  resp.headers.add("Accept-Ranges", "bytes");
  resp.body = http::build_multipart_byteranges(res.entity, ranges, res.size(),
                                               res.content_type,
                                               config_.multipart_boundary);
  resp.headers.add("Content-Length", std::to_string(resp.body.size()));
  resp.headers.add("Content-Type",
                   http::multipart_content_type(config_.multipart_boundary));
  resp.headers.add("Connection", "keep-alive");
  return resp;
}

Response OriginServer::respond_416(const Resource& res) const {
  Response resp;
  resp.status = http::kRangeNotSatisfiable;
  add_common_headers(resp, 4);
  resp.headers.add("Content-Range", http::content_range_unsatisfied(res.size()));
  resp.headers.add("Content-Length", "0");
  resp.headers.add("Content-Type", res.content_type);
  resp.headers.add("Connection", "keep-alive");
  return resp;
}

Response OriginServer::handle(const Request& request) {
  if (keep_log_) log_.push_back(request);

  std::optional<net::FaultSpec> fault;
  if (config_.fault_injector) fault = config_.fault_injector->decide(request);
  if (fault && fault->action == net::FaultAction::kStatus) {
    return error_response(fault->status,
                          "<html>" + std::to_string(fault->status) +
                              " Origin Fault</html>");
  }

  if (request.method != http::Method::GET && request.method != http::Method::HEAD) {
    return error_response(http::kBadRequest, "<html>400 Bad Request</html>");
  }
  const Resource* res = resources_.find(request.path());
  if (res == nullptr) {
    return error_response(http::kNotFound, "<html>404 Not Found</html>");
  }

  // RFC 7232: If-None-Match with a current validator short-circuits to 304;
  // If-Modified-Since does the same by instant comparison (it is only
  // consulted when If-None-Match is absent, per section 3.3).
  const auto not_modified_response = [&] {
    Response not_modified;
    not_modified.status = 304;
    add_common_headers(not_modified, 3);
    not_modified.headers.add("ETag", res->etag);
    not_modified.headers.add("Last-Modified", res->last_modified);
    not_modified.headers.add("Connection", "keep-alive");
    return not_modified;
  };
  if (const auto inm = request.headers.get("If-None-Match")) {
    if (*inm == res->etag || *inm == "*") return not_modified_response();
  } else if (const auto ims = request.headers.get("If-Modified-Since")) {
    const auto since = http::parse_http_date(*ims);
    const auto modified = http::parse_http_date(res->last_modified);
    if (since && modified && *modified <= *since) return not_modified_response();
  }

  // RFC 7233 section 3.2: If-Range makes the Range conditional on the
  // validator still matching -- a stale validator downgrades to a full 200.
  bool if_range_ok = true;
  if (const auto if_range = request.headers.get("If-Range")) {
    if_range_ok = *if_range == res->etag || *if_range == res->last_modified;
  }

  Response resp;
  const auto range_value = request.headers.get("Range");
  if (!config_.supports_ranges || !range_value || !if_range_ok) {
    resp = respond_full(*res);
  } else {
    // A malformed Range header MUST be ignored (RFC 7233 section 3.1).
    const auto set = http::parse_range_header(*range_value);
    if (!set) {
      resp = respond_full(*res);
    } else if (config_.max_ranges != 0 && set->count() > config_.max_ranges) {
      // Apache MaxRanges exceeded: ignore the header, serve the entity.
      resp = respond_full(*res);
    } else {
      auto resolved = http::resolve_all(*set, res->size());
      if (resolved.empty()) {
        resp = respond_416(*res);
      } else {
        if (config_.coalesce_overlapping &&
            !http::is_ascending_disjoint(resolved)) {
          resolved = http::coalesce(std::move(resolved));
        }
        if (resolved.size() == 1) {
          resp = respond_single_range(*res, resolved.front());
        } else {
          resp = respond_multipart(*res, resolved);
        }
      }
    }
  }
  if (request.method == http::Method::HEAD) resp.body = Body{};
  // Truncation happens after framing (Content-Length / chunked coding are
  // already in place), so the message arrives short of its own promise.
  if (fault && fault->action == net::FaultAction::kTruncateBody &&
      fault->truncate_body_at < resp.body.size()) {
    resp.body = resp.body.slice(0, fault->truncate_body_at);
  }
  return resp;
}

}  // namespace rangeamp::origin
