#include "origin/origin_server.h"

#include <charconv>

#include "http/chunked.h"
#include "http/date.h"
#include "http/multipart.h"
#include "http/range.h"

namespace rangeamp::origin {

using http::Body;
using http::Request;
using http::Response;

namespace {

// The decimal spelling of `v`, written into `out`.
std::string_view decimal(char (&out)[20], std::uint64_t v) noexcept {
  return {out, std::to_chars(out, out + sizeof out, v).ptr};
}

}  // namespace

void OriginServer::add_headers(Response& resp,
                               std::initializer_list<http::HeaderField> own) const {
  std::size_t bytes = http::Headers::field_bytes("Date", config_.date.size()) +
                      http::Headers::field_bytes("Server", config_.server_banner.size()) +
                      config_.extra_headers.serialized_size();
  for (const auto& f : own) {
    if (!f.name.empty()) bytes += http::Headers::field_bytes(f.name, f.value.size());
  }
  resp.headers.reserve(bytes);
  resp.headers.add("Date", config_.date);
  resp.headers.add("Server", config_.server_banner);
  resp.headers.append(config_.extra_headers);
  for (const auto& f : own) {
    if (!f.name.empty()) resp.headers.add(f.name, f.value);
  }
}

Response OriginServer::error_response(int status, std::string_view text) const {
  Response resp;
  resp.status = status;
  resp.body = Body::literal(std::string{text});
  char length[20];
  add_headers(resp, {{"Content-Type", "text/html; charset=iso-8859-1"},
                     {"Content-Length", decimal(length, resp.body.size())},
                     {"Connection", "keep-alive"}});
  return resp;
}

Response OriginServer::respond_full(const Resource& res) const {
  Response resp;
  resp.status = http::kOk;
  char length[20];
  add_headers(resp, {{"Last-Modified", res.last_modified},
                     {"ETag", res.etag},
                     {config_.supports_ranges ? "Accept-Ranges" : "", "bytes"},
                     {"Content-Length", decimal(length, res.size())},
                     {"Content-Type", res.content_type},
                     {"Connection", "keep-alive"}});
  resp.body = res.entity;
  if (config_.chunked_full_responses) http::apply_chunked_coding(resp);
  return resp;
}

Response OriginServer::respond_single_range(const Resource& res,
                                            const http::ResolvedRange& range) const {
  Response resp;
  resp.status = http::kPartialContent;
  char length[20];
  char content_range[http::kContentRangeMaxBytes];
  add_headers(resp, {{"Last-Modified", res.last_modified},
                     {"ETag", res.etag},
                     {"Accept-Ranges", "bytes"},
                     {"Content-Length", decimal(length, range.length())},
                     {"Content-Range",
                      {content_range,
                       http::write_content_range(content_range, range, res.size())}},
                     {"Content-Type", res.content_type},
                     {"Connection", "keep-alive"}});
  resp.body = res.entity.slice(range.first, range.length());
  return resp;
}

Response OriginServer::respond_multipart(
    const Resource& res, const std::vector<http::ResolvedRange>& ranges) const {
  Response resp;
  resp.status = http::kPartialContent;
  resp.body = http::build_multipart_byteranges(res.entity, ranges, res.size(),
                                               res.content_type,
                                               config_.multipart_boundary);
  char length[20];
  add_headers(resp, {{"Last-Modified", res.last_modified},
                     {"ETag", res.etag},
                     {"Accept-Ranges", "bytes"},
                     {"Content-Length", decimal(length, resp.body.size())},
                     {"Content-Type",
                      http::multipart_content_type(config_.multipart_boundary)},
                     {"Connection", "keep-alive"}});
  return resp;
}

Response OriginServer::respond_416(const Resource& res) const {
  Response resp;
  resp.status = http::kRangeNotSatisfiable;
  add_headers(resp, {{"Content-Range", http::content_range_unsatisfied(res.size())},
                     {"Content-Length", "0"},
                     {"Content-Type", res.content_type},
                     {"Connection", "keep-alive"}});
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
    add_headers(not_modified, {{"ETag", res->etag},
                               {"Last-Modified", res->last_modified},
                               {"Connection", "keep-alive"}});
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
