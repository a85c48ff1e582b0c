#include "http/serialize.h"

#include <charconv>

namespace rangeamp::http {
namespace {

// Parses the header block starting after the start line.  `cursor` points at
// the first header line; on success it is advanced past the blank line.
bool parse_header_block(std::string_view bytes, std::size_t& cursor, Headers& out) {
  while (true) {
    const auto eol = bytes.find("\r\n", cursor);
    if (eol == std::string_view::npos) return false;
    if (eol == cursor) {  // blank line: end of headers
      cursor = eol + 2;
      return true;
    }
    const std::string_view line = bytes.substr(cursor, eol - cursor);
    const auto colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) return false;
    std::string_view name = line.substr(0, colon);
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
      value.remove_suffix(1);
    }
    out.add(name, value);
    cursor = eol + 2;
  }
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t v = 0;
  if (s.empty()) return std::nullopt;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

}  // namespace

std::uint64_t serialized_size(const Request& req) noexcept {
  return req.request_line_size() + 2 + req.headers.serialized_size() + 2 +
         req.body.size();
}

std::uint64_t serialized_size(const Response& resp) noexcept {
  const std::size_t status_line =
      resp.version.size() + 1 + 3 + 1 + reason_phrase(resp.status).size();
  return status_line + 2 + resp.headers.serialized_size() + 2 + resp.body.size();
}

std::uint64_t serialized_size_truncated(const Response& resp,
                                        std::uint64_t body_bytes_received) noexcept {
  const std::uint64_t full = serialized_size(resp);
  const std::uint64_t body = resp.body.size();
  const std::uint64_t received = std::min(body, body_bytes_received);
  return full - body + received;
}

std::string to_bytes(const Request& req) {
  std::string out;
  out.reserve(static_cast<std::size_t>(serialized_size(req)));
  out.append(method_name(req.method));
  out.push_back(' ');
  out.append(req.target);
  out.push_back(' ');
  out.append(req.version);
  out.append("\r\n");
  out.append(req.headers.wire());
  out.append("\r\n");
  out.append(req.body.materialize());
  return out;
}

std::string to_bytes(const Response& resp) {
  std::string out;
  out.reserve(static_cast<std::size_t>(serialized_size(resp)));
  out.append(resp.version);
  out.push_back(' ');
  out.append(std::to_string(resp.status));
  out.push_back(' ');
  out.append(reason_phrase(resp.status));
  out.append("\r\n");
  out.append(resp.headers.wire());
  out.append("\r\n");
  out.append(resp.body.materialize());
  return out;
}

std::optional<RequestHead> parse_request_head(std::string_view bytes) {
  const auto eol = bytes.find("\r\n");
  if (eol == std::string_view::npos) return std::nullopt;
  const std::string_view line = bytes.substr(0, eol);
  const auto sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return std::nullopt;
  const auto sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return std::nullopt;

  RequestHead head;
  Request& req = head.request;
  const std::string_view method = line.substr(0, sp1);
  bool known = false;
  for (Method m : {Method::GET, Method::HEAD, Method::POST, Method::PUT,
                   Method::DELETE, Method::OPTIONS}) {
    if (method == method_name(m)) {
      req.method = m;
      known = true;
      break;
    }
  }
  if (!known) return std::nullopt;
  req.target = std::string{line.substr(sp1 + 1, sp2 - sp1 - 1)};
  req.version = std::string{line.substr(sp2 + 1)};
  if (req.target.empty() || !req.version.starts_with("HTTP/")) return std::nullopt;

  std::size_t cursor = eol + 2;
  if (!parse_header_block(bytes, cursor, req.headers)) return std::nullopt;
  head.header_bytes = cursor;

  if (auto cl = req.headers.get("Content-Length")) {
    auto v = parse_u64(*cl);
    if (!v) return std::nullopt;
    head.content_length = *v;
  }
  return head;
}

std::optional<ResponseHead> parse_response_head(std::string_view bytes) {
  const auto eol = bytes.find("\r\n");
  if (eol == std::string_view::npos) return std::nullopt;
  const std::string_view line = bytes.substr(0, eol);
  const auto sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return std::nullopt;
  const auto sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return std::nullopt;

  ResponseHead head;
  Response& resp = head.response;
  resp.version = std::string{line.substr(0, sp1)};
  if (!resp.version.starts_with("HTTP/")) return std::nullopt;
  const auto status = parse_u64(line.substr(sp1 + 1, sp2 - sp1 - 1));
  if (!status || *status < 100 || *status > 599) return std::nullopt;
  resp.status = static_cast<int>(*status);

  std::size_t cursor = eol + 2;
  if (!parse_header_block(bytes, cursor, resp.headers)) return std::nullopt;
  head.header_bytes = cursor;

  if (auto cl = resp.headers.get("Content-Length")) {
    auto v = parse_u64(*cl);
    if (!v) return std::nullopt;
    head.content_length = *v;
  }
  return head;
}

std::optional<Request> parse_request(std::string_view bytes) {
  auto head = parse_request_head(bytes);
  if (!head) return std::nullopt;
  const std::uint64_t cursor = head->header_bytes;
  if (bytes.size() - cursor < head->content_length) return std::nullopt;
  Request req = std::move(head->request);
  req.body = Body::literal(std::string{bytes.substr(
      static_cast<std::size_t>(cursor),
      static_cast<std::size_t>(head->content_length))});
  return req;
}

std::optional<Response> parse_response(std::string_view bytes) {
  auto head = parse_response_head(bytes);
  if (!head) return std::nullopt;
  const std::uint64_t cursor = head->header_bytes;
  Response resp = std::move(head->response);
  if (head->content_length) {
    if (bytes.size() - cursor < *head->content_length) return std::nullopt;
    resp.body = Body::literal(std::string{bytes.substr(
        static_cast<std::size_t>(cursor),
        static_cast<std::size_t>(*head->content_length))});
  } else {
    resp.body = Body::literal(
        std::string{bytes.substr(static_cast<std::size_t>(cursor))});
  }
  return resp;
}

}  // namespace rangeamp::http
