#include "http2/session.h"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace rangeamp::http2 {
namespace {

std::string lowercase(std::string_view s) {
  std::string out{s};
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

// RFC 7540 section 8.1.2.2: connection-specific headers must not appear.
bool connection_specific(std::string_view lower_name) {
  return lower_name == "connection" || lower_name == "keep-alive" ||
         lower_name == "proxy-connection" || lower_name == "transfer-encoding" ||
         lower_name == "upgrade" || lower_name == "te";
}

}  // namespace

std::vector<HeaderEntry> request_header_list(const http::Request& request) {
  std::vector<HeaderEntry> list;
  list.push_back({":method", std::string{http::method_name(request.method)}});
  list.push_back({":scheme", "https"});
  list.push_back({":authority", std::string{request.headers.get_or("Host", "")}});
  list.push_back({":path", request.target});
  for (const auto f : request.headers) {
    std::string name = lowercase(f.name);
    if (name == "host" || connection_specific(name)) continue;
    list.push_back({std::move(name), std::string{f.value}});
  }
  return list;
}

std::vector<HeaderEntry> response_header_list(const http::Response& response) {
  std::vector<HeaderEntry> list;
  list.push_back({":status", std::to_string(response.status)});
  for (const auto f : response.headers) {
    std::string name = lowercase(f.name);
    if (connection_specific(name)) continue;
    list.push_back({std::move(name), std::string{f.value}});
  }
  return list;
}

std::vector<Frame> Http2Session::frame_message(const std::string& header_block,
                                               const http::Body& body,
                                               std::uint32_t stream_id) const {
  std::vector<Frame> frames;
  const bool has_body = body.size() > 0;

  // HEADERS (+ CONTINUATION) carrying the block in max-frame-size pieces.
  std::size_t offset = 0;
  bool first = true;
  do {
    const std::size_t piece =
        std::min<std::size_t>(header_block.size() - offset, max_frame_size_);
    Frame frame;
    frame.type = first ? FrameType::kHeaders : FrameType::kContinuation;
    frame.stream_id = stream_id;
    frame.payload = http::Body::literal(header_block.substr(offset, piece));
    offset += piece;
    if (offset >= header_block.size()) frame.flags |= kFlagEndHeaders;
    if (first && !has_body) frame.flags |= kFlagEndStream;
    frames.push_back(std::move(frame));
    first = false;
  } while (offset < header_block.size());

  // DATA frames.
  std::uint64_t sent = 0;
  const std::uint64_t total = body.size();
  while (sent < total) {
    const std::uint64_t piece = std::min<std::uint64_t>(total - sent, max_frame_size_);
    Frame frame;
    frame.type = FrameType::kData;
    frame.stream_id = stream_id;
    frame.payload = body.slice(sent, piece);
    sent += piece;
    if (sent >= total) frame.flags |= kFlagEndStream;
    frames.push_back(std::move(frame));
  }
  return frames;
}

std::vector<Frame> Http2Session::encode_request(const http::Request& request,
                                                std::uint32_t stream_id) {
  return frame_message(request_encoder_.encode(request_header_list(request)),
                       request.body, stream_id);
}

std::vector<Frame> Http2Session::encode_response(const http::Response& response,
                                                 std::uint32_t stream_id) {
  return frame_message(response_encoder_.encode(response_header_list(response)),
                       response.body, stream_id);
}

std::optional<std::pair<std::vector<HeaderEntry>, http::Body>> Http2Peer::collect(
    const std::vector<Frame>& frames, Decoder& decoder) {
  std::string header_block;
  http::Body body;
  bool headers_done = false;
  for (const Frame& frame : frames) {
    switch (frame.type) {
      case FrameType::kHeaders:
      case FrameType::kContinuation:
        if (headers_done) return std::nullopt;
        header_block += frame.payload.materialize();
        if (frame.end_headers()) headers_done = true;
        break;
      case FrameType::kData:
        if (!headers_done) return std::nullopt;
        body.append_body(frame.payload);
        break;
      default:
        break;  // control frames are transparent here
    }
  }
  if (!headers_done) return std::nullopt;
  auto headers = decoder.decode(header_block);
  if (!headers) return std::nullopt;
  return std::make_pair(std::move(*headers), std::move(body));
}

std::optional<http::Request> Http2Peer::decode_request(
    const std::vector<Frame>& frames) {
  auto collected = collect(frames, request_decoder_);
  if (!collected) return std::nullopt;
  auto& [headers, body] = *collected;

  http::Request request;
  request.version = "HTTP/2.0";
  request.body = std::move(body);
  bool saw_method = false, saw_path = false;
  for (const auto& h : headers) {
    if (h.name == ":method") {
      saw_method = true;
      bool known = false;
      for (const http::Method m :
           {http::Method::GET, http::Method::HEAD, http::Method::POST,
            http::Method::PUT, http::Method::DELETE, http::Method::OPTIONS}) {
        if (h.value == http::method_name(m)) {
          request.method = m;
          known = true;
        }
      }
      if (!known) return std::nullopt;
    } else if (h.name == ":path") {
      saw_path = true;
      request.target = h.value;
    } else if (h.name == ":authority") {
      request.headers.add("Host", h.value);
    } else if (h.name == ":scheme") {
      // carried implicitly
    } else {
      request.headers.add(h.name, h.value);
    }
  }
  if (!saw_method || !saw_path) return std::nullopt;
  return request;
}

std::optional<http::Response> Http2Peer::decode_response(
    const std::vector<Frame>& frames) {
  auto collected = collect(frames, response_decoder_);
  if (!collected) return std::nullopt;
  auto& [headers, body] = *collected;

  http::Response response;
  response.version = "HTTP/2.0";
  response.body = std::move(body);
  bool saw_status = false;
  for (const auto& h : headers) {
    if (h.name == ":status") {
      int status = 0;
      const auto [ptr, ec] =
          std::from_chars(h.value.data(), h.value.data() + h.value.size(), status);
      if (ec != std::errc{} || ptr != h.value.data() + h.value.size()) {
        return std::nullopt;
      }
      response.status = status;
      saw_status = true;
    } else {
      response.headers.add(h.name, h.value);
    }
  }
  if (!saw_status) return std::nullopt;
  return response;
}

}  // namespace rangeamp::http2
