#include "http/multipart.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <iterator>
#include <memory>

#include "http/headers.h"

namespace rangeamp::http {
namespace {

// RFC 2046 section 5.1.1: boundary := 0*69<bchars> bcharsnospace, i.e. at
// most 70 characters from a fixed alphabet, not ending in a space.  A
// boundary outside the grammar is an injection vector (a crafted one can
// alias part delimiters), so it is rejected rather than used.
bool is_bchar(char c) noexcept {
  if ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
      (c >= 'A' && c <= 'Z')) {
    return true;
  }
  constexpr std::string_view kSpecials = "'()+_,-./:=? ";
  return kSpecials.find(c) != std::string_view::npos;
}

bool valid_boundary(std::string_view b) noexcept {
  if (b.empty() || b.size() > 70 || b.back() == ' ') return false;
  for (const char c : b) {
    if (!is_bchar(c)) return false;
  }
  return true;
}

}  // namespace

// A body of two parts over a 1000-byte resource:
//
//   --BOUNDARY\r\n
//   Content-Type: image/jpeg\r\n
//   Content-Range: bytes 1-1/1000\r\n
//   \r\n
//   <payload bytes>\r\n
//   --BOUNDARY\r\n
//   ...
//   --BOUNDARY--\r\n
//
// The CRLF that ends a payload is written at the front of the next head (or
// of the closing line), so every head is head_prefix_, the two positions and
// head_suffix_.
MultipartWriter::MultipartWriter(std::string_view boundary,
                                 std::string_view content_type,
                                 std::uint64_t resource_size,
                                 const Headers& extra_headers) {
  head_prefix_.append("\r\n--").append(boundary).append("\r\n");
  head_prefix_.append(extra_headers.wire());
  head_prefix_.append("Content-Type: ").append(content_type).append("\r\n");
  head_prefix_.append("Content-Range: bytes ");
  head_suffix_.append("/").append(std::to_string(resource_size)).append("\r\n\r\n");
  closing_.append("\r\n--").append(boundary).append("--\r\n");
}

std::uint64_t MultipartWriter::head_size(const ResolvedRange& r) const noexcept {
  return head_prefix_.size() + decimal_digits(r.first) + 1 +
         decimal_digits(r.last) + head_suffix_.size();
}

std::uint64_t MultipartWriter::size(
    const std::vector<ResolvedRange>& ranges) const noexcept {
  // The body drops the first head's CRLF, or the closing line's when there
  // is no part.
  std::uint64_t total = closing_.size() - 2;
  for (const auto& r : ranges) total += head_size(r) + r.length();
  return total;
}

Body MultipartWriter::frame(Body source, std::vector<RunPart> parts) && {
  auto run = std::make_shared<const MultipartRun>(std::move(*this), std::move(source),
                                                  std::move(parts));
  const std::uint64_t size = run->size();
  Body body;
  body.append(RunSpan{std::move(run), 0, size});
  return body;
}

MultipartRun::MultipartRun(MultipartWriter framing, Body source,
                           std::vector<RunPart> parts)
    : framing_(std::move(framing)),
      source_(std::move(source)),
      parts_(std::move(parts)) {
  [[maybe_unused]] const std::uint64_t source_size = source_.size();
  starts_.reserve(parts_.size());
  std::uint64_t pos = 0;
  for (const auto& p : parts_) {
    assert(p.count >= 1);
    assert(p.offset <= source_size && p.range.length() <= source_size - p.offset);
    starts_.push_back(pos);
    pos += p.count * (framing_.head_size(p.range) + p.range.length());
  }
  size_ = pos + framing_.closing_.size() - 2;
}

void MultipartRun::write_to(std::string& out, std::uint64_t first,
                            std::uint64_t length) const {
  assert(first <= size_ && length <= size_ - first);
  // Positions below count the leading CRLF the body drops (see starts_).
  const std::uint64_t begin = first + 2;
  const std::uint64_t end = begin + length;
  std::uint64_t pos = 0;  // where the next piece starts
  // Appends the part of `piece` that falls inside [begin, end).
  const auto emit = [&](std::string_view piece) {
    const std::uint64_t piece_end = pos + piece.size();
    if (pos < end && piece_end > begin) {
      const std::uint64_t from = std::max(pos, begin);
      const std::uint64_t to = std::min(piece_end, end);
      out.append(piece.substr(from - pos, to - from));
    }
    pos = piece_end;
  };
  // Payloads read the source through a cursor: the chunk holding the next
  // byte and where that chunk starts.  Parts usually move forward through
  // the source, so a part costs O(1) chunk steps.
  const std::vector<BodyChunk>& chunks = source_.chunks();
  std::size_t chunk = 0;
  std::uint64_t chunk_start = 0;
  const auto emit_payload = [&](std::uint64_t offset, std::uint64_t payload) {
    const std::uint64_t start = pos;
    pos += payload;
    const std::uint64_t from = std::max(start, begin);
    const std::uint64_t to = std::min(pos, end);
    if (from >= to) return;
    std::uint64_t at = offset + (from - start);
    std::uint64_t left = to - from;
    if (at < chunk_start) {
      chunk = 0;
      chunk_start = 0;
    }
    while (left > 0) {
      const std::uint64_t chunk_len = chunk_size(chunks[chunk]);
      if (at >= chunk_start + chunk_len) {
        chunk_start += chunk_len;
        ++chunk;
        continue;
      }
      const std::uint64_t take = std::min(chunk_start + chunk_len - at, left);
      write_chunk(out, chunks[chunk], at - chunk_start, take);
      at += take;
      left -= take;
    }
  };

  // Start at the last part whose first head begins at or before `begin`,
  // past its repeats that end there or before.
  std::size_t i = static_cast<std::size_t>(
      std::upper_bound(starts_.begin(), starts_.end(), begin) - starts_.begin());
  std::uint64_t skip = 0;
  if (i > 0) {
    pos = starts_[--i];
    const RunPart& p = parts_[i];
    const std::uint64_t each = framing_.head_size(p.range) + p.range.length();
    skip = std::min((begin - pos) / each, p.count);
    pos += skip * each;
  }
  char digits[41];  // "first-last": a 64-bit position has at most 20 digits
  for (; i < parts_.size() && pos < end; ++i, skip = 0) {
    const RunPart& p = parts_[i];
    char* last = std::to_chars(digits, digits + 20, p.range.first).ptr;
    *last++ = '-';
    last = std::to_chars(last, std::end(digits), p.range.last).ptr;
    const std::string_view positions(digits, static_cast<std::size_t>(last - digits));
    for (std::uint64_t k = skip; k < p.count && pos < end; ++k) {
      emit(framing_.head_prefix_);
      emit(positions);
      emit(framing_.head_suffix_);
      emit_payload(p.offset, p.range.length());
    }
  }
  if (pos < end) emit(framing_.closing_);
}

Body build_multipart_byteranges(const Body& entity,
                                const std::vector<ResolvedRange>& ranges,
                                std::uint64_t resource_size,
                                std::string_view content_type,
                                std::string_view boundary) {
  assert(entity.size() == resource_size);
  RunPartList parts;
  for (const auto& r : ranges) parts.add(r, r.first);
  return MultipartWriter(boundary, content_type, resource_size)
      .frame(entity, std::move(parts).take());
}

std::uint64_t multipart_byteranges_size(const std::vector<ResolvedRange>& ranges,
                                        std::uint64_t resource_size,
                                        std::string_view content_type,
                                        std::string_view boundary) {
  return MultipartWriter(boundary, content_type, resource_size).size(ranges);
}

std::string multipart_content_type(std::string_view boundary) {
  std::string out = "multipart/byteranges; boundary=";
  out.append(boundary);
  return out;
}

std::optional<std::string> boundary_from_content_type(std::string_view value) {
  constexpr std::string_view kType = "multipart/byteranges";
  if (!value.starts_with(kType)) return std::nullopt;
  const auto pos = value.find("boundary=");
  if (pos == std::string_view::npos) return std::nullopt;
  std::string_view b = value.substr(pos + 9);
  // Strip optional quotes and trailing parameters.
  if (!b.empty() && b.front() == '"') {
    b.remove_prefix(1);
    const auto q = b.find('"');
    if (q == std::string_view::npos) return std::nullopt;
    b = b.substr(0, q);
  } else {
    const auto sc = b.find(';');
    if (sc != std::string_view::npos) b = b.substr(0, sc);
  }
  if (!valid_boundary(b)) return std::nullopt;
  return std::string{b};
}

std::optional<std::vector<BytesRangePart>> parse_multipart_byteranges(
    std::string_view body, std::string_view boundary) {
  const std::string delim = "--" + std::string{boundary};
  const std::string closing = delim + "--";
  std::vector<BytesRangePart> parts;

  std::size_t cursor = 0;
  while (true) {
    const auto start = body.find(delim, cursor);
    if (start == std::string_view::npos) return std::nullopt;
    // Closing delimiter?
    if (body.compare(start, closing.size(), closing) == 0) break;
    std::size_t line_end = body.find("\r\n", start);
    if (line_end == std::string_view::npos) return std::nullopt;
    std::size_t pos = line_end + 2;

    BytesRangePart part;
    std::optional<ContentRange> cr;
    // Part headers until blank line.
    while (true) {
      const auto eol = body.find("\r\n", pos);
      if (eol == std::string_view::npos) return std::nullopt;
      if (eol == pos) {  // blank line
        pos = eol + 2;
        break;
      }
      const std::string_view line = body.substr(pos, eol - pos);
      const auto colon = line.find(':');
      if (colon == std::string_view::npos) return std::nullopt;
      std::string_view name = line.substr(0, colon);
      std::string_view value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      if (iequals(name, "Content-Type")) {
        part.content_type = std::string{value};
      } else if (iequals(name, "Content-Range")) {
        cr = parse_content_range(value);
        if (!cr) return std::nullopt;
      }
      pos = eol + 2;
    }
    if (!cr) return std::nullopt;
    part.range = cr->range;
    part.resource_size = cr->resource_size;
    // Overflow-safe: a 20-digit Content-Range must not wrap `len + 2`.
    const std::uint64_t len = part.range.length();
    const std::uint64_t rest = body.size() - pos;
    if (len > rest || rest - len < 2) return std::nullopt;
    part.payload = Body::literal(std::string{body.substr(pos, len)});
    pos += len;
    if (body.compare(pos, 2, "\r\n") != 0) return std::nullopt;
    parts.push_back(std::move(part));
    cursor = pos + 2;
  }
  return parts;
}

}  // namespace rangeamp::http
