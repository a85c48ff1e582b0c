#include "http/multipart.h"

#include <algorithm>
#include <cassert>
#include <charconv>

#include "http/headers.h"

namespace rangeamp::http {
namespace {

std::size_t decimal_digits(std::uint64_t v) noexcept {
  std::size_t n = 1;
  for (; v >= 10; v /= 10) ++n;
  return n;
}

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

MultipartWriter::MultipartWriter(std::string_view boundary,
                                 std::string_view content_type,
                                 std::uint64_t resource_size,
                                 std::span<const HeaderField> extra_headers) {
  head_prefix_.append("\r\n--").append(boundary).append("\r\n");
  for (const auto& f : extra_headers) {
    head_prefix_.append(f.name).append(": ").append(f.value).append("\r\n");
  }
  head_prefix_.append("Content-Type: ").append(content_type).append("\r\n");
  head_prefix_.append("Content-Range: bytes ");
  head_suffix_.append("/").append(std::to_string(resource_size)).append("\r\n\r\n");
  closing_.append("\r\n--").append(boundary).append("--\r\n");
}

std::uint64_t MultipartWriter::part_framing_size(
    const ResolvedRange& r) const noexcept {
  // The leading CRLF of head_prefix_ belongs to the previous payload; this
  // part's own CRLF is counted instead, so the two cancel.
  return head_prefix_.size() + decimal_digits(r.first) + 1 +
         decimal_digits(r.last) + head_suffix_.size();
}

std::uint64_t MultipartWriter::size(
    const std::vector<ResolvedRange>& ranges) const noexcept {
  std::uint64_t total = closing_size();
  for (const auto& r : ranges) total += part_framing_size(r) + r.length();
  return total;
}

void MultipartWriter::add_part(const ResolvedRange& r, const Body& src,
                               std::uint64_t first, std::uint64_t length) {
  const std::string_view prefix =
      std::string_view{head_prefix_}.substr(parts_ == 0 ? 2 : 0);
  std::string head(prefix.size() + decimal_digits(r.first) + 1 +
                       decimal_digits(r.last) + head_suffix_.size(),
                   '\0');
  char* out = std::copy(prefix.begin(), prefix.end(), head.data());
  char* const end = head.data() + head.size();
  out = std::to_chars(out, end, r.first).ptr;
  *out++ = '-';
  out = std::to_chars(out, end, r.last).ptr;
  std::copy(head_suffix_.begin(), head_suffix_.end(), out);
  body_.append(std::move(head));
  body_.append_slice(src, first, length);
  ++parts_;
}

Body MultipartWriter::finish() {
  body_.append_literal(std::string_view{closing_}.substr(parts_ == 0 ? 2 : 0));
  return std::move(body_);
}

Body build_multipart_byteranges(const Body& entity,
                                const std::vector<ResolvedRange>& ranges,
                                std::uint64_t resource_size,
                                std::string_view content_type,
                                std::string_view boundary) {
  assert(entity.size() == resource_size);
  MultipartWriter writer(boundary, content_type, resource_size);
  writer.reserve(ranges.size());
  for (const auto& r : ranges) writer.add_part(r, entity, r.first, r.length());
  return writer.finish();
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
