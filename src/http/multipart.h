// multipart/byteranges framing (RFC 7233 appendix A).
//
// A multi-part 206 body looks like:
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
// The per-part framing overhead (~100-160 bytes depending on the boundary
// string and the Content-Range digits) is why the OBR attack's measured
// amplification in Table V exceeds n * resource_size by a few percent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "http/body.h"
#include "http/headers.h"
#include "http/range.h"

namespace rangeamp::http {

/// One part of a multipart/byteranges payload.
struct BytesRangePart {
  ResolvedRange range;
  std::uint64_t resource_size = 0;
  std::string content_type;
  Body payload;
};

/// Writes one multipart/byteranges body; every producer in the tree (the
/// origin models and the CDN nodes) frames its parts through it, so there is
/// one framing implementation.  The text all part heads share -- delimiter,
/// the vendor's extra per-part fields, the Content-Type line,
/// "Content-Range: bytes " and "/size" CRLF CRLF -- is formatted once, in the
/// constructor.  Each part head is then one exact-size string whose three
/// numbers are written by std::to_chars, and sizes are digit-count
/// arithmetic that formats nothing.
///
/// The CRLF that ends a payload is written at the front of the next part head
/// (or of the closing delimiter), so a part over a synthetic payload costs one
/// literal chunk and one span.
class MultipartWriter {
 public:
  MultipartWriter(std::string_view boundary, std::string_view content_type,
                  std::uint64_t resource_size,
                  std::span<const HeaderField> extra_headers = {});

  /// Framing bytes part `r` adds around its payload: its head plus the CRLF
  /// after the payload.
  std::uint64_t part_framing_size(const ResolvedRange& r) const noexcept;

  /// Bytes of the closing delimiter line.
  std::uint64_t closing_size() const noexcept { return closing_.size() - 2; }

  /// Exact size of the body whose parts are `ranges`, each carrying
  /// r.length() payload bytes.
  std::uint64_t size(const std::vector<ResolvedRange>& ranges) const noexcept;

  /// Reserves room for `parts` parts.
  void reserve(std::size_t parts) { body_.reserve(2 * parts + 1); }

  /// Appends part `r`: its head, then the `length` bytes of `src` at
  /// [first, first+length).
  void add_part(const ResolvedRange& r, const Body& src, std::uint64_t first,
                std::uint64_t length);

  /// Appends the closing delimiter and hands over the body; the writer is
  /// spent afterwards.
  Body finish();

 private:
  std::string head_prefix_;  ///< CRLF "--" boundary ... "Content-Range: bytes "
  std::string head_suffix_;  ///< "/" size CRLF CRLF
  std::string closing_;      ///< CRLF "--" boundary "--" CRLF
  std::size_t parts_ = 0;
  Body body_;
};

/// Builds the multipart body for the given resolved ranges over `entity`
/// (the full representation).  `content_type` is the part-level type;
/// `boundary` must not occur in the payload (synthetic payloads make
/// collisions astronomically unlikely; callers use fixed vendor-flavored
/// boundaries).
Body build_multipart_byteranges(const Body& entity,
                                const std::vector<ResolvedRange>& ranges,
                                std::uint64_t resource_size,
                                std::string_view content_type,
                                std::string_view boundary);

/// Exact size of the body build_multipart_byteranges() would produce,
/// computed without touching payload bytes.
std::uint64_t multipart_byteranges_size(const std::vector<ResolvedRange>& ranges,
                                        std::uint64_t resource_size,
                                        std::string_view content_type,
                                        std::string_view boundary);

/// The Content-Type header value announcing the multipart body.
std::string multipart_content_type(std::string_view boundary);

/// Extracts the boundary parameter from a Content-Type value like
/// "multipart/byteranges; boundary=XYZ".  RFC 2046 quoted boundaries
/// (boundary="X") are accepted and unquoted.  Returns nullopt when the value
/// is not a multipart/byteranges type or the boundary falls outside the
/// RFC 2046 grammar (over 70 chars, characters outside bchars, trailing
/// space) -- a malformed boundary is an injection vector, not a parameter.
std::optional<std::string> boundary_from_content_type(std::string_view value);

/// Parses a materialized multipart/byteranges body back into parts.
/// Test/verification helper; returns nullopt on framing errors.
std::optional<std::vector<BytesRangePart>> parse_multipart_byteranges(
    std::string_view body, std::string_view boundary);

}  // namespace rangeamp::http
