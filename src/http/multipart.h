// multipart/byteranges framing (RFC 7233 appendix A).
//
// A multi-part 206 body is a delimiter line per part, the part's header
// fields (Content-Type and Content-Range, plus any vendor extras), a blank
// line and the payload, then a closing delimiter; multipart.cc shows the
// exact bytes.  The per-part framing overhead (~100-160 bytes depending on
// the boundary string and the Content-Range digits) is why the OBR attack's
// measured amplification in Table V exceeds n * resource_size by a few
// percent.
//
// A run part may repeat: consecutive identical parts are one RunPart with a
// count, so the n identical parts of an OBR answer are sized, indexed and
// skipped over in O(1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
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

/// One part of a multipart run, repeated `count` times in a row: the range
/// it answers, and the position in the run's source body of the first of its
/// range.length() payload bytes.
struct RunPart {
  ResolvedRange range;
  std::uint64_t offset = 0;
  std::uint64_t count = 1;  ///< >= 1
};

/// Gathers a run's part list from ranges added in order, folding each
/// stretch of equal consecutive ranges into one part with a count.  The part
/// being folded is held apart from the list until its stretch ends, so a
/// repeat costs a compare and an addition.
class RunPartList {
 public:
  /// Adds `count` parts `range`, whose payload starts at `offset` in the
  /// source.  Requires count >= 1.
  void add(const ResolvedRange& range, std::uint64_t offset,
           std::uint64_t count = 1) {
    if (last_.count != 0 && last_.range == range) {
      last_.count += count;
      return;
    }
    if (last_.count != 0) parts_.push_back(last_);
    last_ = {range, offset, count};
  }

  /// The folded list.
  std::vector<RunPart> take() && {
    if (last_.count != 0) parts_.push_back(last_);
    return std::move(parts_);
  }

 private:
  std::vector<RunPart> parts_;
  RunPart last_{{}, 0, 0};  ///< count 0: nothing added yet
};

/// Writes multipart/byteranges bodies; every producer in the tree (the origin
/// models and the CDN nodes) frames its parts through it, so there is one
/// framing implementation.  The text all part heads share -- delimiter, the
/// vendor's extra per-part fields, the Content-Type line, the Content-Range
/// field name and unit, and "/size" CRLF CRLF -- is formatted once, in the
/// constructor; a part head adds only its two positions, and sizes are
/// digit-count arithmetic that formats nothing.
class MultipartWriter {
 public:
  MultipartWriter(std::string_view boundary, std::string_view content_type,
                  std::uint64_t resource_size,
                  const Headers& extra_headers = {});

  /// Exact size of the body whose parts are `ranges`, each carrying
  /// r.length() payload bytes.
  std::uint64_t size(const std::vector<ResolvedRange>& ranges) const noexcept;

  /// The body framing `parts` over `source`: one run chunk, whatever the
  /// number of parts (see MultipartRun).  A part with count k stands for k
  /// consecutive parts.  Requires every part's payload to lie inside
  /// `source`.  The writer's head text moves into the run.
  Body frame(Body source, std::vector<RunPart> parts) &&;

 private:
  friend class MultipartRun;

  /// Bytes of part `r`'s head, counted with its leading CRLF (which ends the
  /// previous payload).
  std::uint64_t head_size(const ResolvedRange& r) const noexcept;

  std::string head_prefix_;  ///< CRLF, delimiter, fields, Content-Range unit
  std::string head_suffix_;  ///< "/" size CRLF CRLF
  std::string closing_;      ///< CRLF "--" boundary "--" CRLF
};

/// An immutable multipart/byteranges body: the writer's head text, the
/// source body and the part list, in which a part may repeat (RunPart::
/// count).  Its size is summed once, in the constructor, one product per
/// listed part; its bytes exist only while write_to() generates them.  Body
/// holds it through RunSpan windows, so slicing, truncating and relaying an
/// n-part answer never touches its parts.
///
/// The bytes are the parts in order -- each head, then its payload, each
/// repeat in turn -- and the closing delimiter.  Every head and the closing
/// line start with the CRLF that ends the previous payload; the first head
/// has none, and a run without parts is only "--BOUNDARY--" CRLF.
class MultipartRun {
 public:
  MultipartRun(MultipartWriter framing, Body source, std::vector<RunPart> parts);

  std::uint64_t size() const noexcept { return size_; }

  /// Appends bytes [first, first+length) to `out`, in one pass over the
  /// parts the window touches; the repeats before the window are skipped
  /// by division.  Requires first + length <= size().
  void write_to(std::string& out, std::uint64_t first, std::uint64_t length) const;

 private:
  MultipartWriter framing_;
  Body source_;
  std::vector<RunPart> parts_;
  /// Where each listed part's first head starts, counted as if the body
  /// began with a CRLF like every other head: the body is that text from
  /// position 2 on.  In that count every repeat of a part is the same size.
  std::vector<std::uint64_t> starts_;
  std::uint64_t size_ = 0;
};

/// Builds the multipart body for the given resolved ranges over `entity`
/// (the full representation); consecutive equal ranges become one repeated
/// run part.  `content_type` is the part-level type;
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
