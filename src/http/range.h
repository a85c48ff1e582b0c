// RFC 7233 byte-range grammar, resolution and range-set properties.
//
// Everything the RangeAmp attacks exploit is expressed in this vocabulary:
//
//   byte-ranges-specifier = bytes-unit "=" byte-range-set
//   byte-range-set  = 1#( byte-range-spec / suffix-byte-range-spec )
//   byte-range-spec = first-byte-pos "-" [ last-byte-pos ]
//   suffix-byte-range-spec = "-" suffix-length
//
// A ByteRangeSpec is one element of the set; a RangeSet is the whole header
// value, held as runs of equal consecutive elements, so the n copies of one
// range an OBR attacker sends are parsed, stored and spelled as one run.
// resolve() implements the satisfiability rules of RFC 7233 section 2.1;
// overlap/coalesce implement the security recommendations of section 6.1
// that vulnerable CDNs in the paper ignore.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rangeamp::http {

/// Digits in the decimal spelling of `v`.
inline std::size_t decimal_digits(std::uint64_t v) noexcept {
  std::size_t n = 1;
  for (; v >= 10; v /= 10) ++n;
  return n;
}

/// One element of a byte-range-set.
///
/// Exactly one of the three RFC 7233 spellings:
///   * closed : "first-last"
///   * open   : "first-"
///   * suffix : "-suffix" (the last `suffix` bytes)
/// Held as two positions and a kind, 24 bytes, so that a RangeRun is 32: the
/// parser writes one run per list element that differs from the one before.
class ByteRangeSpec {
  enum class Kind : std::uint8_t { kNone, kClosed, kOpen, kSuffix };

 public:
  /// A spec of no spelling: first(), last() and suffix() are all empty.
  ByteRangeSpec() = default;

  static ByteRangeSpec closed(std::uint64_t first, std::uint64_t last) {
    return {first, last, Kind::kClosed};
  }
  static ByteRangeSpec open(std::uint64_t first) {
    return {first, 0, Kind::kOpen};
  }
  static ByteRangeSpec suffix_of(std::uint64_t suffix) {
    return {suffix, 0, Kind::kSuffix};
  }

  bool is_closed() const noexcept { return kind_ == Kind::kClosed; }
  bool is_open() const noexcept { return kind_ == Kind::kOpen; }
  bool is_suffix() const noexcept { return kind_ == Kind::kSuffix; }

  /// first-byte-pos: set for a closed or an open spec.
  std::optional<std::uint64_t> first() const noexcept {
    if (is_closed() || is_open()) return pos_;
    return std::nullopt;
  }
  /// last-byte-pos: set for a closed spec.
  std::optional<std::uint64_t> last() const noexcept {
    if (is_closed()) return last_;
    return std::nullopt;
  }
  /// suffix-length: set for a suffix spec.
  std::optional<std::uint64_t> suffix() const noexcept {
    if (is_suffix()) return pos_;
    return std::nullopt;
  }

  /// RFC 7233 spelling of this spec, e.g. "0-0", "500-", "-2".
  std::string to_string() const;

  bool operator==(const ByteRangeSpec&) const = default;

 private:
  ByteRangeSpec(std::uint64_t pos, std::uint64_t last, Kind kind) noexcept
      : pos_(pos), last_(last), kind_(kind) {}

  std::uint64_t pos_ = 0;   ///< first-byte-pos, or suffix-length
  std::uint64_t last_ = 0;  ///< last-byte-pos of a closed spec, else 0
  Kind kind_ = Kind::kNone;
};

/// A resolved (satisfiable) range: inclusive absolute byte positions.
struct ResolvedRange {
  std::uint64_t first = 0;
  std::uint64_t last = 0;  ///< inclusive; first <= last

  std::uint64_t length() const noexcept { return last - first + 1; }
  bool overlaps(const ResolvedRange& o) const noexcept {
    return first <= o.last && o.first <= last;
  }
  /// True when the ranges overlap or are directly adjacent (coalescable).
  bool touches(const ResolvedRange& o) const noexcept {
    return first <= o.last + 1 && o.first <= last + 1;
  }
  bool operator==(const ResolvedRange&) const = default;
};

/// `count` consecutive list elements that all equal `spec`.
struct RangeRun {
  ByteRangeSpec spec;
  std::uint64_t count = 1;  ///< >= 1

  bool operator==(const RangeRun&) const = default;
};

class RangeSet;

/// Default cap on the Range header value length parse_range_header accepts.
/// A guard in the spirit of Envoy's range-header length limit: an
/// attacker-controlled header must not drive unbounded work.  The parser
/// stores one run per stretch of equal ranges, so what it allocates grows
/// with the runs it has parsed, never past what the value could hold, and a
/// run of repeats costs it a few memcmp calls over the stretch's bytes.  The default is deliberately generous -- the longest
/// header any RangeAmp experiment emits (StackPath's ~81 KB OBR case) stays
/// well inside it.
inline constexpr std::size_t kMaxRangeHeaderBytes = 256 * 1024;

/// Parses a Range header value.  Returns nullopt when the value does not
/// match the RFC 7233 grammar (unknown unit, empty set, first > last,
/// non-numeric positions, ...).  Per the RFC, a recipient MUST ignore a
/// malformed Range header, so callers treat nullopt as "no Range".
/// Values longer than `max_value_bytes` are rejected without being parsed
/// (0 disables the guard).
std::optional<RangeSet> parse_range_header(
    std::string_view value, std::size_t max_value_bytes = kMaxRangeHeaderBytes);

/// A parsed Range header value ("bytes=..." only; other units are rejected),
/// held as runs: each stretch of equal consecutive elements is one RangeRun.
/// Runs are canonical -- none is empty, and no two neighbours have equal
/// specs -- so two sets compare equal exactly when their lists do.
class RangeSet {
 public:
  RangeSet() = default;
  RangeSet(std::initializer_list<ByteRangeSpec> specs) {
    for (const ByteRangeSpec& spec : specs) push(spec);
  }

  /// Appends `count` elements equal to `spec`, folded into the last run when
  /// it has the same spec.  A count of 0 appends nothing.
  void push(const ByteRangeSpec& spec, std::uint64_t count = 1) {
    if (count == 0) return;
    count_ += count;
    if (!runs_.empty() && runs_.back().spec == spec) {
      runs_.back().count += count;
    } else {
      runs_.push_back({spec, count});
    }
  }

  const std::vector<RangeRun>& runs() const noexcept { return runs_; }
  bool empty() const noexcept { return count_ == 0; }
  /// Elements in the list, repeats included.
  std::uint64_t count() const noexcept { return count_; }
  /// The first element.  Requires !empty().
  const ByteRangeSpec& front() const noexcept { return runs_.front().spec; }

  /// Header value spelling: "bytes=spec1,spec2,...", every repeat spelled.
  std::string to_string() const;

  /// Exact bytes of to_string(), counted per run without writing.  Throws
  /// std::length_error when the spelling would not fit in memory.
  std::size_t string_size() const;

  /// Writes to_string()'s string_size() bytes at `out` and returns the end.
  char* write(char* out) const;

  bool operator==(const RangeSet&) const = default;

 private:
  friend std::optional<RangeSet> parse_range_header(std::string_view, std::size_t);

  std::vector<RangeRun> runs_;
  std::uint64_t count_ = 0;
};

/// Resolves one spec against a representation of `resource_size` bytes.
/// Returns nullopt when the spec is unsatisfiable for that size
/// (first >= size, suffix of 0, any range against an empty resource).
/// Inline: a node resolves every range of an OBR set in its one pass.
inline std::optional<ResolvedRange> resolve(const ByteRangeSpec& spec,
                                            std::uint64_t resource_size) noexcept {
  if (resource_size == 0) return std::nullopt;
  if (const auto suffix = spec.suffix()) {
    if (*suffix == 0) return std::nullopt;  // "-0" selects nothing
    const std::uint64_t len = std::min(*suffix, resource_size);
    return ResolvedRange{resource_size - len, resource_size - 1};
  }
  const auto first = spec.first();
  if (!first || *first >= resource_size) return std::nullopt;
  const auto last = spec.last();
  const std::uint64_t final_byte = resource_size - 1;
  return ResolvedRange{*first, last ? std::min(*last, final_byte) : final_byte};
}

/// Resolves a whole set, one range per element (runs expanded):
/// unsatisfiable members are dropped (RFC 7233 section 4.1: the server
/// generates parts only for satisfiable ranges).  An empty result means the
/// whole set is unsatisfiable -> 416.
std::vector<ResolvedRange> resolve_all(const RangeSet& set,
                                       std::uint64_t resource_size);

/// True when any two resolved ranges overlap.  O(n log n): it sorts a copy.
bool any_overlap(const std::vector<ResolvedRange>& ranges);

/// True when the ranges are in strictly ascending, non-touching order --
/// i.e. the shape a legitimate multi-threaded downloader produces.
bool is_ascending_disjoint(const std::vector<ResolvedRange>& ranges);

/// Merges overlapping/adjacent ranges into the minimal disjoint cover,
/// sorted ascending.  This is the "coalesce" mitigation of RFC 7233 §6.1.
std::vector<ResolvedRange> coalesce(std::vector<ResolvedRange> ranges);

/// Total body bytes the ranges select (sum of lengths, overlaps counted
/// multiply -- exactly what a vulnerable multi-part responder transmits).
std::uint64_t total_selected_bytes(const std::vector<ResolvedRange>& ranges);

/// Formats a Content-Range value: "bytes first-last/size".
std::string content_range(const ResolvedRange& r, std::uint64_t resource_size);

/// The most bytes a Content-Range value takes: "bytes ", three 20-digit
/// numbers and the '-' and '/' between them.
inline constexpr std::size_t kContentRangeMaxBytes = 6 + 3 * 20 + 2;

/// Writes content_range()'s bytes at `out`, which has room for
/// kContentRangeMaxBytes, and returns the end.
char* write_content_range(char* out, const ResolvedRange& r,
                          std::uint64_t resource_size) noexcept;

/// Formats an unsatisfied Content-Range value: "bytes */size" (416 responses).
std::string content_range_unsatisfied(std::uint64_t resource_size);

/// Parses a Content-Range value of the form "bytes first-last/size".
struct ContentRange {
  ResolvedRange range;
  std::uint64_t resource_size = 0;
  bool operator==(const ContentRange&) const = default;
};
std::optional<ContentRange> parse_content_range(std::string_view value);

}  // namespace rangeamp::http
