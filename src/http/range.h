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
// value.  resolve() implements the satisfiability rules of RFC 7233 section
// 2.1; overlap/coalesce implement the security recommendations of section 6.1
// that vulnerable CDNs in the paper ignore.
#pragma once

#include <algorithm>
#include <cstdint>
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
///   * first && last   : "first-last"   (closed range)
///   * first && !last  : "first-"       (open-ended range)
///   * suffix          : "-suffix"      (suffix range, last `suffix` bytes)
struct ByteRangeSpec {
  std::optional<std::uint64_t> first;
  std::optional<std::uint64_t> last;
  std::optional<std::uint64_t> suffix;

  static ByteRangeSpec closed(std::uint64_t first, std::uint64_t last) {
    return {first, last, std::nullopt};
  }
  static ByteRangeSpec open(std::uint64_t first) {
    return {first, std::nullopt, std::nullopt};
  }
  static ByteRangeSpec suffix_of(std::uint64_t suffix) {
    return {std::nullopt, std::nullopt, suffix};
  }

  bool is_closed() const noexcept { return first && last; }
  bool is_open() const noexcept { return first && !last; }
  bool is_suffix() const noexcept { return !first && suffix.has_value(); }

  /// RFC 7233 spelling of this spec, e.g. "0-0", "500-", "-2".
  std::string to_string() const;

  bool operator==(const ByteRangeSpec&) const = default;
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

/// A parsed Range header value ("bytes=..." only; other units are rejected).
struct RangeSet {
  std::vector<ByteRangeSpec> specs;

  bool empty() const noexcept { return specs.empty(); }
  std::size_t count() const noexcept { return specs.size(); }

  /// Header value spelling: "bytes=spec1,spec2,...".
  std::string to_string() const;

  bool operator==(const RangeSet&) const = default;
};

/// Default cap on the Range header value length parse_range_header accepts.
/// A guard in the spirit of Envoy's range-header length limit: the parser
/// allocates one ByteRangeSpec per list element, so an attacker-controlled
/// header must not drive unbounded work/memory.  The default is deliberately
/// generous -- the longest header any RangeAmp experiment emits (StackPath's
/// ~81 KB OBR case) stays well inside it.
inline constexpr std::size_t kMaxRangeHeaderBytes = 256 * 1024;

/// Parses a Range header value.  Returns nullopt when the value does not
/// match the RFC 7233 grammar (unknown unit, empty set, first > last,
/// non-numeric positions, ...).  Per the RFC, a recipient MUST ignore a
/// malformed Range header, so callers treat nullopt as "no Range".
/// Values longer than `max_value_bytes` are rejected without being parsed
/// (0 disables the guard).
std::optional<RangeSet> parse_range_header(
    std::string_view value, std::size_t max_value_bytes = kMaxRangeHeaderBytes);

/// Resolves one spec against a representation of `resource_size` bytes.
/// Returns nullopt when the spec is unsatisfiable for that size
/// (first >= size, suffix of 0, any range against an empty resource).
/// Inline: a node resolves every range of an OBR set in its one pass.
inline std::optional<ResolvedRange> resolve(const ByteRangeSpec& spec,
                                            std::uint64_t resource_size) noexcept {
  if (resource_size == 0) return std::nullopt;
  if (spec.is_suffix()) {
    if (*spec.suffix == 0) return std::nullopt;  // "-0" selects nothing
    const std::uint64_t len = std::min(*spec.suffix, resource_size);
    return ResolvedRange{resource_size - len, resource_size - 1};
  }
  if (!spec.first) return std::nullopt;
  if (*spec.first >= resource_size) return std::nullopt;
  const std::uint64_t last =
      spec.last ? std::min(*spec.last, resource_size - 1) : resource_size - 1;
  return ResolvedRange{*spec.first, last};
}

/// Resolves a whole set: unsatisfiable members are dropped (RFC 7233
/// section 4.1: the server generates parts only for satisfiable ranges).
/// An empty result means the whole set is unsatisfiable -> 416.
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
