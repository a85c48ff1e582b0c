#include "http/range.h"

#include <algorithm>
#include <charconv>

namespace rangeamp::http {
namespace {

bool is_ows(char c) noexcept { return c == ' ' || c == '\t'; }

// Trims optional whitespace (RFC 7230 OWS: SP / HTAB) from both ends.
std::string_view trim_ows(std::string_view s) {
  while (!s.empty() && is_ows(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_ows(s.back())) s.remove_suffix(1);
  return s;
}

std::optional<std::uint64_t> parse_pos(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

// Reads the decimal digits at `p` into `v`.  Returns the position after them,
// or nullptr when there are none or the value does not fit 64 bits.
const char* read_pos(const char* p, const char* end, std::uint64_t& v) {
  const auto [next, ec] = std::from_chars(p, end, v);
  return ec == std::errc{} ? next : nullptr;
}

// Appends the decimal spelling of `v`.
void append_u64(std::string& out, std::uint64_t v) {
  char digits[20];
  const auto end = std::to_chars(digits, digits + sizeof digits, v).ptr;
  out.append(digits, end);
}

// Bytes in the spelling of `spec`.
std::size_t spec_size(const ByteRangeSpec& spec) noexcept {
  if (spec.is_suffix()) return 1 + decimal_digits(*spec.suffix);
  return decimal_digits(*spec.first) + 1 + (spec.last ? decimal_digits(*spec.last) : 0);
}

// Writes the spelling of `spec` at `p`, which has room for it before `end`,
// and returns the position after it.
char* write_spec(char* p, char* end, const ByteRangeSpec& spec) noexcept {
  if (spec.is_suffix()) {
    *p++ = '-';
    return std::to_chars(p, end, *spec.suffix).ptr;
  }
  p = std::to_chars(p, end, *spec.first).ptr;
  *p++ = '-';
  return spec.last ? std::to_chars(p, end, *spec.last).ptr : p;
}

}  // namespace

std::string ByteRangeSpec::to_string() const {
  std::string out(spec_size(*this), '\0');
  write_spec(out.data(), out.data() + out.size(), *this);
  return out;
}

std::string RangeSet::to_string() const {
  // Written in place, in one pass over the specs.  The buffer starts at the
  // shortest spelling the set can have: every spec takes at least two bytes
  // ("0-", "-0") and a comma.  Once a spec might not fit, the rest of the set
  // is sized exactly, once.  An OBR set of 10^4 "0-" specs is never sized.
  constexpr std::string_view kUnit = "bytes=";
  constexpr std::ptrdiff_t kMaxSpec = 41;  // "-" and two 20-digit positions
  std::string out(kUnit.size() + 3 * specs.size(), '\0');
  char* p = std::copy(kUnit.begin(), kUnit.end(), out.data());
  char* end = out.data() + out.size();
  bool sized = false;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (end - p <= kMaxSpec && !sized) {
      const auto at = static_cast<std::size_t>(p - out.data());
      std::size_t size = at;
      for (std::size_t j = i; j < specs.size(); ++j) size += 1 + spec_size(specs[j]);
      if (size > out.size()) {
        std::string grown(size, '\0');
        std::copy(out.data(), p, grown.data());
        out = std::move(grown);
      }
      p = out.data() + at;
      end = out.data() + out.size();
      sized = true;
    }
    if (i) *p++ = ',';
    p = write_spec(p, end, specs[i]);
  }
  out.resize(static_cast<std::size_t>(p - out.data()));
  return out;
}

std::optional<RangeSet> parse_range_header(std::string_view value,
                                           std::size_t max_value_bytes) {
  if (max_value_bytes != 0 && value.size() > max_value_bytes) {
    return std::nullopt;
  }
  value = trim_ows(value);
  constexpr std::string_view kUnit = "bytes=";
  if (value.size() <= kUnit.size()) return std::nullopt;
  // The bytes-unit is case-insensitive per RFC 7233 (range units are tokens
  // compared case-insensitively).
  for (std::size_t i = 0; i < kUnit.size(); ++i) {
    const char a = value[i] >= 'A' && value[i] <= 'Z'
                       ? static_cast<char>(value[i] - 'A' + 'a')
                       : value[i];
    if (a != kUnit[i]) return std::nullopt;
  }

  // One cursor pass over the list: OWS, then a spec or an empty element
  // (RFC 7230 #rule allows those; they are skipped), then OWS and a comma or
  // the end.  A spec is digits "-" [digits] or "-" digits.
  RangeSet set;
  const char* p = value.data() + kUnit.size();
  const char* const end = value.data() + value.size();
  while (true) {
    while (p != end && is_ows(*p)) ++p;
    if (p == end) break;
    if (*p != ',') {
      // Filled in place: copying in a spec built on the stack stalls on store
      // forwarding once per element, several times slower under GCC.
      ByteRangeSpec& spec = set.specs.emplace_back();
      std::uint64_t n = 0;
      if (*p == '-') {  // suffix-byte-range-spec: "-suffix"
        p = read_pos(p + 1, end, n);
        if (!p) return std::nullopt;
        spec.suffix = n;
      } else {
        p = read_pos(p, end, n);
        if (!p || p == end || *p != '-') return std::nullopt;
        spec.first = n;
        if (++p != end && *p >= '0' && *p <= '9') {
          p = read_pos(p, end, n);
          // RFC 7233 §2.1: last < first makes the spec invalid.
          if (!p || n < *spec.first) return std::nullopt;
          spec.last = n;
        }
      }
      // Every spec takes at least 3 bytes with its comma, so once one spec
      // is valid the rest of the value bounds how many can follow.  Bare
      // commas and garbage never reserve anything.
      if (set.specs.size() == 1) {
        set.specs.reserve(static_cast<std::size_t>(end - p) / 3 + 1);
      }
      while (p != end && is_ows(*p)) ++p;
      if (p == end) break;
      if (*p != ',') return std::nullopt;
    }
    ++p;  // the comma
  }
  if (set.specs.empty()) return std::nullopt;  // byte-range-set is 1#(...)
  return set;
}

std::vector<ResolvedRange> resolve_all(const RangeSet& set,
                                       std::uint64_t resource_size) {
  std::vector<ResolvedRange> out;
  out.reserve(set.specs.size());
  for (const auto& spec : set.specs) {
    if (auto r = resolve(spec, resource_size)) out.push_back(*r);
  }
  return out;
}

bool any_overlap(const std::vector<ResolvedRange>& ranges) {
  // Sorted by first, a range overlaps an earlier one exactly when it starts
  // at or before the largest last seen so far.
  if (ranges.size() < 2) return false;
  std::vector<ResolvedRange> sorted = ranges;
  std::sort(sorted.begin(), sorted.end(),
            [](const ResolvedRange& a, const ResolvedRange& b) {
              return a.first < b.first;
            });
  std::uint64_t max_last = sorted.front().last;
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].first <= max_last) return true;
    max_last = std::max(max_last, sorted[i].last);
  }
  return false;
}

bool is_ascending_disjoint(const std::vector<ResolvedRange>& ranges) {
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    if (ranges[i].first <= ranges[i - 1].last) return false;
  }
  return true;
}

std::vector<ResolvedRange> coalesce(std::vector<ResolvedRange> ranges) {
  if (ranges.empty()) return ranges;
  std::sort(ranges.begin(), ranges.end(),
            [](const ResolvedRange& a, const ResolvedRange& b) {
              return a.first < b.first || (a.first == b.first && a.last < b.last);
            });
  std::vector<ResolvedRange> out;
  out.push_back(ranges.front());
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    if (out.back().touches(ranges[i])) {
      out.back().last = std::max(out.back().last, ranges[i].last);
    } else {
      out.push_back(ranges[i]);
    }
  }
  return out;
}

std::uint64_t total_selected_bytes(const std::vector<ResolvedRange>& ranges) {
  std::uint64_t total = 0;
  for (const auto& r : ranges) total += r.length();
  return total;
}

std::string content_range(const ResolvedRange& r, std::uint64_t resource_size) {
  std::string out = "bytes ";
  append_u64(out, r.first);
  out.push_back('-');
  append_u64(out, r.last);
  out.push_back('/');
  append_u64(out, resource_size);
  return out;
}

std::string content_range_unsatisfied(std::uint64_t resource_size) {
  std::string out = "bytes */";
  append_u64(out, resource_size);
  return out;
}

std::optional<ContentRange> parse_content_range(std::string_view value) {
  value = trim_ows(value);
  constexpr std::string_view kUnit = "bytes ";
  if (!value.starts_with(kUnit)) return std::nullopt;
  value.remove_prefix(kUnit.size());
  const auto dash = value.find('-');
  const auto slash = value.find('/');
  if (dash == std::string_view::npos || slash == std::string_view::npos ||
      dash > slash) {
    return std::nullopt;
  }
  const auto first = parse_pos(value.substr(0, dash));
  const auto last = parse_pos(value.substr(dash + 1, slash - dash - 1));
  const auto size = parse_pos(value.substr(slash + 1));
  if (!first || !last || !size || *last < *first || *last >= *size) {
    return std::nullopt;
  }
  return ContentRange{ResolvedRange{*first, *last}, *size};
}

}  // namespace rangeamp::http
