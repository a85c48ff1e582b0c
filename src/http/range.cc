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

void append_spec(std::string& out, const ByteRangeSpec& spec) {
  if (spec.is_suffix()) {
    out.push_back('-');
    append_u64(out, *spec.suffix);
    return;
  }
  append_u64(out, *spec.first);
  out.push_back('-');
  if (spec.last) append_u64(out, *spec.last);
}

}  // namespace

std::string ByteRangeSpec::to_string() const {
  std::string out;
  append_spec(out, *this);
  return out;
}

std::string RangeSet::to_string() const {
  std::string out = "bytes=";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i) out.push_back(',');
    append_spec(out, specs[i]);
  }
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

std::optional<ResolvedRange> resolve(const ByteRangeSpec& spec,
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
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    for (std::size_t j = i + 1; j < ranges.size(); ++j) {
      if (ranges[i].overlaps(ranges[j])) return true;
    }
  }
  return false;
}

std::size_t overlapping_pair_count(const std::vector<ResolvedRange>& ranges) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    for (std::size_t j = i + 1; j < ranges.size(); ++j) {
      if (ranges[i].overlaps(ranges[j])) ++n;
    }
  }
  return n;
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
