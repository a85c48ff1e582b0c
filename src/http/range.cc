#include "http/range.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace rangeamp::http {
namespace {

bool is_ows(char c) noexcept { return c == ' ' || c == '\t'; }

// Trims optional whitespace (RFC 7230 OWS: SP / HTAB) from both ends.
std::string_view trim_ows(std::string_view s) {
  while (!s.empty() && is_ows(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_ows(s.back())) s.remove_suffix(1);
  return s;
}

// Reads the decimal digits at `p` into `v`.  Returns the position after them,
// or nullptr when there are none or the value does not fit 64 bits.  Written
// out: GCC keeps a std::from_chars wrapper out of line, and its per-digit
// overflow check made the Range parse slower.  Any 19 digits fit, so only
// the digits after them (leading zeros make them legal) are checked.
inline const char* read_pos(const char* p, const char* end, std::uint64_t& v) {
  const auto digit = [](char c) { return static_cast<unsigned char>(c - '0'); };
  const char* const start = p;
  const char* const sure = end - p > 19 ? p + 19 : end;
  std::uint64_t n = 0;
  for (; p != sure && digit(*p) < 10; ++p) n = n * 10 + digit(*p);
  if (p == start) return nullptr;
  if (p == sure) {
    for (; p != end && digit(*p) < 10; ++p) {
      constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
      if (n > (kMax - digit(*p)) / 10) return nullptr;
      n = n * 10 + digit(*p);
    }
  }
  v = n;
  return p;
}

std::optional<std::uint64_t> parse_pos(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  const char* const end = s.data() + s.size();
  if (read_pos(s.data(), end, v) != end) return std::nullopt;
  return v;
}

// Appends the decimal spelling of `v`.
void append_u64(std::string& out, std::uint64_t v) {
  char digits[20];
  const auto end = std::to_chars(digits, digits + sizeof digits, v).ptr;
  out.append(digits, end);
}

// Bytes in the spelling of `spec`.
std::size_t spec_size(const ByteRangeSpec& spec) noexcept {
  if (const auto suffix = spec.suffix()) return 1 + decimal_digits(*suffix);
  const auto last = spec.last();
  return decimal_digits(spec.first().value_or(0)) + 1 +
         (last ? decimal_digits(*last) : 0);
}

// Writes the spelling of `spec` at `p`, which has room for it before `end`,
// and returns the position after it.
char* write_spec(char* p, char* end, const ByteRangeSpec& spec) noexcept {
  if (const auto suffix = spec.suffix()) {
    *p++ = '-';
    return std::to_chars(p, end, *suffix).ptr;
  }
  p = std::to_chars(p, end, spec.first().value_or(0)).ptr;
  *p++ = '-';
  const auto last = spec.last();
  return last ? std::to_chars(p, end, *last).ptr : p;
}

// Whole copies of the element [element, at) that follow it from `at` on.
// The first copy is compared byte by byte here: a list respelled in
// elements of one length differs within their first bytes, and a memcmp call
// per element made its parse ~15% slower.  The rest is one memcmp of the
// value against itself shifted by a period when it all repeats, else a
// gallop to a mismatch and a bisection, each comparing only bytes not yet
// known to match.
std::size_t whole_periods(const char* element, const char* at, const char* end) {
  const auto period = static_cast<std::size_t>(at - element);
  const std::size_t fit = static_cast<std::size_t>(end - at) / period;
  if (fit == 0) return 0;
  for (std::size_t i = 0; i < period; ++i) {
    if (element[i] != at[i]) return 0;
  }
  const auto same = [&](std::size_t lo, std::size_t hi) {  // copies [lo, hi)
    const std::size_t from = lo * period;
    return std::memcmp(at + from, element + from, (hi - lo) * period) == 0;
  };
  if (same(1, fit)) return fit;
  // Copies [0, lo) match.  Gallop until [lo, hi) holds a mismatch, then
  // bisect that stretch.
  std::size_t lo = 1;
  std::size_t hi = 2;
  while (same(lo, hi)) {
    lo = hi;
    hi = std::min(2 * hi, fit);
  }
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (same(lo, mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

std::string ByteRangeSpec::to_string() const {
  std::string out(spec_size(*this), '\0');
  write_spec(out.data(), out.data() + out.size(), *this);
  return out;
}

std::size_t RangeSet::string_size() const {
  constexpr std::size_t kUnit = 6;  // "bytes="
  std::size_t size = kUnit;
  for (const RangeRun& run : runs_) {
    const std::size_t period = spec_size(run.spec) + 1;  // with its comma
    if (run.count > (std::numeric_limits<std::size_t>::max() - size) / period) {
      throw std::length_error("RangeSet: value too long");
    }
    size += run.count * period;
  }
  return size - !runs_.empty();  // no comma before the first
}

char* RangeSet::write(char* out) const {
  // One pass over the runs.  A run's first element is spelled once; its
  // other copies, each a comma and that spelling, are filled by memcpy calls
  // that double the bytes written.
  constexpr std::string_view kUnit = "bytes=";
  char* p = std::copy(kUnit.begin(), kUnit.end(), out);
  char* const value = p;
  for (const RangeRun& run : runs_) {
    if (p != value) *p++ = ',';
    char* const spelled = p;
    p = write_spec(p, p + 41, run.spec);  // "first-last": at most 41 bytes
    const auto period = static_cast<std::size_t>(p - spelled) + 1;
    const std::size_t copies = (run.count - 1) * period;
    if (copies == 0) continue;
    *p = ',';
    std::copy(spelled, spelled + period - 1, p + 1);
    for (std::size_t done = period; done < copies;) {
      const std::size_t n = std::min(done, copies - done);
      std::memcpy(p + done, p, n);
      done += n;
    }
    p += copies;
  }
  return p;
}

std::string RangeSet::to_string() const {
  std::string out(string_size(), '\0');
  write(out.data());
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
  // the end.  A spec is digits "-" [digits] or "-" digits.  Equal
  // consecutive specs fold into one run, whose spec and count are held here
  // until the next run starts.
  std::vector<RangeRun> runs;
  ByteRangeSpec last;       // the last run's spec; no spelling before the first
  std::uint64_t count = 0;  // the last run's count
  std::uint64_t total = 0;  // elements in the runs before it
  std::size_t fold_period = 0;  // bytes of the previous element, if it folded
  const char* p = value.data() + kUnit.size();
  const char* const end = value.data() + value.size();
  while (true) {
    const char* const element = p;
    while (p != end && is_ows(*p)) ++p;
    if (p == end) break;
    if (*p == ',') {
      ++p;
      continue;
    }
    ByteRangeSpec spec;
    std::uint64_t a = 0;
    if (*p == '-') {
      p = read_pos(p + 1, end, a);
      if (!p) return std::nullopt;
      spec = ByteRangeSpec::suffix_of(a);
    } else {
      p = read_pos(p, end, a);
      if (!p || p == end || *p != '-') return std::nullopt;
      if (++p != end && *p >= '0' && *p <= '9') {
        std::uint64_t b = 0;
        p = read_pos(p, end, b);
        // RFC 7233 §2.1: last < first makes the spec invalid.
        if (!p || b < a) return std::nullopt;
        spec = ByteRangeSpec::closed(a, b);
      } else {
        spec = ByteRangeSpec::open(a);
      }
    }
    while (p != end && is_ows(*p)) ++p;
    if (p != end && *p != ',') return std::nullopt;
    if (spec == last) {
      ++count;
      // The element's bytes, with its OWS and comma.  When the element
      // before also folded and took as many bytes, the run's spelling may
      // be repeating: parsed from the next element on, every further copy
      // of these bytes adds one more element to the run and ends at an
      // element start again, so all the copies that follow are counted at
      // once.  The last element has no comma and is read as usual.
      const auto period = static_cast<std::size_t>(p - element) + 1;
      if (p != end && period == fold_period) {
        const std::size_t copies = whole_periods(element, p + 1, end);
        count += copies;
        p += 1 + copies * period;
        continue;
      }
      fold_period = period;
    } else {
      if (count != 0) {
        runs.back().count = count;
        total += count;
      }
      last = spec;
      count = 1;
      fold_period = 0;
      // Grown eightfold as runs arrive, never past what the rest of the
      // value can hold (an element and its comma take at least 3 bytes), so
      // a value that turns out malformed has cost a bounded multiple of the
      // runs it held.  Doubling made a 10 746-run parse in a loop several
      // times slower under glibc, from mmap and trim churn on the blocks it
      // freed.
      if (runs.size() == runs.capacity()) {
        const std::size_t more = static_cast<std::size_t>(end - p) / 3;
        const std::size_t fit = runs.size() + 1 + more;
        runs.reserve(std::max<std::size_t>(1, std::min(8 * runs.size(), fit)));
      }
      runs.push_back({spec, 1});
    }
    if (p == end) break;
    ++p;  // the comma
  }
  if (count == 0) return std::nullopt;  // byte-range-set is 1#(...)
  runs.back().count = count;
  RangeSet set;
  set.runs_ = std::move(runs);
  set.count_ = total + count;
  return set;
}

std::vector<ResolvedRange> resolve_all(const RangeSet& set,
                                       std::uint64_t resource_size) {
  std::vector<ResolvedRange> out;
  out.reserve(set.count());
  for (const RangeRun& run : set.runs()) {
    if (const auto r = resolve(run.spec, resource_size)) {
      out.insert(out.end(), run.count, *r);
    }
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

char* write_content_range(char* out, const ResolvedRange& r,
                          std::uint64_t resource_size) noexcept {
  constexpr std::string_view kUnit = "bytes ";
  char* p = std::copy(kUnit.begin(), kUnit.end(), out);
  p = std::to_chars(p, p + 20, r.first).ptr;
  *p++ = '-';
  p = std::to_chars(p, p + 20, r.last).ptr;
  *p++ = '/';
  return std::to_chars(p, p + 20, resource_size).ptr;
}

std::string content_range(const ResolvedRange& r, std::uint64_t resource_size) {
  char value[kContentRangeMaxBytes];
  return {value, write_content_range(value, r, resource_size)};
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
