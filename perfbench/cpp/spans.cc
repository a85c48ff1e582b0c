#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

// The allocation sink of this thread, and a guard that keeps the log's own
// bookkeeping allocations (and any allocation made while a hook runs) out
// of the counts.
thread_local SpanLog* tl_sink = nullptr;
thread_local bool tl_busy = false;

// Tags carry the log generation in the high half, so a tag handed out
// before clear() (or by a destroyed log) can never refund a newer span.
std::atomic<std::uint64_t> g_next_generation{1};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class BusyGuard {
 public:
  BusyGuard() : previous_(tl_busy) { tl_busy = true; }
  ~BusyGuard() { tl_busy = previous_; }
  BusyGuard(const BusyGuard&) = delete;
  BusyGuard& operator=(const BusyGuard&) = delete;

 private:
  bool previous_;
};

}  // namespace

SpanLog::SpanLog() : generation_(g_next_generation++) {}

SpanLog::~SpanLog() { detach_allocations(); }

std::uint32_t SpanLog::begin(const char* name) {
  BusyGuard guard;
  SpanRecord record;
  record.name = name;
  record.trace = trace_;
  record.parent = open_.empty() ? 0 : open_.back();
  spans_.push_back(record);
  const auto id = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(id);
  spans_.back().start_ns = now_ns();
  return id;
}

void SpanLog::end(std::uint32_t id) {
  spans_[id - 1].end_ns = now_ns();
  open_.pop_back();  // ScopedSpan closes innermost-first
}

void SpanLog::clear() {
  BusyGuard guard;
  spans_.clear();
  open_.clear();
  trace_ = 0;
  generation_ = g_next_generation++;
}

void SpanLog::attach_allocations() { tl_sink = this; }

void SpanLog::detach_allocations() {
  if (tl_sink == this) tl_sink = nullptr;
}

std::uint64_t SpanLog::charge(std::size_t bytes) {
  if (open_.empty()) return 0;
  const std::uint32_t id = open_.back();
  SpanRecord& span = spans_[id - 1];
  ++span.allocs;
  span.alloc_bytes += bytes;
  return (generation_ << 32) | id;
}

void SpanLog::refund(std::uint64_t tag, std::size_t bytes) {
  if ((tag >> 32) != generation_) return;
  const auto id = static_cast<std::uint32_t>(tag & 0xffffffffu);
  if (id == 0 || id > spans_.size()) return;
  SpanRecord& span = spans_[id - 1];
  if (span.open()) span.freed_bytes += bytes;
}

std::uint64_t SpanLog::on_alloc(std::size_t bytes) {
  if (tl_sink == nullptr || tl_busy) return 0;
  BusyGuard guard;
  return tl_sink->charge(bytes);
}

void SpanLog::on_free(std::uint64_t tag, std::size_t bytes) {
  if (tag == 0 || tl_sink == nullptr || tl_busy) return;
  BusyGuard guard;
  tl_sink->refund(tag, bytes);
}

std::string SpanLog::to_jsonl(std::uint64_t max_trace) const {
  BusyGuard guard;
  std::string out;
  char line[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.trace > max_trace) continue;
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"parent\": %u, \"trace\": %llu, \"name\": \"%s\", "
                  "\"start_ns\": %lld, \"end_ns\": %lld, \"allocs\": %llu, "
                  "\"alloc_bytes\": %llu, \"live_bytes\": %llu}\n",
                  i + 1, s.parent, static_cast<unsigned long long>(s.trace), s.name,
                  static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                  static_cast<unsigned long long>(s.allocs),
                  static_cast<unsigned long long>(s.alloc_bytes),
                  static_cast<unsigned long long>(s.live_bytes()));
    out += line;
  }
  return out;
}

std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans) {
  // Children grouped by parent (counting sort on the parent id), then each
  // parent's children intervals are clipped to it and merged.
  const std::size_t count = spans.size();
  std::vector<std::size_t> first(count + 2, 0);
  for (const SpanRecord& s : spans) ++first[s.parent + 1];
  for (std::size_t i = 1; i < first.size(); ++i) first[i] += first[i - 1];
  std::vector<std::size_t> children(count);
  std::vector<std::size_t> fill(first.begin(), first.end() - 1);
  for (std::size_t i = 0; i < count; ++i) children[fill[spans[i].parent]++] = i;

  std::vector<std::int64_t> self(count, 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (std::size_t i = 0; i < count; ++i) {
    const SpanRecord& span = spans[i];
    const std::size_t id = i + 1;
    intervals.clear();
    for (std::size_t k = first[id]; k < first[id + 1]; ++k) {
      const SpanRecord& child = spans[children[k]];
      const std::int64_t lo = std::max(child.start_ns, span.start_ns);
      const std::int64_t hi = std::min(child.end_ns, span.end_ns);
      if (hi > lo) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    bool in_run = false;
    for (const auto& [lo, hi] : intervals) {
      if (in_run && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (in_run) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      in_run = true;
    }
    if (in_run) covered += run_hi - run_lo;
    self[i] = span.duration_ns() - covered;
  }
  return self;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const double n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(q * n) - 1.0, 0.0, n - 1.0));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
