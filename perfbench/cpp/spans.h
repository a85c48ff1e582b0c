// The benchmark's own span log.  Spans are opened and closed around calls
// into each layer of the program (the program itself is never modified);
// each records name, start, end, parent and the exchange (trace) it belongs
// to, and stays in memory until the run writes the log out.
//
// The log is also the attribution target of the counting allocator
// (alloc_counter.cc, linked into the traced binary only): every allocation
// is charged to the innermost open span of the thread that made it, and the
// bytes it frees again before that span closes are subtracted, so a span's
// live bytes are what it leaves behind.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  ///< a string literal
  std::uint64_t trace = 0;     ///< exchange id; 0 for campaign-level spans
  std::uint32_t parent = 0;    ///< 1-based id of the parent span; 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;    ///< -1 while the span is open
  std::uint64_t allocs = 0;       ///< allocations made while innermost
  std::uint64_t alloc_bytes = 0;  ///< their bytes
  std::uint64_t freed_bytes = 0;  ///< of those bytes, freed before closing

  bool open() const { return end_ns < 0; }
  std::int64_t duration_ns() const { return end_ns - start_ns; }
  std::uint64_t live_bytes() const { return alloc_bytes - freed_bytes; }
};

class SpanLog {
 public:
  SpanLog();
  ~SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Opens a span under the innermost open one; returns its 1-based id.
  std::uint32_t begin(const char* name);
  /// Closes span `id`, which must be the innermost open span.
  void end(std::uint32_t id);

  /// Exchange id stamped on spans opened from now on (0 = campaign level).
  void set_trace(std::uint64_t trace) { trace_ = trace; }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Forgets every span; allocations charged to them are no longer tracked.
  void clear();

  /// Makes this log the calling thread's allocation sink (until detached or
  /// destroyed).  Other threads' allocations are never charged to it.
  void attach_allocations();
  void detach_allocations();

  /// One JSON object per span, one per line: the campaign-level spans and
  /// those of exchanges 1..max_trace.
  std::string to_jsonl(std::uint64_t max_trace) const;

  /// Allocation hooks, called by the counting operator new/delete.  The tag
  /// names the span an allocation was charged to (0: none).
  static std::uint64_t on_alloc(std::size_t bytes);
  static void on_free(std::uint64_t tag, std::size_t bytes);

 private:
  std::uint64_t charge(std::size_t bytes);
  void refund(std::uint64_t tag, std::size_t bytes);

  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> open_;
  std::uint64_t trace_ = 0;
  std::uint64_t generation_ = 0;
};

/// RAII span; a null log makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log ? log->begin(name) : 0) {}
  ~ScopedSpan() {
    if (log_) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::uint32_t id_;
};

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its interval that its children's intervals cover.
std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans);

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 for an empty input.
double percentile(std::vector<double> values, double q);

/// Median of `values`; 0 for an empty input.
double median(std::vector<double> values);

}  // namespace perfbench
