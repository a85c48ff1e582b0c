// Exact processor-sharing engine for one capacity-limited link.
//
// Experiment 4 of the paper (Fig 7) is a time-domain measurement: m SBR
// requests per second against a 1000 Mbps origin uplink, sampled per
// second.  Concurrent bulk transfers over one shared bottleneck share it
// equally (processor sharing, PS), which fully determines the shape of
// Fig 7.  This engine computes PS dynamics exactly, with no time step.
//
// It keeps one virtual clock V: the service (bytes) each in-flight flow has
// received, which rises at C/N while N flows share capacity C.  A flow that
// arrives at V0 with S bytes finishes when V reaches its finish tag V0 + S,
// so in-flight flows wait in a min-heap keyed by (tag, id):
//
//   arrival, completion      O(log F)
//   next completion time     t + (tag_min - V) * N / C    (closed form)
//   cancellation             lazy delete: N drops at once, the heap entry
//                            is discarded when it surfaces
//   bytes moved              C * busy time (time with N > 0)
//
// Callers jump from event to event: start flows at now(), advance to the
// next completion or to their own next event, pop what has finished.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_set>
#include <vector>

namespace rangeamp::sim {

/// One bulk transfer in flight.
struct PsFlow {
  double tag = 0;  ///< finish tag: the virtual time at which it completes
  std::uint64_t id = 0;
  double start_time = 0;  ///< arrival time, seconds
};

class PsEngine {
 public:
  /// Throws std::invalid_argument unless the capacity is finite and > 0.
  explicit PsEngine(double capacity_bytes_per_sec);

  /// Sizes the heap for `flows` concurrent flows up front.
  void reserve(std::size_t flows) { heap_.reserve(flows); }

  /// Starts a flow of `bytes` at now(); returns its id (1, 2, 3, ... in
  /// start order).  A zero-byte flow finishes at now().
  std::uint64_t start_flow(std::uint64_t bytes);

  /// Removes in-flight flow `id` at now(): the survivors' shares grow from
  /// now on.  `id` must be in flight (neither finished nor cancelled).
  void cancel_flow(std::uint64_t id);

  /// Time the earliest in-flight flow finishes unless something else
  /// arrives first; +infinity when idle.
  double next_completion() const noexcept {
    if (live_ == 0) return std::numeric_limits<double>::infinity();
    const double behind = heap_.front().tag - virtual_;
    return behind > 0 ? now_ + behind * static_cast<double>(live_) / capacity_
                      : now_;
  }

  /// Moves the clock to `t`, where now() <= t <= next_completion().
  void advance_to(double t);

  /// Pops the earliest-finishing flow into `out` if it has finished by
  /// now(); false when none has.
  bool pop_completed(PsFlow& out);

  /// Advances to `t`, handing every flow that finishes on the way to
  /// `on_complete(flow, completion_time)` in completion order.
  template <typename OnComplete>
  void run_until(double t, OnComplete&& on_complete) {
    for (double at = next_completion(); at <= t; at = next_completion()) {
      advance_to(at);
      for (PsFlow flow; pop_completed(flow);) on_complete(flow, at);
    }
    advance_to(t);
    for (PsFlow flow; pop_completed(flow);) on_complete(flow, t);
  }

  double now() const noexcept { return now_; }
  double capacity() const noexcept { return capacity_; }
  std::size_t active_flows() const noexcept { return live_; }

  /// V: bytes each in-flight flow has received since the link was last
  /// idle (it restarts at 0 whenever the link empties).  A flow that
  /// arrived at V0 has moved V - V0 bytes.
  double virtual_time() const noexcept { return virtual_; }

  /// Seconds spent with at least one flow in flight; the link has moved
  /// capacity() * busy_time() bytes.
  double busy_time() const noexcept { return busy_; }

 private:
  /// A flow within this many bytes of its tag counts as finished (absorbs
  /// floating-point dust, so flows finishing together retire together).
  static constexpr double kDustBytes = 1e-6;

  struct Later {  // std heaps are max-heaps: order by (tag, id) reversed
    bool operator()(const PsFlow& a, const PsFlow& b) const noexcept {
      return a.tag > b.tag || (a.tag == b.tag && a.id > b.id);
    }
  };

  void pop_top();
  /// Discards cancelled entries until the top is in flight (or none is).
  void drop_cancelled_top();

  double capacity_;
  double now_ = 0;
  double virtual_ = 0;
  double busy_ = 0;
  std::size_t live_ = 0;  ///< in flight: heap entries not yet cancelled
  std::uint64_t next_id_ = 1;
  std::vector<PsFlow> heap_;
  std::unordered_set<std::uint64_t> cancelled_;  ///< still in heap_
};

}  // namespace rangeamp::sim
