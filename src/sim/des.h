// Discrete-event simulation engine, and the processor-sharing link driven
// by it.
//
// EventQueue runs timestamped events in time order.  PsLink puts one
// PsEngine (sim/ps.h) on that queue: it always keeps the engine's next
// completion armed as an event, so a caller can mix link completions with
// its own arrivals, deadlines and observation probes.  The shielded Fig 7
// projection below runs on it.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/attack_load.h"
#include "sim/ps.h"

namespace rangeamp::sim {

/// A time-ordered event queue.  Events scheduled for the same instant run
/// in scheduling order (stable).
class EventQueue {
 public:
  using Event = std::function<void()>;
  /// Handle returned by schedule(); pass to cancel().
  using EventId = std::uint64_t;

  /// Schedules `event` at absolute time `at` (must be >= now()); returns a
  /// handle the event can be cancelled with.
  EventId schedule(double at, Event event);

  /// Schedules `event` `delay` seconds from now.
  EventId schedule_in(double delay, Event event) {
    return schedule(now_ + delay, std::move(event));
  }

  /// Cancels a pending event.  A cancelled event never runs and never
  /// advances the clock.  Returns false when the event already ran (or was
  /// already cancelled) -- the caller can use that to disarm exactly once.
  bool cancel(EventId id);

  /// Runs the earliest live event; returns false when none remain.
  bool run_next();

  /// Runs every live event scheduled strictly before `horizon`; time ends
  /// at `horizon` (or at the last event if beyond).
  void run_until(double horizon);

  double now() const noexcept { return now_; }
  /// Live (non-cancelled) events still scheduled.
  std::size_t pending() const noexcept { return live_.size(); }

 private:
  struct Entry {
    double at;
    std::uint64_t seq;
    Event event;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.at > b.at || (a.at == b.at && a.seq > b.seq);
    }
  };

  /// Pops cancelled entries off the top; true when a live entry remains.
  bool discard_cancelled_top();

  double now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  // Lazy deletion: cancel() moves the seq from live_ to cancelled_; the
  // heap entry itself is discarded when it surfaces (a heap cannot remove
  // from the middle).  live_ makes cancel-after-run detection exact and
  // pending() O(1).
  std::unordered_set<EventId> live_;
  std::unordered_set<EventId> cancelled_;
};

/// A processor-sharing link driven by an EventQueue: flows share the
/// capacity equally, and completions fire as events at their exact times.
class PsLink {
 public:
  using CompletionHandler = std::function<void(std::uint64_t flow_id,
                                               std::uint64_t bytes,
                                               double start_time)>;

  /// Throws std::invalid_argument unless the capacity is finite and > 0.
  PsLink(EventQueue& queue, double capacity_bytes_per_sec,
         CompletionHandler on_completion)
      : queue_(&queue),
        engine_(capacity_bytes_per_sec),
        on_completion_(std::move(on_completion)) {}

  /// Starts a flow now; returns its id.
  std::uint64_t start_flow(std::uint64_t bytes);

  /// Cancels an active flow (deadline expiry): its remaining demand leaves
  /// the link immediately -- the survivors' shares rescale from now -- and
  /// the bytes it had already moved are counted into cancelled_bytes(), not
  /// completed_bytes().  The completion handler never fires for it.
  /// Returns false when the flow already completed (or never existed).
  bool cancel_flow(std::uint64_t id);

  std::size_t active_flows() const noexcept { return engine_.active_flows(); }

  /// Total bytes that have fully crossed the link (completed flows).
  double completed_bytes() const noexcept { return completed_bytes_; }

  /// Bytes moved by flows that were cancelled mid-transfer (wasted work the
  /// deadline could not claw back).
  double cancelled_bytes() const noexcept { return cancelled_bytes_; }

  /// Seconds the link has been busy up to the queue's now(); it has moved
  /// capacity x busy time bytes, completed and cancelled flows together.
  double busy_time() const noexcept {
    return engine_.busy_time() +
           (engine_.active_flows() > 0 ? queue_->now() - engine_.now() : 0.0);
  }

 private:
  struct InFlight {
    std::uint64_t bytes;
    double start_virtual;  ///< engine virtual time at arrival
  };

  void arm_next_completion();

  EventQueue* queue_;
  PsEngine engine_;
  CompletionHandler on_completion_;
  std::unordered_map<std::uint64_t, InFlight> in_flight_;
  double completed_bytes_ = 0;
  double cancelled_bytes_ = 0;
  std::uint64_t arm_generation_ = 0;  ///< invalidates stale completion events
};

/// The Fig 7 experiment with an origin shield in front of the uplink:
/// request coalescing collapses same-key bursts into one back-to-origin
/// flow, and admission control sheds arrivals beyond a pending cap.  The
/// knobs mirror cdn::OriginShieldPolicy so a campaign's shield settings
/// project directly onto the time series.
struct ShieldedLoadConfig {
  AttackLoadConfig base;

  /// How many of each second's arrivals share one cache key (the attacker's
  /// reuse of a cache-busting URL within a burst).  1 = every arrival has a
  /// distinct key, so coalescing has nothing to collapse.
  int same_key_burst = 1;

  /// Fill-lock coalescing on: each key group costs one origin flow; the
  /// followers are answered from the held fill at no origin cost.
  bool coalesce = false;

  /// Shed arrivals once this many back-to-origin flows are in flight
  /// (0 = unlimited).  A shed answer is a local 503, not an origin flow.
  std::size_t max_pending = 0;

  /// Client-side bytes of a shed 503 (counted into client_in_kbps so the
  /// attacker's view of a shedding origin stays visible in the series).
  std::uint64_t shed_response_bytes = 0;

  /// Per-exchange deadline (seconds): an origin flow still in flight this
  /// long after it started is cancelled -- the projection of
  /// cdn::DeadlinePolicy onto the PS model (0 = off).  Cancellation frees
  /// the remaining demand; the bytes already moved stay as wasted work in
  /// cancelled_origin_bytes.  Must be >= 0.
  double deadline_seconds = 0;
};

struct ShieldedLoadResult {
  std::vector<BandwidthSample> series;
  std::uint64_t origin_fetches = 0;  ///< flows that actually hit the uplink
  std::uint64_t coalesced = 0;       ///< arrivals absorbed by a fill lock
  std::uint64_t shed = 0;            ///< arrivals refused by admission control
  std::uint64_t deadline_cancelled = 0;  ///< flows cut by the deadline
  double cancelled_origin_bytes = 0;     ///< bytes those flows had moved

  /// Seconds the uplink spent busy (the "pinned resource time" of the OBR
  /// node-exhaustion scenario): sum of per-second busy fractions, recovered
  /// from the series by dividing out the configured uplink capacity.
  double busy_seconds(double uplink_mbps) const noexcept {
    if (uplink_mbps <= 0) return 0;
    double busy = 0;
    for (const BandwidthSample& s : series) {
      busy += s.origin_out_mbps / uplink_mbps;
    }
    return busy;
  }
};

/// Throws std::invalid_argument on a base config series_length() rejects
/// or a negative deadline.
ShieldedLoadResult simulate_attack_load_shielded(const ShieldedLoadConfig& config);

}  // namespace rangeamp::sim
