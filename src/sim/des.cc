#include "sim/des.h"

#include <algorithm>
#include <stdexcept>

namespace rangeamp::sim {

EventQueue::EventId EventQueue::schedule(double at, Event event) {
  const EventId id = next_seq_++;
  queue_.push({std::max(at, now_), id, std::move(event)});
  live_.insert(id);
  return id;
}

bool EventQueue::cancel(EventId id) {
  if (live_.erase(id) == 0) return false;  // already ran, cancelled, or bogus
  cancelled_.insert(id);
  return true;
}

bool EventQueue::discard_cancelled_top() {
  while (!queue_.empty()) {
    const EventId seq = queue_.top().seq;
    const auto it = cancelled_.find(seq);
    if (it == cancelled_.end()) return true;
    cancelled_.erase(it);
    queue_.pop();  // cancelled: drop without running or advancing time
  }
  return false;
}

bool EventQueue::run_next() {
  if (!discard_cancelled_top()) return false;
  // priority_queue::top() is const; the event is moved out via const_cast,
  // which is safe because the entry is popped immediately.
  Entry entry = std::move(const_cast<Entry&>(queue_.top()));
  queue_.pop();
  live_.erase(entry.seq);
  now_ = entry.at;
  entry.event();
  return true;
}

void EventQueue::run_until(double horizon) {
  while (discard_cancelled_top() && queue_.top().at < horizon) {
    run_next();
  }
  now_ = std::max(now_, horizon);
}

std::uint64_t PsLink::start_flow(std::uint64_t bytes) {
  engine_.advance_to(queue_->now());
  const std::uint64_t id = engine_.start_flow(bytes);
  in_flight_.emplace(id, InFlight{bytes, engine_.virtual_time()});
  arm_next_completion();
  return id;
}

bool PsLink::cancel_flow(std::uint64_t id) {
  const auto it = in_flight_.find(id);
  if (it == in_flight_.end()) return false;
  engine_.advance_to(queue_->now());
  cancelled_bytes_ += std::clamp(engine_.virtual_time() - it->second.start_virtual,
                                 0.0, static_cast<double>(it->second.bytes));
  in_flight_.erase(it);
  engine_.cancel_flow(id);
  // The survivors' shares just grew; their next completion moves earlier.
  arm_next_completion();
  return true;
}

void PsLink::arm_next_completion() {
  if (engine_.active_flows() == 0) return;
  const std::uint64_t generation = ++arm_generation_;
  queue_->schedule(engine_.next_completion(), [this, generation] {
    if (generation != arm_generation_) return;  // superseded by a newer arm
    engine_.advance_to(queue_->now());
    // Retire every flow that is done before any handler runs: a handler may
    // start or cancel flows.
    std::vector<PsFlow> done;
    for (PsFlow flow; engine_.pop_completed(flow);) done.push_back(flow);
    for (const PsFlow& flow : done) {
      const auto it = in_flight_.find(flow.id);
      const std::uint64_t bytes = it->second.bytes;
      in_flight_.erase(it);
      completed_bytes_ += static_cast<double>(bytes);
      if (on_completion_) on_completion_(flow.id, bytes, flow.start_time);
    }
    arm_next_completion();
  });
}

ShieldedLoadResult simulate_attack_load_shielded(const ShieldedLoadConfig& config) {
  const AttackLoadConfig& base = config.base;
  const std::size_t seconds = series_length(base);
  if (!(config.deadline_seconds >= 0)) {
    throw std::invalid_argument("shielded load: deadline_seconds must be >= 0");
  }
  const double capacity = base.origin_uplink_mbps * 1e6 / 8.0;
  const double horizon = base.duration_s + base.drain_s;

  ShieldedLoadResult result;
  result.series.resize(seconds);
  for (std::size_t s = 0; s < seconds; ++s) {
    result.series[s].second = static_cast<double>(s);
  }

  EventQueue queue;
  std::vector<double> client_bytes(seconds, 0);
  const auto bucket_of = [&](double t) {
    return std::min(seconds - 1, static_cast<std::size_t>(t));
  };

  // Deadline machinery: each admitted flow arms a cancellation event; the
  // completion handler disarms it (EventQueue::cancel), and a firing event
  // cuts the flow (PsLink::cancel_flow).  Declared before the link so the
  // completion lambda's by-reference capture outlives every event.
  std::unordered_map<std::uint64_t, EventQueue::EventId> deadline_events;

  PsLink* link_ptr = nullptr;
  PsLink link(queue, capacity, [&](std::uint64_t id, std::uint64_t, double) {
    if (config.deadline_seconds > 0) {
      const auto armed = deadline_events.find(id);
      if (armed != deadline_events.end()) {
        queue.cancel(armed->second);
        deadline_events.erase(armed);
      }
    }
    // An origin flow completing also completes the client-facing 206.
    client_bytes[bucket_of(queue.now())] +=
        static_cast<double>(base.client_response_bytes);
  });
  link_ptr = &link;

  const int burst = std::max(1, config.same_key_burst);
  for (int second = 0; second < static_cast<int>(base.duration_s); ++second) {
    queue.schedule(static_cast<double>(second), [&] {
      for (int i = 0; i < base.requests_per_second; ++i) {
        if (config.coalesce && i % burst != 0) {
          // Follower of this second's key group: answered from the leader's
          // fill, no origin flow.  The client still gets its tiny 206 now.
          ++result.coalesced;
          client_bytes[bucket_of(queue.now())] +=
              static_cast<double>(base.client_response_bytes);
          continue;
        }
        if (config.max_pending != 0 &&
            link_ptr->active_flows() >= config.max_pending) {
          ++result.shed;
          client_bytes[bucket_of(queue.now())] +=
              static_cast<double>(config.shed_response_bytes);
          continue;
        }
        ++result.origin_fetches;
        const std::uint64_t flow_id =
            link_ptr->start_flow(base.origin_response_bytes);
        if (config.deadline_seconds > 0 && base.origin_response_bytes > 0) {
          deadline_events[flow_id] =
              queue.schedule_in(config.deadline_seconds, [&, flow_id] {
                deadline_events.erase(flow_id);
                if (link_ptr->cancel_flow(flow_id)) {
                  ++result.deadline_cancelled;
                  // The client leg is abandoned: a 504 the size of the shed
                  // response, not a 206.
                  client_bytes[bucket_of(queue.now())] +=
                      static_cast<double>(config.shed_response_bytes);
                }
              });
        }
      }
    });
  }

  // Same observation grid as the unshielded DES run: active flows at second
  // boundaries, busy-time probing for utilization.
  std::vector<std::size_t> active_at_end(seconds, 0);
  std::vector<double> busy_fraction(seconds, 0);
  constexpr int kProbes = 100;
  for (std::size_t s = 0; s < seconds; ++s) {
    queue.schedule(static_cast<double>(s) + 0.999999,
                   [&, s] { active_at_end[s] = link_ptr->active_flows(); });
    for (int p = 0; p < kProbes; ++p) {
      queue.schedule(static_cast<double>(s) + (p + 0.5) / kProbes, [&, s] {
        if (link_ptr->active_flows() > 0) busy_fraction[s] += 1.0 / kProbes;
      });
    }
  }

  queue.run_until(horizon + 1.0);

  for (std::size_t s = 0; s < seconds; ++s) {
    result.series[s].origin_out_mbps = busy_fraction[s] * base.origin_uplink_mbps;
    result.series[s].client_in_kbps = client_bytes[s] * 8.0 / 1e3;
    result.series[s].in_flight = active_at_end[s];
  }
  result.cancelled_origin_bytes = link.cancelled_bytes();
  return result;
}

}  // namespace rangeamp::sim
