#include "sim/ps.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace rangeamp::sim {
namespace {

struct Completion {
  std::uint64_t id;
  double at;
};

std::vector<Completion> run_until(PsEngine& link, double t) {
  std::vector<Completion> done;
  link.run_until(t, [&](const PsFlow& flow, double at) { done.push_back({flow.id, at}); });
  return done;
}

double moved_bytes(const PsEngine& link) { return link.capacity() * link.busy_time(); }

// ---------------------------------------------------------------------------
// Processor-sharing properties
// ---------------------------------------------------------------------------

TEST(PsEngine, SingleFlowTransfersAtCapacity) {
  PsEngine link(1000.0);  // 1000 B/s
  link.start_flow(500);
  EXPECT_TRUE(run_until(link, 0.25).empty());
  EXPECT_DOUBLE_EQ(moved_bytes(link), 250.0);
  EXPECT_EQ(link.active_flows(), 1u);
  const auto done = run_until(link, 0.5);
  EXPECT_DOUBLE_EQ(moved_bytes(link), 500.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0].at, 0.5, 1e-9);
  EXPECT_EQ(link.active_flows(), 0u);
}

TEST(PsEngine, EqualSharingBetweenConcurrentFlows) {
  PsEngine link(1000.0);
  link.start_flow(1000);
  link.start_flow(1000);
  EXPECT_TRUE(run_until(link, 1.0).empty());
  // Each got 500 B/s: the virtual clock is the service every flow received.
  EXPECT_EQ(link.active_flows(), 2u);
  EXPECT_NEAR(link.virtual_time(), 500.0, 1e-6);
}

TEST(PsEngine, CapacityConservation) {
  PsEngine link(1000.0);
  for (int i = 0; i < 7; ++i) link.start_flow(10'000);
  run_until(link, 3.0);
  // No more than capacity * time can cross the link.
  EXPECT_LE(moved_bytes(link), 3000.0 + 1e-6);
  EXPECT_NEAR(moved_bytes(link), 3000.0, 1e-6);
  EXPECT_NEAR(link.virtual_time() * 7, 3000.0, 1e-6);
}

TEST(PsEngine, FreedCapacityRedistributedAtOnce) {
  // A tiny flow and a big flow: once the tiny one finishes, the big one gets
  // the whole link for the rest of the interval (processor sharing).
  PsEngine link(1000.0);
  link.start_flow(100);  // finishes at t = 0.2 under 500 B/s share
  link.start_flow(10000);
  const auto done = run_until(link, 1.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0].at, 0.2, 1e-9);
  // Big flow: 0.2s at 500 B/s + 0.8s at 1000 B/s = 900 B.
  ASSERT_EQ(link.active_flows(), 1u);
  EXPECT_NEAR(link.virtual_time(), 900.0, 1e-6);
}

TEST(PsEngine, CompletionOrderFollowsSize) {
  // 300 B/s: all three share 100 B/s until the 300 B flow ends at t=3; the
  // other two share 150 B/s until the 600 B one ends at t=5; the last runs
  // alone and ends at t=6.
  PsEngine link(300.0);
  const auto small = link.start_flow(300);
  link.start_flow(600);
  const auto large = link.start_flow(900);
  const auto done = run_until(link, 10.0);
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].id, small);
  EXPECT_EQ(done[2].id, large);
  EXPECT_NEAR(done[0].at, 3.0, 1e-9);
  EXPECT_NEAR(done[1].at, 5.0, 1e-9);
  EXPECT_NEAR(done[2].at, 6.0, 1e-9);
}

TEST(PsEngine, LateArrivalRescalesShares) {
  // 1000 B at t=0 on 100 B/s; at t=5 another 1000 B arrives.  The first has
  // 500 B left and gets 50 B/s: done at t=15.  The second got 500 B by then
  // and finishes the rest alone at 100 B/s: done at t=20.
  PsEngine link(100.0);
  link.start_flow(1000);
  EXPECT_TRUE(run_until(link, 5.0).empty());
  link.start_flow(1000);
  const auto done = run_until(link, 50.0);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0].at, 15.0, 1e-9);
  EXPECT_NEAR(done[1].at, 20.0, 1e-9);
}

TEST(PsEngine, CancelFlowFreesCapacityForSurvivors) {
  // A (1000 B) and B (1000 B) on 100 B/s share 50 B/s each.  B is cancelled
  // at t=5 with 750 B remaining; A then runs alone at 100 B/s and finishes
  // its remaining 750 B at t=12.5.  B's V - V0 = 250 moved bytes are wasted
  // work.
  PsEngine link(100.0);
  link.start_flow(1000);
  const double b_start = link.virtual_time();
  const auto b = link.start_flow(1000);
  EXPECT_TRUE(run_until(link, 5.0).empty());
  EXPECT_NEAR(link.virtual_time() - b_start, 250.0, 1e-9);
  link.cancel_flow(b);
  EXPECT_EQ(link.active_flows(), 1u);
  const auto done = run_until(link, 50.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NE(done[0].id, b);
  EXPECT_NEAR(done[0].at, 12.5, 1e-9);
  EXPECT_NEAR(moved_bytes(link), 1250.0, 1e-9);
}

TEST(PsEngine, ZeroByteFlowCompletesImmediately) {
  PsEngine link(100.0);
  link.start_flow(0);
  EXPECT_DOUBLE_EQ(link.next_completion(), 0.0);
  const auto done = run_until(link, 0.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].at, 0.0);
  EXPECT_EQ(link.active_flows(), 0u);
}

TEST(PsEngine, IdleLinkAdvancesTimeOnly) {
  PsEngine link(100.0);
  EXPECT_TRUE(std::isinf(link.next_completion()));
  EXPECT_TRUE(run_until(link, 5.0).empty());
  EXPECT_DOUBLE_EQ(link.now(), 5.0);
  EXPECT_DOUBLE_EQ(moved_bytes(link), 0.0);
}

TEST(PsEngine, FlowIdsAreUnique) {
  PsEngine link(100.0);
  const auto a = link.start_flow(10);
  const auto b = link.start_flow(10);
  EXPECT_NE(a, b);
}

TEST(PsEngine, RejectsCapacityThatCannotMoveBytes) {
  for (const double capacity : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    EXPECT_THROW(PsEngine{capacity}, std::invalid_argument) << capacity;
  }
}

// ---------------------------------------------------------------------------
// PsLink: PsEngine plus the caller's per-flow bookkeeping
// ---------------------------------------------------------------------------

// The bytes and start virtual time of each flow in flight, which a caller
// keeps to account completed bytes and to cancel flows.
class PsLink {
 public:
  explicit PsLink(double capacity) : engine_(capacity) {}

  std::uint64_t start_flow(std::uint64_t bytes) {
    const std::uint64_t id = engine_.start_flow(bytes);
    in_flight_.emplace(id, InFlight{bytes, engine_.virtual_time()});
    return id;
  }

  bool cancel_flow(std::uint64_t id) {
    const auto it = in_flight_.find(id);
    if (it == in_flight_.end()) return false;
    cancelled_bytes_ += std::clamp(engine_.virtual_time() - it->second.start_virtual,
                                   0.0, static_cast<double>(it->second.bytes));
    in_flight_.erase(it);
    engine_.cancel_flow(id);
    return true;
  }

  template <typename OnComplete>
  void run_until(double t, OnComplete&& on_complete) {
    engine_.run_until(t, [&](const PsFlow& flow, double at) {
      const auto it = in_flight_.find(flow.id);
      completed_bytes_ += static_cast<double>(it->second.bytes);
      in_flight_.erase(it);
      on_complete(flow.id, at);
    });
  }

  double completed_bytes() const { return completed_bytes_; }
  double cancelled_bytes() const { return cancelled_bytes_; }
  double busy_bytes() const { return engine_.capacity() * engine_.busy_time(); }
  std::size_t active_flows() const { return engine_.active_flows(); }

 private:
  struct InFlight {
    std::uint64_t bytes;
    double start_virtual;
  };

  PsEngine engine_;
  std::unordered_map<std::uint64_t, InFlight> in_flight_;
  double completed_bytes_ = 0;
  double cancelled_bytes_ = 0;
};

TEST(PsLink, SingleFlowCompletesAtExactTime) {
  PsLink link(1000.0);
  std::vector<double> completed_at;
  link.start_flow(500);
  link.run_until(10.0, [&](std::uint64_t, double at) { completed_at.push_back(at); });
  ASSERT_EQ(completed_at.size(), 1u);
  EXPECT_DOUBLE_EQ(completed_at[0], 0.5);
  EXPECT_DOUBLE_EQ(link.completed_bytes(), 500.0);
}

TEST(PsLink, TwoFlowsShareExactly) {
  // Flow A (300 B) and flow B (600 B) on a 300 B/s link, both at t=0:
  // share 150 B/s each; A done at t=2 (300/150); then B alone finishes its
  // remaining 300 B at 300 B/s -> t=3.
  PsLink link(300.0);
  std::vector<double> completions;
  link.start_flow(300);
  link.start_flow(600);
  link.run_until(10.0, [&](std::uint64_t, double at) { completions.push_back(at); });
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_NEAR(completions[0], 2.0, 1e-9);
  EXPECT_NEAR(completions[1], 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(link.completed_bytes(), 900.0);
}

TEST(PsLink, ZeroByteFlowCompletesImmediately) {
  PsLink link(100.0);
  std::vector<double> completions;
  link.start_flow(0);
  link.run_until(1.0, [&](std::uint64_t, double at) { completions.push_back(at); });
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_DOUBLE_EQ(completions[0], 0.0);
  EXPECT_DOUBLE_EQ(link.completed_bytes(), 0.0);
  EXPECT_EQ(link.active_flows(), 0u);
}

// ---------------------------------------------------------------------------
// Differential check against a naive O(F) processor-sharing link
// ---------------------------------------------------------------------------

// Event-to-event PS with a linear scan per event: every active flow's
// remaining bytes drop by share * dt, and the next completion is the
// smallest remaining / share.  Independent of the virtual clock.
class NaiveLink {
 public:
  explicit NaiveLink(double capacity) : capacity_(capacity) {}

  std::uint64_t start_flow(std::uint64_t bytes) {
    const std::uint64_t id = next_id_++;
    flows_.push_back({id, static_cast<double>(bytes), static_cast<double>(bytes)});
    return id;
  }

  bool cancel_flow(std::uint64_t id) {
    const auto it = std::find_if(flows_.begin(), flows_.end(),
                                 [&](const Flow& f) { return f.id == id; });
    if (it == flows_.end()) return false;
    cancelled_bytes_ += it->total - it->remaining;
    flows_.erase(it);
    return true;
  }

  template <typename OnComplete>
  void run_until(double t, OnComplete&& on_complete) {
    while (!flows_.empty()) {
      const double share = capacity_ / static_cast<double>(flows_.size());
      double min_remaining = flows_.front().remaining;
      for (const Flow& f : flows_) min_remaining = std::min(min_remaining, f.remaining);
      const double at = now_ + min_remaining / share;
      if (at > t) break;
      advance_to(at);
      for (auto it = flows_.begin(); it != flows_.end();) {
        if (it->remaining <= 1e-6) {
          completed_bytes_ += it->total;
          on_complete(it->id, at);
          it = flows_.erase(it);
        } else {
          ++it;
        }
      }
    }
    advance_to(t);
  }

  double completed_bytes() const { return completed_bytes_; }
  double cancelled_bytes() const { return cancelled_bytes_; }

 private:
  struct Flow {
    std::uint64_t id;
    double total;
    double remaining;
  };

  void advance_to(double t) {
    if (!flows_.empty()) {
      const double share = capacity_ / static_cast<double>(flows_.size());
      for (Flow& f : flows_) f.remaining = std::max(0.0, f.remaining - share * (t - now_));
    }
    now_ = t;
  }

  double capacity_;
  std::vector<Flow> flows_;
  double now_ = 0;
  double completed_bytes_ = 0;
  double cancelled_bytes_ = 0;
  std::uint64_t next_id_ = 1;
};

struct ScenarioFlow {
  double arrival;
  std::uint64_t bytes;
  double cancel_after;  ///< < 0: never cancelled
};

struct Outcome {
  std::map<std::size_t, double> completed_at;  ///< scenario index -> time
  std::vector<bool> cancelled;
  double completed_bytes = 0;
  double cancelled_bytes = 0;
  double busy_bytes = 0;  ///< capacity x busy time (heap engine only)
};

// Drives `Link` through the scenario's arrivals and cancels in time order;
// at one instant, arrivals go before cancels.  Before each event the link
// retires every flow that finishes by then.
template <typename Link>
Outcome play(double capacity, const std::vector<ScenarioFlow>& flows) {
  struct Event {
    double at;
    bool cancel;
    std::size_t flow;
  };
  std::vector<Event> events;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    events.push_back({flows[i].arrival, false, i});
  }
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i].cancel_after >= 0) {
      events.push_back({flows[i].arrival + flows[i].cancel_after, true, i});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.at < b.at; });

  Link link(capacity);
  Outcome out;
  out.cancelled.assign(flows.size(), false);
  std::vector<std::uint64_t> id_of(flows.size());
  std::map<std::uint64_t, std::size_t> index_of;
  const auto on_complete = [&](std::uint64_t id, double at) {
    out.completed_at[index_of.at(id)] = at;
  };
  for (const Event& event : events) {
    link.run_until(event.at, on_complete);
    if (event.cancel) {
      out.cancelled[event.flow] = link.cancel_flow(id_of[event.flow]);
    } else {
      id_of[event.flow] = link.start_flow(flows[event.flow].bytes);
      index_of[id_of[event.flow]] = event.flow;
    }
  }
  link.run_until(1e12, on_complete);
  out.completed_bytes = link.completed_bytes();
  out.cancelled_bytes = link.cancelled_bytes();
  if constexpr (std::is_same_v<Link, PsLink>) out.busy_bytes = link.busy_bytes();
  return out;
}

TEST(PsEngineDifferential, HeapEngineMatchesNaiveLinkOnRandomScenarios) {
  std::size_t completions = 0;
  std::size_t cancellations = 0;
  std::mt19937_64 rng(20200629);
  const auto uniform = [&] { return static_cast<double>(rng() >> 11) * 0x1p-53; };
  for (int scenario = 0; scenario < 200; ++scenario) {
    const double capacity = std::pow(10.0, 3.0 + 5.0 * uniform());  // 1 kB/s..100 MB/s
    std::vector<ScenarioFlow> flows(1 + rng() % 60);
    for (ScenarioFlow& f : flows) {
      f.arrival = 10.0 * uniform();
      switch (rng() % 4) {
        case 0: f.bytes = rng() % 8 == 0 ? 0 : 1 + rng() % 1000; break;
        case 1: f.bytes = 1000 + rng() % 100'000; break;
        default: f.bytes = static_cast<std::uint64_t>(capacity * 5.0 * uniform()); break;
      }
      f.cancel_after = rng() % 5 == 0 ? 5.0 * uniform() : -1.0;
    }
    SCOPED_TRACE("scenario " + std::to_string(scenario));
    const Outcome heap = play<PsLink>(capacity, flows);
    const Outcome naive = play<NaiveLink>(capacity, flows);

    ASSERT_EQ(heap.cancelled, naive.cancelled);
    ASSERT_EQ(heap.completed_at.size(), naive.completed_at.size());
    for (const auto& [index, at] : naive.completed_at) {
      ASSERT_TRUE(heap.completed_at.count(index)) << "flow " << index;
      EXPECT_NEAR(heap.completed_at.at(index), at, 1e-9 * std::max(1.0, at))
          << "flow " << index;
    }
    // Every flow either completed or was cancelled, and the link moved
    // exactly capacity x busy time: completed plus cancelled bytes.
    const auto cancelled = static_cast<std::size_t>(
        std::count(heap.cancelled.begin(), heap.cancelled.end(), true));
    EXPECT_EQ(heap.completed_at.size() + cancelled, flows.size());
    completions += heap.completed_at.size();
    cancellations += cancelled;
    const double moved = heap.completed_bytes + heap.cancelled_bytes;
    EXPECT_NEAR(moved, heap.busy_bytes, 1e-9 * std::max(1.0, moved));
    EXPECT_DOUBLE_EQ(heap.completed_bytes, naive.completed_bytes);
    EXPECT_NEAR(heap.cancelled_bytes, naive.cancelled_bytes,
                1e-9 * std::max(1.0, naive.cancelled_bytes));
  }
  // The scenarios exercised both ways a flow can leave the link.
  EXPECT_GT(completions, 2000u);
  EXPECT_GT(cancellations, 200u);
}

}  // namespace
}  // namespace rangeamp::sim
