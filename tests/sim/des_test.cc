#include "sim/des.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace rangeamp::sim {
namespace {

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(3.0, [&] { order.push_back(3); });
  queue.schedule(1.0, [&] { order.push_back(1); });
  queue.schedule(2.0, [&] { order.push_back(2); });
  while (queue.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
}

TEST(EventQueue, SameInstantIsStable) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.schedule(1.0, [&, i] { order.push_back(i); });
  }
  while (queue.run_next()) {
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsMayScheduleEvents) {
  EventQueue queue;
  int fired = 0;
  queue.schedule(1.0, [&] {
    ++fired;
    queue.schedule_in(0.5, [&] { ++fired; });
  });
  queue.run_until(10.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(queue.now(), 10.0);
}

TEST(EventQueue, RunUntilStopsAtHorizon) {
  EventQueue queue;
  int fired = 0;
  queue.schedule(1.0, [&] { ++fired; });
  queue.schedule(5.0, [&] { ++fired; });
  queue.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_DOUBLE_EQ(queue.now(), 2.0);
}

TEST(EventQueue, PastSchedulesClampToNow) {
  EventQueue queue;
  queue.schedule(2.0, [] {});
  queue.run_until(3.0);
  double fired_at = -1;
  queue.schedule(1.0, [&] { fired_at = queue.now(); });  // in the past
  queue.run_next();
  EXPECT_DOUBLE_EQ(fired_at, 3.0);
}

// ---------------------------------------------------------------------------
// PsLink: analytic processor sharing
// ---------------------------------------------------------------------------

TEST(PsLink, SingleFlowCompletesAtExactTime) {
  EventQueue queue;
  double completed_at = -1;
  PsLink link(queue, 1000.0, [&](std::uint64_t, std::uint64_t, double) {
    completed_at = queue.now();
  });
  link.start_flow(500);
  queue.run_until(10.0);
  EXPECT_DOUBLE_EQ(completed_at, 0.5);
  EXPECT_DOUBLE_EQ(link.completed_bytes(), 500.0);
}

TEST(PsLink, TwoFlowsShareExactly) {
  // Flow A (300 B) and flow B (600 B) on a 300 B/s link, both at t=0:
  // share 150 B/s each; A done at t=2 (300/150); then B alone finishes its
  // remaining 300 B at 300 B/s -> t=3.
  EventQueue queue;
  std::vector<double> completions;
  PsLink link(queue, 300.0, [&](std::uint64_t, std::uint64_t, double) {
    completions.push_back(queue.now());
  });
  link.start_flow(300);
  link.start_flow(600);
  queue.run_until(10.0);
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_NEAR(completions[0], 2.0, 1e-9);
  EXPECT_NEAR(completions[1], 3.0, 1e-9);
}

TEST(PsLink, LateArrivalRescalesShares) {
  // 1000 B at t=0 on 100 B/s; at t=5 another 1000 B arrives.
  // First flow: 500 B done by t=5, then 50 B/s -> finishes at t=15.
  // Second: 50 B/s until t=15 (500 B), then 100 B/s -> finishes at t=20.
  EventQueue queue;
  std::vector<double> completions;
  PsLink link(queue, 100.0, [&](std::uint64_t, std::uint64_t, double) {
    completions.push_back(queue.now());
  });
  link.start_flow(1000);
  queue.schedule(5.0, [&] { link.start_flow(1000); });
  queue.run_until(50.0);
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_NEAR(completions[0], 15.0, 1e-9);
  EXPECT_NEAR(completions[1], 20.0, 1e-9);
}

TEST(PsLink, ZeroByteFlowCompletesImmediately) {
  EventQueue queue;
  int completions = 0;
  PsLink link(queue, 100.0, [&](std::uint64_t, std::uint64_t bytes, double) {
    ++completions;
    EXPECT_EQ(bytes, 0u);
  });
  link.start_flow(0);
  queue.run_until(1.0);
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(link.active_flows(), 0u);
}

// ---------------------------------------------------------------------------
// Cancellation: EventQueue handles and PsLink flow cuts
// ---------------------------------------------------------------------------

TEST(EventQueue, CancelledEventNeverRuns) {
  EventQueue queue;
  std::vector<int> order;
  const auto doomed = queue.schedule(1.0, [&] { order.push_back(1); });
  queue.schedule(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(queue.pending(), 2u);
  EXPECT_TRUE(queue.cancel(doomed));
  EXPECT_EQ(queue.pending(), 1u);
  while (queue.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_DOUBLE_EQ(queue.now(), 2.0);
}

TEST(EventQueue, CancelledEventDoesNotAdvanceTheClock) {
  EventQueue queue;
  const auto doomed = queue.schedule(5.0, [] {});
  EXPECT_TRUE(queue.cancel(doomed));
  EXPECT_FALSE(queue.run_next());  // nothing live to run
  EXPECT_DOUBLE_EQ(queue.now(), 0.0);
  queue.run_until(10.0);
  EXPECT_DOUBLE_EQ(queue.now(), 10.0);
}

TEST(EventQueue, CancelIsExactAboutLiveness) {
  EventQueue queue;
  const auto ran = queue.schedule(1.0, [] {});
  const auto doomed = queue.schedule(2.0, [] {});
  queue.run_next();
  EXPECT_FALSE(queue.cancel(ran));     // already ran
  EXPECT_TRUE(queue.cancel(doomed));
  EXPECT_FALSE(queue.cancel(doomed));  // double-cancel
  EXPECT_FALSE(queue.cancel(9999));    // never scheduled
}

TEST(EventQueue, SameInstantOrderingIsStableAcrossCancellation) {
  // Regression: cancelling one of several same-instant events must not
  // perturb the FIFO order of the survivors, and an event scheduled *from
  // within* an event at the current instant runs after the already-queued
  // same-instant events.
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(1.0, [&] {
    order.push_back(0);
    queue.schedule(1.0, [&] { order.push_back(9); });  // same instant, last
  });
  const auto doomed = queue.schedule(1.0, [&] { order.push_back(1); });
  queue.schedule(1.0, [&] { order.push_back(2); });
  queue.schedule(1.0, [&] { order.push_back(3); });
  EXPECT_TRUE(queue.cancel(doomed));
  while (queue.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 9}));
}

TEST(PsLink, CancelFlowFreesCapacityForSurvivors) {
  // A (1000 B) and B (1000 B) on 100 B/s share 50 B/s each.  B is cancelled
  // at t=5 with 750 B remaining; A then runs alone at 100 B/s and finishes
  // its remaining 750 B at t=12.5.  B's 250 moved bytes are wasted work.
  EventQueue queue;
  std::vector<double> completions;
  PsLink link(queue, 100.0, [&](std::uint64_t, std::uint64_t, double) {
    completions.push_back(queue.now());
  });
  link.start_flow(1000);
  const std::uint64_t b = link.start_flow(1000);
  queue.schedule(5.0, [&] { EXPECT_TRUE(link.cancel_flow(b)); });
  queue.run_until(50.0);
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_NEAR(completions[0], 12.5, 1e-9);
  EXPECT_NEAR(link.cancelled_bytes(), 250.0, 1e-9);
  EXPECT_DOUBLE_EQ(link.completed_bytes(), 1000.0);
}

TEST(PsLink, CancelUnknownOrCompletedFlowIsANoOp) {
  EventQueue queue;
  PsLink link(queue, 100.0, [](std::uint64_t, std::uint64_t, double) {});
  EXPECT_FALSE(link.cancel_flow(42));  // never started
  const std::uint64_t id = link.start_flow(100);
  queue.run_until(10.0);               // flow completed at t=1
  EXPECT_FALSE(link.cancel_flow(id));  // already done
  EXPECT_DOUBLE_EQ(link.cancelled_bytes(), 0.0);
}

TEST(ShieldedLoad, DeadlineCancellationCutsPinnedResourceTime) {
  // A saturating OBR load: 5 x 10 MB fetches per second against a 1 MB/s
  // uplink.  Unprotected, the backlog pins the uplink far past the attack
  // window; a 2s per-exchange deadline cancels the stuck flows instead.
  ShieldedLoadConfig config;
  config.base.requests_per_second = 5;
  config.base.origin_response_bytes = 10'000'000;
  config.base.client_response_bytes = 822;
  config.base.origin_uplink_mbps = 8.0;  // 1e6 B/s
  config.base.duration_s = 5.0;
  config.base.drain_s = 30.0;
  config.shed_response_bytes = 500;

  const ShieldedLoadResult baseline = simulate_attack_load_shielded(config);
  config.deadline_seconds = 2.0;
  const ShieldedLoadResult protected_run = simulate_attack_load_shielded(config);

  EXPECT_EQ(baseline.deadline_cancelled, 0u);
  EXPECT_GT(protected_run.deadline_cancelled, 0u);
  EXPECT_GT(protected_run.cancelled_origin_bytes, 0.0);
  EXPECT_LT(protected_run.busy_seconds(8.0),
            baseline.busy_seconds(8.0) * 0.5);
}

TEST(ShieldedLoad, RejectsInputsNoProjectionCanRun) {
  ShieldedLoadConfig config;
  config.base.origin_response_bytes = 1000;
  config.deadline_seconds = -1.0;
  EXPECT_THROW(simulate_attack_load_shielded(config), std::invalid_argument);
  config.deadline_seconds = std::nan("");
  EXPECT_THROW(simulate_attack_load_shielded(config), std::invalid_argument);
  config.deadline_seconds = 0;
  config.base.drain_s = -1.0;
  EXPECT_THROW(simulate_attack_load_shielded(config), std::invalid_argument);
  config.base.drain_s = 10.0;
  config.base.origin_uplink_mbps = 0;
  EXPECT_THROW(simulate_attack_load_shielded(config), std::invalid_argument);
}

}  // namespace
}  // namespace rangeamp::sim
