#include "simcore/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace distserve::simcore {
namespace {

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  std::vector<double> times;
  sim.ScheduleAt(2.0, [&] { times.push_back(sim.now()); });
  sim.ScheduleAt(1.0, [&] { times.push_back(sim.now()); });
  const int64_t processed = sim.Run();
  EXPECT_EQ(processed, 2);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_TRUE(sim.Idle());
}

TEST(SimulatorTest, ScheduleAfterUsesRelativeDelay) {
  Simulator sim;
  double fired_at = -1.0;
  sim.ScheduleAt(5.0, [&] {
    sim.ScheduleAfter(2.5, [&] { fired_at = sim.now(); });
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(SimulatorTest, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1.0, [&] { ++fired; });
  sim.ScheduleAt(10.0, [&] { ++fired; });
  sim.Run(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);  // advances to the horizon when events remain beyond it
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(SimulatorTest, EventAtHorizonFires) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(5.0, [&] { ++fired; });
  sim.Run(5.0);
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CascadedSchedulingDeterministic) {
  // Two identically-seeded simulations must produce identical event orders.
  auto run_once = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.ScheduleAt(static_cast<double>(i % 7), [&order, i] { order.push_back(i); });
    }
    sim.Run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SimulatorTest, EventsProcessedCounter) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAfter(static_cast<double>(i), [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 10);
}

TEST(SimulatorTest, CancelledEventNotProcessed) {
  Simulator sim;
  int fired = 0;
  EventHandle handle = sim.ScheduleAt(1.0, [&] { ++fired; });
  sim.ScheduleAt(0.5, [&] { handle.Cancel(); });
  sim.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.events_processed(), 1);
}

// --- StreamArrivals: one pending arrival at a time, ties exactly as the up-front schedule ---

TEST(SimulatorStreamTest, ArrivalsFireInOrderAtTheirTimes) {
  Simulator sim;
  const std::vector<double> times = {0.5, 1.0, 1.0, 4.0};
  std::vector<size_t> fired;
  std::vector<double> at;
  sim.StreamArrivals(
      times.size(), [&times](size_t i) { return times[i]; },
      [&](size_t i) {
        fired.push_back(i);
        at.push_back(sim.now());
      });
  EXPECT_EQ(sim.queue_size(), 1u);  // only the first arrival is pending
  EXPECT_EQ(sim.Run(), 4);
  EXPECT_EQ(fired, (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_EQ(at, times);
}

TEST(SimulatorStreamTest, EmptyStreamSchedulesNothing) {
  Simulator sim;
  sim.StreamArrivals(
      0, [](size_t) { return 0.0; }, [](size_t) { FAIL() << "no arrival to fire"; });
  EXPECT_TRUE(sim.Idle());
  EXPECT_EQ(sim.Run(), 0);
}

// Runs one scenario with its arrivals either streamed or scheduled up front (one ScheduleAt
// each, the schedule StreamArrivals replaces) and returns the order in which events fired.
// Events land on exactly the arrivals' times from before the stream, from inside arrivals
// (at their own time and at a later arrival's time), from inside other events, and after
// the stream is set up (as a fault plan is), with one of them cancelled.
std::vector<std::string> TieOrderLog(bool streamed) {
  Simulator sim;
  std::vector<std::string> log;
  const std::vector<double> times = {0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 5.0};
  for (const double t : {0.0, 1.0, 2.0, 5.0}) {
    sim.ScheduleAt(t, [&log, t] { log.push_back("pre@" + std::to_string(t)); });
  }
  auto fire = [&sim, &log, &times](size_t i) {
    log.push_back("arrival" + std::to_string(i));
    sim.ScheduleAfter(0.0, [&log, i] { log.push_back("echo" + std::to_string(i)); });
    if (i + 2 < times.size()) {
      sim.ScheduleAt(times[i + 2], [&sim, &log, i] {
        log.push_back("ahead" + std::to_string(i));
        sim.ScheduleAfter(0.0, [&log, i] { log.push_back("chain" + std::to_string(i)); });
      });
    }
  };
  if (streamed) {
    sim.StreamArrivals(
        times.size(), [&times](size_t i) { return times[i]; }, fire);
  } else {
    for (size_t i = 0; i < times.size(); ++i) {
      sim.ScheduleAt(times[i], [fire, i] { fire(i); });
    }
  }
  std::vector<EventHandle> post;
  for (const double t : {1.0, 3.0, 5.0, 5.0}) {
    post.push_back(
        sim.ScheduleAt(t, [&log, t] { log.push_back("post@" + std::to_string(t)); }));
  }
  post[3].Cancel();
  sim.Run();
  return log;
}

TEST(SimulatorStreamTest, TiesMatchTheUpFrontSchedule) {
  const std::vector<std::string> up_front = TieOrderLog(/*streamed=*/false);
  ASSERT_EQ(up_front.size(), 4u + 10u + 10u + 8u + 8u + 3u);
  EXPECT_EQ(TieOrderLog(/*streamed=*/true), up_front);
}

TEST(SimulatorStreamTest, QueueHoldsOneArrivalPlusInFlightWork) {
  // 10k arrivals 10 ms apart, each starting 0.5 s of work: about 50 requests are in flight
  // at any time, and the queue holds those plus the one next arrival — never the trace.
  constexpr size_t kArrivals = 10000;
  Simulator sim;
  struct Counts {
    int64_t in_flight = 0;
    size_t max_size = 0;
    size_t checked = 0;
  } c;
  // fire captures two pointers: a streamed arrival's closure must fit EventCallback inline.
  sim.StreamArrivals(
      kArrivals, [](size_t i) { return 0.01 * static_cast<double>(i); },
      [&sim, &c](size_t i) {
        const size_t next_arrival = i + 1 < kArrivals ? 1 : 0;
        EXPECT_EQ(sim.queue_size(), next_arrival + static_cast<size_t>(c.in_flight)) << i;
        c.max_size = std::max(c.max_size, sim.queue_size());
        ++c.checked;
        ++c.in_flight;
        sim.ScheduleAfter(0.5, [&c] { --c.in_flight; });
      });
  sim.Run();
  EXPECT_EQ(c.checked, kArrivals);
  EXPECT_EQ(c.in_flight, 0);
  EXPECT_LE(c.max_size, 60u);
  EXPECT_EQ(sim.events_processed(), static_cast<int64_t>(2 * kArrivals));
}

// The pending arrival sits in the queue's stream slot, outside the heap; every query of the
// queue must still see it.
TEST(SimulatorStreamTest, RunUntilStopsWithTheArrivalPendingThenResumes) {
  Simulator sim;
  const std::vector<double> times = {1.0, 2.0, 2.0, 4.0};
  std::vector<size_t> fired;
  sim.StreamArrivals(
      times.size(), [&times](size_t i) { return times[i]; },
      [&fired](size_t i) { fired.push_back(i); });
  EXPECT_EQ(sim.Run(1.5), 1);
  EXPECT_DOUBLE_EQ(sim.now(), 1.5);
  EXPECT_EQ(sim.Run(2.0), 2);  // both arrivals at the horizon fire
  EXPECT_EQ(fired, (std::vector<size_t>{0, 1, 2}));
  EXPECT_FALSE(sim.Idle());
  EXPECT_EQ(sim.queue_size(), 1u);
  EXPECT_DOUBLE_EQ(sim.NextTime(), 4.0);
  EXPECT_EQ(sim.Run(3.9), 0);
  EXPECT_DOUBLE_EQ(sim.now(), 3.9);
  EXPECT_EQ(sim.Run(), 1);
  EXPECT_EQ(fired, (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
  EXPECT_TRUE(sim.Idle());
}

TEST(SimulatorStreamTest, RunBeforeWindowEdgesOnArrivalTimes) {
  Simulator sim;
  const std::vector<double> times = {1.0, 2.0, 2.0, 3.0};
  std::vector<std::string> log;
  sim.StreamArrivals(
      times.size(), [&times](size_t i) { return times[i]; },
      [&sim, &log](size_t i) {
        log.push_back("arrival" + std::to_string(i));
        sim.ScheduleAfter(0.0, [&log, i] { log.push_back("echo" + std::to_string(i)); });
      });
  EXPECT_EQ(sim.RunBefore(1.0), 0);  // the arrival at the edge stays pending
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_DOUBLE_EQ(sim.NextTime(), 1.0);
  EXPECT_EQ(sim.RunBefore(2.0), 2);
  EXPECT_EQ(log, (std::vector<std::string>{"arrival0", "echo0"}));
  EXPECT_DOUBLE_EQ(sim.NextTime(), 2.0);
  EXPECT_EQ(sim.RunBefore(3.0), 4);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_DOUBLE_EQ(sim.NextTime(), 3.0);
  EXPECT_EQ(sim.RunBefore(3.0), 0);
  EXPECT_EQ(sim.RunBefore(std::nextafter(3.0, 4.0)), 2);
  EXPECT_EQ(log, (std::vector<std::string>{"arrival0", "echo0", "arrival1", "arrival2",
                                           "echo1", "echo2", "arrival3", "echo3"}));
  EXPECT_TRUE(sim.Idle());
}

TEST(SimulatorStreamTest, NextTimeAndIdleSeeTheSlotAlone) {
  Simulator sim;
  EventHandle early = sim.ScheduleAt(0.5, [] { FAIL() << "cancelled"; });
  sim.StreamArrivals(
      2, [](size_t i) { return 1.0 + static_cast<double>(i); }, [](size_t) {});
  early.Cancel();
  // Only the slot is live; the cancelled heap entry below it must not hide it.
  EXPECT_FALSE(sim.Idle());
  EXPECT_DOUBLE_EQ(sim.NextTime(), 1.0);
  EXPECT_EQ(sim.Run(1.0), 1);
  EXPECT_FALSE(sim.Idle());
  EXPECT_EQ(sim.queue_size(), 1u);
  EXPECT_DOUBLE_EQ(sim.NextTime(), 2.0);
  EXPECT_EQ(sim.Run(), 1);
  EXPECT_TRUE(sim.Idle());
  EXPECT_EQ(sim.queue_size(), 0u);
  EXPECT_EQ(sim.NextTime(), std::numeric_limits<SimTime>::infinity());
  // The stream has ended, so another may start.
  sim.StreamArrivals(
      1, [](size_t) { return 3.0; }, [](size_t) {});
  EXPECT_DOUBLE_EQ(sim.NextTime(), 3.0);
  EXPECT_EQ(sim.Run(), 1);
  EXPECT_EQ(sim.events_processed(), 3);
}

// Events put onto an arrival's time by ScheduleAt, Retime and Reschedule, from before the
// stream, after it and inside an arrival, fire in the up-front schedule's order (TieOrderLog
// builds the same comparison for plain scheduling).
std::vector<std::string> RetimeOrderLog(bool streamed) {
  Simulator sim;
  std::vector<std::string> log;
  const std::vector<double> times = {1.0, 2.0, 3.0};
  auto note = [&log](const std::string& name) { return [&log, name] { log.push_back(name); }; };
  sim.ScheduleAt(2.0, note("pre@2"));
  const EventHandle retimed_pre = sim.ScheduleAt(9.0, note("retimed_pre"));
  const EventHandle rescheduled_pre = sim.ScheduleAt(9.0, note("rescheduled_pre"));
  const EventHandle retimed_in = sim.ScheduleAt(9.0, note("retimed_in"));
  EventHandle rescheduled_in;
  auto fire = [&](size_t i) {
    log.push_back("arrival" + std::to_string(i));
    if (i == 0) {
      sim.Retime(retimed_in, 3.0);        // keeps its pre-stream seq: before arrival 2
      sim.Reschedule(rescheduled_in, 3.0);  // fresh seq: after arrival 2
    }
  };
  if (streamed) {
    sim.StreamArrivals(
        times.size(), [&times](size_t i) { return times[i]; }, fire);
  } else {
    for (size_t i = 0; i < times.size(); ++i) {
      sim.ScheduleAt(times[i], [fire, i] { fire(i); });
    }
  }
  sim.ScheduleAt(2.0, note("post@2"));
  rescheduled_in = sim.ScheduleAt(9.0, note("rescheduled_in"));
  const EventHandle retimed_post = sim.ScheduleAt(9.0, note("retimed_post"));
  sim.Retime(retimed_pre, 2.0);
  sim.Reschedule(rescheduled_pre, 2.0);
  sim.Retime(retimed_post, 1.0);
  sim.Run();
  return log;
}

TEST(SimulatorStreamTest, RetimeAndRescheduleOntoArrivalTimesTieAsUpFront) {
  const std::vector<std::string> up_front = RetimeOrderLog(/*streamed=*/false);
  EXPECT_EQ(up_front,
            (std::vector<std::string>{"arrival0", "retimed_post", "pre@2", "retimed_pre",
                                      "arrival1", "post@2", "rescheduled_pre", "retimed_in",
                                      "arrival2", "rescheduled_in"}));
  EXPECT_EQ(RetimeOrderLog(/*streamed=*/true), up_front);
}

// One stream at a time, in every build: a second stream while the first still has an
// arrival pending, or from inside its last arrival, aborts.
TEST(SimulatorStreamDeathTest, SecondConcurrentStreamAborts) {
  auto pending = [] {
    Simulator sim;
    sim.StreamArrivals(
        2, [](size_t i) { return static_cast<double>(i); }, [](size_t) {});
    sim.StreamArrivals(
        1, [](size_t) { return 5.0; }, [](size_t) {});
  };
  EXPECT_DEATH(pending(), "a stream is still pending");
  auto from_last_arrival = [] {
    Simulator sim;
    sim.StreamArrivals(
        1, [](size_t) { return 1.0; },
        [&sim](size_t) {
          sim.StreamArrivals(
              1, [](size_t) { return 2.0; }, [](size_t) {});
        });
    sim.Run();
  };
  EXPECT_DEATH(from_last_arrival(), "a stream is still pending");
}

// Checked in every build, not only with assertions on: a stream whose first arrival lies
// before the clock (a reused clock) aborts.
TEST(SimulatorStreamDeathTest, StreamIntoThePastAborts) {
  auto run = [] {
    Simulator sim;
    sim.ScheduleAt(5.0, [] {});
    sim.Run();
    sim.StreamArrivals(
        2, [](size_t i) { return static_cast<double>(i); }, [](size_t) {});
  };
  EXPECT_DEATH(run(), "scheduling into the past");
}

TEST(SimulatorTest, RunningOnlyInsideRun) {
  Simulator sim;
  bool inside = false;
  sim.ScheduleAt(1.0, [&] { inside = sim.running(); });
  EXPECT_FALSE(sim.running());
  sim.Run();
  EXPECT_TRUE(inside);
  EXPECT_FALSE(sim.running());
  sim.ScheduleAt(2.0, [&] { inside = false; });
  sim.ScheduleAt(3.0, [&] { inside = sim.running(); });
  sim.RunBefore(4.0);
  EXPECT_TRUE(inside);
  EXPECT_FALSE(sim.running());
}

TEST(SimulatorStreamDeathTest, DecreasingArrivalTimeAbortsNamingTheIndex) {
  auto run = [] {
    Simulator sim;
    const std::vector<double> times = {0.0, 1.0, 2.0, 1.5, 3.0};
    sim.StreamArrivals(
        times.size(), [&times](size_t i) { return times[i]; }, [](size_t) {});
    sim.Run();
  };
  EXPECT_DEATH(run(), "arrival 3 at 1.5 follows arrival 2");
}

}  // namespace
}  // namespace distserve::simcore
