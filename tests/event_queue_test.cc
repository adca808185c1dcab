#include "simcore/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <tuple>
#include <vector>

namespace distserve::simcore {
namespace {

TEST(EventQueueTest, EmptyQueue) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.NextTime(), std::numeric_limits<SimTime>::infinity());
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> fired;
  queue.Schedule(3.0, [&] { fired.push_back(3); });
  queue.Schedule(1.0, [&] { fired.push_back(1); });
  queue.Schedule(2.0, [&] { fired.push_back(2); });
  while (!queue.empty()) {
    queue.FireNext();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakInInsertionOrder) {
  EventQueue queue;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    queue.Schedule(5.0, [&fired, i] { fired.push_back(i); });
  }
  while (!queue.empty()) {
    queue.FireNext();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fired[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, FireNextReportsTime) {
  EventQueue queue;
  queue.Schedule(7.5, [] {});
  SimTime fired_at = -1.0;
  EXPECT_TRUE(queue.FireNext(std::numeric_limits<SimTime>::infinity(),
                             [&](SimTime t) { fired_at = t; }));
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue queue;
  bool ran = false;
  EventHandle handle = queue.Schedule(1.0, [&] { ran = true; });
  EXPECT_TRUE(handle.pending());
  handle.Cancel();
  EXPECT_FALSE(handle.pending());
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelBuriedEventSkipped) {
  EventQueue queue;
  std::vector<int> fired;
  queue.Schedule(1.0, [&] { fired.push_back(1); });
  EventHandle mid = queue.Schedule(2.0, [&] { fired.push_back(2); });
  queue.Schedule(3.0, [&] { fired.push_back(3); });
  mid.Cancel();
  while (!queue.empty()) {
    queue.FireNext();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, NextTimeSkipsCancelledHead) {
  EventQueue queue;
  EventHandle head = queue.Schedule(1.0, [] {});
  queue.Schedule(2.0, [] {});
  head.Cancel();
  EXPECT_DOUBLE_EQ(queue.NextTime(), 2.0);
}

TEST(EventQueueTest, HandleNotPendingAfterFire) {
  EventQueue queue;
  EventHandle handle = queue.Schedule(1.0, [] {});
  queue.FireNext();
  EXPECT_FALSE(handle.pending());
  handle.Cancel();  // no-op, must not crash
}

TEST(EventQueueTest, DefaultHandleIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.Cancel();
}

TEST(EventQueueTest, CompactionReclaimsCancelledEntries) {
  EventQueue queue;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(queue.Schedule(1000.0 + i, [] {}));
  }
  for (int i = 0; i < 99; ++i) {
    handles[static_cast<size_t>(i)].Cancel();
  }
  // Lazy deletion alone leaves the corpses buried (they are not at the heap top)...
  EXPECT_EQ(queue.size(), 100u);
  // ...but the next schedule notices dead > live and compacts to the 2 live entries.
  queue.Schedule(0.5, [] {});
  EXPECT_EQ(queue.size(), 2u);
  int fired = 0;
  while (!queue.empty()) {
    queue.FireNext();
    ++fired;
  }
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, CompactionPreservesOrderAndPendingHandles) {
  EventQueue queue;
  std::vector<int> fired;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 64; ++i) {
    handles.push_back(queue.Schedule(static_cast<double>(i), [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 64; i += 2) {
    handles[static_cast<size_t>(i)].Cancel();  // kill the evens
  }
  queue.Schedule(100.0, [&fired] { fired.push_back(100); });  // compaction may run mid-drain
  for (int i = 1; i < 64; i += 2) {
    EXPECT_TRUE(handles[static_cast<size_t>(i)].pending()) << i;
  }
  while (!queue.empty()) {
    queue.FireNext();
  }
  ASSERT_EQ(fired.size(), 33u);
  for (size_t k = 0; k + 1 < fired.size(); ++k) {
    EXPECT_LT(fired[k], fired[k + 1]);
  }
}

TEST(EventQueueTest, CancelAfterCompactionIsSafe) {
  EventQueue queue;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 16; ++i) {
    handles.push_back(queue.Schedule(1.0 + i, [] {}));
  }
  for (int i = 0; i < 15; ++i) {
    handles[static_cast<size_t>(i)].Cancel();
  }
  queue.Schedule(50.0, [] {});  // compacts; cancelled entries are physically gone
  for (EventHandle& h : handles) {
    h.Cancel();  // double-cancel + cancel-of-compacted must be no-ops (kills the survivor too)
  }
  EXPECT_FALSE(queue.empty());  // the event scheduled at t=50 is still live
  SimTime fired_at = -1.0;
  queue.FireNext(std::numeric_limits<SimTime>::infinity(), [&](SimTime t) { fired_at = t; });
  EXPECT_DOUBLE_EQ(fired_at, 50.0);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, ScheduleDuringDrain) {
  EventQueue queue;
  std::vector<int> fired;
  queue.Schedule(1.0, [&] {
    fired.push_back(1);
    queue.Schedule(1.5, [&] { fired.push_back(2); });
  });
  while (!queue.empty()) {
    queue.FireNext();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

// --- Reschedule: an in-place move that ties exactly as Cancel + Schedule ---

// Builds the same events in two queues, moves `moved` to `when` in one with Reschedule and in
// the other with Cancel + Schedule, and checks that both fire in the same order.
void ExpectRescheduleMatchesCancelSchedule(int moved, SimTime when) {
  const std::vector<SimTime> times = {1.0, 2.0, 2.0, 3.0, 2.0, 4.0, 1.0};
  EventQueue in_place;
  EventQueue replaced;
  std::vector<int> in_place_order;
  std::vector<int> replaced_order;
  std::vector<EventHandle> in_place_handles;
  std::vector<EventHandle> replaced_handles;
  for (size_t i = 0; i < times.size(); ++i) {
    const int id = static_cast<int>(i);
    in_place_handles.push_back(
        in_place.Schedule(times[i], [&in_place_order, id] { in_place_order.push_back(id); }));
    replaced_handles.push_back(
        replaced.Schedule(times[i], [&replaced_order, id] { replaced_order.push_back(id); }));
  }
  const auto index = static_cast<size_t>(moved);
  EXPECT_TRUE(in_place.Reschedule(in_place_handles[index], when));
  EXPECT_TRUE(in_place_handles[index].pending());
  replaced_handles[index].Cancel();
  replaced.Schedule(when, [&replaced_order, moved] { replaced_order.push_back(moved); });
  // Events scheduled after the move tie behind it in both queues.
  in_place.Schedule(when, [&in_place_order] { in_place_order.push_back(100); });
  replaced.Schedule(when, [&replaced_order] { replaced_order.push_back(100); });
  EXPECT_EQ(in_place.size(), times.size() + 1);  // no dead entry left behind
  EXPECT_EQ(in_place.cancelled(), 0u);
  while (in_place.FireNext()) {
  }
  while (replaced.FireNext()) {
  }
  EXPECT_EQ(in_place_order, replaced_order);
  EXPECT_EQ(in_place_order.size(), times.size() + 1);
  EXPECT_FALSE(in_place_handles[index].pending());
}

TEST(EventQueueTest, RescheduleEarlierTiesAsCancelAndSchedule) {
  ExpectRescheduleMatchesCancelSchedule(/*moved=*/3, /*when=*/2.0);  // behind the 2.0 group
  ExpectRescheduleMatchesCancelSchedule(/*moved=*/5, /*when=*/0.5);  // to the top
  ExpectRescheduleMatchesCancelSchedule(/*moved=*/3, /*when=*/1.0);
}

TEST(EventQueueTest, RescheduleLaterTiesAsCancelAndSchedule) {
  ExpectRescheduleMatchesCancelSchedule(/*moved=*/0, /*when=*/2.0);
  ExpectRescheduleMatchesCancelSchedule(/*moved=*/6, /*when=*/9.0);  // to the bottom
  ExpectRescheduleMatchesCancelSchedule(/*moved=*/1, /*when=*/2.0);  // same time: to the back
}

TEST(EventQueueTest, RescheduleOfFiredCancelledOrDefaultHandleFails) {
  EventQueue queue;
  int ran = 0;
  EventHandle fired = queue.Schedule(1.0, [&] { ++ran; });
  EventHandle cancelled = queue.Schedule(2.0, [&] { ++ran; });
  EventHandle copy_of_cancelled = cancelled;  // still names the node after Cancel
  queue.Schedule(3.0, [&] { ++ran; });
  ASSERT_TRUE(queue.FireNext());
  cancelled.Cancel();
  const EventHandle default_handle;
  const size_t size = queue.size();
  EXPECT_FALSE(queue.Reschedule(fired, 0.5));
  EXPECT_FALSE(queue.Reschedule(cancelled, 0.5));
  EXPECT_FALSE(queue.Reschedule(copy_of_cancelled, 0.5));
  EXPECT_FALSE(queue.Reschedule(default_handle, 0.5));
  EXPECT_FALSE(fired.pending());
  EXPECT_FALSE(copy_of_cancelled.pending());
  EXPECT_EQ(queue.size(), size);
  EXPECT_DOUBLE_EQ(queue.NextTime(), 3.0);  // the cancelled event did not come back
  while (queue.FireNext()) {
  }
  EXPECT_EQ(ran, 2);
}

// Retime moves an event and keeps its sequence number: it ties exactly as an event scheduled
// at the new time under a number reserved where the original was scheduled.
TEST(EventQueueTest, RetimeTiesAsTheOriginalSequenceNumber) {
  for (const SimTime when : {0.5, 2.0, 9.0}) {
    SCOPED_TRACE(when);
    EventQueue retimed;
    EventQueue reserved;
    std::vector<int> retimed_order;
    std::vector<int> reserved_order;
    const std::vector<SimTime> times = {1.0, 2.0, 2.0, 3.0, 2.0};
    EventHandle handle;
    uint64_t seq = 0;
    for (size_t i = 0; i < times.size(); ++i) {
      const int id = static_cast<int>(i);
      const EventHandle h =
          retimed.Schedule(times[i], [&retimed_order, id] { retimed_order.push_back(id); });
      if (i == 2) {
        handle = h;
        seq = reserved.ReserveSeqs(1);
      } else {
        reserved.Schedule(times[i], [&reserved_order, id] { reserved_order.push_back(id); });
      }
    }
    retimed.Schedule(when, [&retimed_order] { retimed_order.push_back(100); });
    reserved.Schedule(when, [&reserved_order] { reserved_order.push_back(100); });
    EXPECT_TRUE(retimed.Retime(handle, when));
    EXPECT_TRUE(handle.pending());
    reserved.ScheduleReserved(when, seq, [&reserved_order] { reserved_order.push_back(2); });
    EXPECT_EQ(retimed.cancelled(), 0u);
    while (retimed.FireNext()) {
    }
    while (reserved.FireNext()) {
    }
    EXPECT_EQ(retimed_order, reserved_order);
    EXPECT_EQ(retimed_order.size(), times.size() + 1);
  }
}

TEST(EventQueueTest, RetimeOfFiredOrCancelledHandleFails) {
  EventQueue queue;
  EventHandle fired = queue.Schedule(1.0, [] {});
  EventHandle cancelled = queue.Schedule(2.0, [] {});
  ASSERT_TRUE(queue.FireNext());
  cancelled.Cancel();
  EXPECT_FALSE(queue.Retime(fired, 0.5));
  EXPECT_FALSE(queue.Retime(cancelled, 0.5));
  EXPECT_FALSE(queue.Retime(EventHandle(), 0.5));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, RescheduleFromAnotherQueueFails) {
  EventQueue a;
  EventQueue b;
  EventHandle handle = a.Schedule(1.0, [] {});
  b.Schedule(2.0, [] {});
  EXPECT_FALSE(b.Reschedule(handle, 0.5));
  EXPECT_TRUE(handle.pending());
  EXPECT_DOUBLE_EQ(a.NextTime(), 1.0);
  EXPECT_DOUBLE_EQ(b.NextTime(), 2.0);
}

TEST(EventQueueTest, FireNextStopsAfterUntil) {
  EventQueue queue;
  int ran = 0;
  queue.Schedule(1.0, [&] { ++ran; });
  queue.Schedule(2.0, [&] { ++ran; });
  EXPECT_TRUE(queue.FireNext(1.0));  // at `until` fires
  EXPECT_FALSE(queue.FireNext(1.5));
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(queue.empty());
}

// A callback that schedules enough to add many slab chunks keeps running from intact storage:
// FireNext invokes it in place, and chunks never move.
TEST(EventQueueTest, CallbackThatGrowsTheSlabRunsInPlace) {
  struct Grower {
    EventQueue* queue;
    int* scheduled;
    uint64_t words[6];
    void operator()() const {
      for (int i = 0; i < 1000; ++i) {
        queue->Schedule(2.0, [] {});
        ++*scheduled;
      }
      for (uint64_t k = 0; k < 6; ++k) {
        EXPECT_EQ(words[k], 0x0123456789abcdefULL + k) << k;
      }
    }
  };
  static_assert(sizeof(Grower) <= 64, "must sit in the slab node, not in a heap box");
  EventQueue queue;
  int scheduled = 0;
  queue.Schedule(1.0, Grower{&queue, &scheduled,
                             {0x0123456789abcdefULL, 0x0123456789abcdefULL + 1,
                              0x0123456789abcdefULL + 2, 0x0123456789abcdefULL + 3,
                              0x0123456789abcdefULL + 4, 0x0123456789abcdefULL + 5}});
  ASSERT_TRUE(queue.FireNext());
  EXPECT_EQ(scheduled, 1000);
  EXPECT_EQ(queue.size(), 1000u);
}

// --- Property test: random operation sequences against a std::set reference ---

// The reference: every pending event's (time, seq, id), and the sequence counter the queue is
// expected to keep (Schedule and Reschedule take one number each, ReserveSeqs a block).
struct Reference {
  EventQueue* queue = nullptr;
  std::set<std::tuple<SimTime, uint64_t, int>> pending;
  std::vector<std::tuple<SimTime, uint64_t, int>> key;  // by id: the current key
  std::vector<EventHandle> handles;                     // by id
  std::vector<bool> live;                               // by id: still pending
  uint64_t next_seq = 0;
  SimTime now = 0.0;
  std::vector<int> fired;
  int compactions = 0;

  // Schedules a new event at `when` (under `seq` when `reserved`) and returns its id.
  int Add(SimTime when, uint64_t seq, bool reserved, int grow);
  void CheckAfterPush() {
    const size_t live_count = pending.size();
    const size_t dead = queue->size() - live_count;
    // A push compacts once dead entries outnumber half the stored ones.
    EXPECT_LE(2 * dead, queue->size());
  }
};

// An event's callback. `grow` > 0 makes it schedule that many events while it runs, enough to
// add slab chunks under the callback that is executing; `check` must read back intact after.
struct RefEvent {
  Reference* ref;
  int id;
  int grow;
  uint64_t check;

  static uint64_t CheckFor(int id) { return 0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(id); }

  void operator()() const {
    ref->fired.push_back(id);
    for (int k = 0; k < grow; ++k) {
      ref->Add(ref->now + 0.25 * static_cast<double>(k % 9), 0, false, 0);
      ref->CheckAfterPush();
    }
    EXPECT_EQ(check, CheckFor(id)) << "callback storage moved while it ran";
  }
};

int Reference::Add(SimTime when, uint64_t seq, bool reserved, int grow) {
  const int id = static_cast<int>(handles.size());
  const size_t before = queue->size();
  const uint64_t s = reserved ? seq : next_seq++;
  const RefEvent event{this, id, grow, RefEvent::CheckFor(id)};
  handles.push_back(reserved ? queue->ScheduleReserved(when, seq, RefEvent(event))
                             : queue->Schedule(when, RefEvent(event)));
  if (queue->size() <= before) {
    ++compactions;
  }
  key.emplace_back(when, s, id);
  live.push_back(true);
  pending.insert(key.back());
  return id;
}

TEST(EventQueuePropertyTest, RandomOperationsMatchASetReference) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    EventQueue queue;
    Reference ref;
    ref.queue = &queue;
    std::vector<uint64_t> reserved;  // reserved sequence numbers not yet scheduled
    const auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
    // Times on a coarse grid, so that many events tie.
    const auto later = [&] { return ref.now + 0.25 * static_cast<double>(rng() % 12); };
    for (int op = 0; op < 4000; ++op) {
      const uint64_t roll = rng() % 100;
      if (roll < 25) {
        const int grow = rng() % 50 == 0 ? 200 : 0;  // far above the standing depth
        ref.Add(later(), 0, false, grow);
        ref.CheckAfterPush();
      } else if (roll < 32) {
        if (reserved.empty() || rng() % 3 == 0) {
          const uint64_t n = 1 + rng() % 4;
          const uint64_t base = queue.ReserveSeqs(n);
          ASSERT_EQ(base, ref.next_seq);
          for (uint64_t k = 0; k < n; ++k) {
            reserved.push_back(base + k);
          }
          ref.next_seq += n;
        } else {
          const size_t k = pick(reserved.size());
          const uint64_t seq = reserved[k];
          reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(k));
          ref.Add(later(), seq, true, 0);
          ref.CheckAfterPush();
        }
      } else if (roll < 50) {
        if (ref.handles.empty()) {
          continue;
        }
        const size_t id = pick(ref.handles.size());
        ref.handles[id].Cancel();
        if (ref.live[id]) {
          ref.pending.erase(ref.key[id]);
          ref.live[id] = false;
        }
        EXPECT_FALSE(ref.handles[id].pending());
      } else if (roll < 52) {
        // A burst: most pending events cancelled at once, so the next push compacts.
        for (size_t id = 0; id < ref.handles.size(); ++id) {
          if (ref.live[id] && rng() % 4 != 0) {
            ref.handles[id].Cancel();
            ref.pending.erase(ref.key[id]);
            ref.live[id] = false;
          }
        }
      } else if (roll < 72) {
        if (ref.handles.empty()) {
          continue;
        }
        // Reschedule takes a fresh sequence number; Retime keeps the event's own.
        const bool retime = roll >= 64;
        const size_t id = pick(ref.handles.size());
        const SimTime when = later();
        const size_t size = queue.size();
        const bool moved = retime ? queue.Retime(ref.handles[id], when)
                                  : queue.Reschedule(ref.handles[id], when);
        EXPECT_EQ(moved, static_cast<bool>(ref.live[id]));
        EXPECT_EQ(queue.size(), size);
        if (moved) {
          ref.pending.erase(ref.key[id]);
          const uint64_t seq = retime ? std::get<1>(ref.key[id]) : ref.next_seq++;
          ref.key[id] = {when, seq, static_cast<int>(id)};
          ref.pending.insert(ref.key[id]);
          EXPECT_TRUE(ref.handles[id].pending());
        }
      } else {
        const bool expect = !ref.pending.empty();
        int expected_id = -1;
        SimTime expected_time = 0.0;
        if (expect) {
          std::tie(expected_time, std::ignore, expected_id) = *ref.pending.begin();
          ref.pending.erase(ref.pending.begin());
          ref.live[static_cast<size_t>(expected_id)] = false;
        }
        const size_t fired_before = ref.fired.size();
        const bool fired = queue.FireNext(std::numeric_limits<SimTime>::infinity(),
                                          [&](SimTime t) {
                                            EXPECT_EQ(t, expected_time);
                                            ref.now = t;
                                            // Marked fired before the callback runs.
                                            EXPECT_FALSE(ref.handles[static_cast<size_t>(
                                                             expected_id)].pending());
                                          });
        ASSERT_EQ(fired, expect);
        if (fired) {
          ASSERT_GT(ref.fired.size(), fired_before);
          EXPECT_EQ(ref.fired[fired_before], expected_id);
        }
      }
      ASSERT_EQ(queue.empty(), ref.pending.empty());
      ASSERT_EQ(queue.NextTime(), ref.pending.empty()
                                      ? std::numeric_limits<SimTime>::infinity()
                                      : std::get<0>(*ref.pending.begin()));
    }
    // Drain: the rest fires in reference order.
    while (!ref.pending.empty()) {
      const int expected_id = std::get<2>(*ref.pending.begin());
      ref.pending.erase(ref.pending.begin());
      ref.live[static_cast<size_t>(expected_id)] = false;
      const size_t fired_before = ref.fired.size();
      ASSERT_TRUE(queue.FireNext(std::numeric_limits<SimTime>::infinity(),
                                 [&](SimTime t) { ref.now = t; }));
      EXPECT_EQ(ref.fired[fired_before], expected_id);
    }
    EXPECT_FALSE(queue.FireNext());
    EXPECT_TRUE(queue.empty());
    EXPECT_GT(ref.compactions, 0) << "the sequence must cross compactions";
  }
}

}  // namespace
}  // namespace distserve::simcore
