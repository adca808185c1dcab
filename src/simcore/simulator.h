// The discrete-event simulator: a virtual clock driving an EventQueue.
//
// Components ("actors": instances, controllers, links) hold a Simulator* and schedule their own
// future work with ScheduleAt/ScheduleAfter. Run() processes events in timestamp order until
// the queue drains or a horizon is reached. The simulator is single-threaded by design —
// determinism is worth more than parallelism at the event rates involved (an end-to-end
// serving run is a few million events).
#ifndef DISTSERVE_SIMCORE_SIMULATOR_H_
#define DISTSERVE_SIMCORE_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "simcore/event_queue.h"

namespace distserve::simcore {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }
  int64_t events_processed() const { return events_processed_; }
  // Events cancelled before they fired. Every scheduled event either fires or is cancelled,
  // so once the queue drains this is how many more events were scheduled than fired.
  int64_t events_cancelled() const { return static_cast<int64_t>(queue_.cancelled()); }

  // Timestamp of the last event actually fired (0.0 before any event fires). Unlike now(),
  // which a finite Run horizon or RunBefore window pins to the bound, this tracks real work —
  // the sharded simulator uses the maximum across shards as the canonical, shard-count-
  // independent end of a run (e.g. for closing fault downtime intervals).
  SimTime last_event_time() const { return last_event_time_; }

  // Schedules `fn` at absolute virtual time `when` (must be >= now()). Inline and by rvalue
  // reference so the callback relocates once, caller straight into the queue's slab (see
  // EventQueue::Schedule) — this path runs once per event and dominates scheduling cost.
  EventHandle ScheduleAt(SimTime when, EventCallback&& fn) {
    DS_DCHECK(when >= now_) << "scheduling into the past: " << when << " < " << now_;
    return queue_.Schedule(when, std::move(fn));
  }

  // Schedules `fn` after a non-negative delay.
  EventHandle ScheduleAfter(SimTime delay, EventCallback&& fn) {
    DS_DCHECK(delay >= 0.0);
    return queue_.Schedule(now_ + delay, std::move(fn));
  }

  // Moves a pending event to `when` (must be >= now()) in place: same callback, same handle,
  // and the tie position a fresh ScheduleAt(when, ...) would get (EventQueue::Reschedule).
  // Returns false, changing nothing, when the handle is not pending.
  bool Reschedule(const EventHandle& handle, SimTime when) {
    DS_DCHECK(when >= now_) << "scheduling into the past: " << when << " < " << now_;
    return queue_.Reschedule(handle, when);
  }

  // Moves a pending event to `when` (must be >= now()) in place, keeping its sequence number
  // (EventQueue::Retime). Returns false, changing nothing, when the handle is not pending.
  bool Retime(const EventHandle& handle, SimTime when) {
    DS_DCHECK(when >= now_) << "scheduling into the past: " << when << " < " << now_;
    return queue_.Retime(handle, when);
  }

  // Reserves `n` consecutive event sequence numbers and returns the first
  // (EventQueue::ReserveSeqs). An event scheduled later under one of them with
  // ScheduleReserved ties against every other event as if it had been scheduled at reservation
  // time, so a component can decide later whether an event is needed at all.
  uint64_t ReserveSeqs(uint64_t n) { return queue_.ReserveSeqs(n); }

  // Schedules `fn` at `when` (must be >= now()) under a sequence number from ReserveSeqs.
  EventHandle ScheduleReserved(SimTime when, uint64_t seq, EventCallback&& fn) {
    DS_DCHECK(when >= now_) << "scheduling into the past: " << when << " < " << now_;
    return queue_.ScheduleReserved(when, seq, std::move(fn));
  }

  // Streams `n` timed arrivals (a workload trace) through the queue's stream slot, outside the
  // heap: only the next arrival is ever pending, so the heap holds in-flight work, not the whole
  // trace, and an arrival costs no push or pop. Arrival i fires at time_of(i); its event first
  // re-arms the slot with arrival i + 1 and then calls fire(i). Every arrival carries the
  // sequence number it would have had if all n had been scheduled here, up front
  // (EventQueue::ReserveSeqs), so events at equal times fire in the same order as under that
  // up-front schedule: after events scheduled before this call, before events scheduled after
  // it (fault plans, and everything the arrivals cause). Arrival times must not decrease; a
  // trace that does aborts, naming the offending index. One stream at a time: a call while an
  // earlier stream still has an arrival pending or firing aborts. time_of and fire must stay
  // valid until the last arrival has fired.
  template <typename TimeOf, typename Fire>
  void StreamArrivals(size_t n, TimeOf time_of, Fire fire);

  // Runs until the event queue is empty or virtual time would exceed `until`.
  // Returns the number of events processed by this call.
  int64_t Run(SimTime until = std::numeric_limits<SimTime>::infinity());

  // Processes every event strictly before `bound`, then advances the clock to exactly `bound`
  // (events at `bound` itself stay pending). This is one conservative-lookahead window of the
  // sharded simulator: after the call the shard's clock sits on the window edge, where
  // cross-shard messages timestamped >= the edge can be delivered without reordering.
  int64_t RunBefore(SimTime bound);

  // True when no live events remain, counting a pending streamed arrival.
  bool Idle() const { return queue_.empty(); }

  // Time of the earliest pending event, a pending streamed arrival included; +infinity when
  // idle. The sharded simulator computes each lookahead window's start as the minimum across
  // shards. A callback that finds NextTime() > now() knows that no other event can fire at
  // now(), so work it would have scheduled at now() can run inline without changing any
  // observable order.
  SimTime NextTime() { return queue_.NextTime(); }

  // True while Run or RunBefore is firing events, that is, inside an event callback. Outside
  // them, work scheduled at now() waits for the caller's next Run, and may be joined by more
  // work the caller adds before it.
  bool running() const { return running_; }

  // Entries stored in the event queue, plus one while a streamed arrival is pending
  // (EventQueue::size).
  size_t queue_size() const { return queue_.size(); }

 private:
  // The stream slot's callback: fires arrival `index` and re-arms itself for the next one.
  // Captures an index, not a copy of the arrival.
  template <typename TimeOf, typename Fire>
  struct StreamedArrival {
    Simulator* sim;
    size_t index;
    size_t n;
    TimeOf time_of;
    Fire fire;

    void operator()() {
      const size_t current = index++;
      if (index < n) {
        const SimTime when = time_of(index);
        DS_CHECK(when >= sim->now_) << "arrival times must not decrease: arrival " << index
                                    << " at " << when << " follows arrival " << current
                                    << " at " << sim->now_;
        sim->queue_.AdvanceStream(when);
      } else {
        sim->queue_.EndStream();
      }
      fire(current);
    }
  };

  // Fires the next event at or before `until`, advancing the clock to it first.
  bool FireNext(SimTime until) {
    return queue_.FireNext(until, [this](SimTime when) {
      DS_DCHECK(when >= now_);
      now_ = when;
      last_event_time_ = when;
    });
  }

  EventQueue queue_;
  SimTime now_ = 0.0;
  SimTime last_event_time_ = 0.0;
  int64_t events_processed_ = 0;
  bool running_ = false;
};

template <typename TimeOf, typename Fire>
void Simulator::StreamArrivals(size_t n, TimeOf time_of, Fire fire) {
  using Event = StreamedArrival<TimeOf, Fire>;
  static_assert(sizeof(Event) <= 64, "a streamed arrival must fit EventCallback's inline storage");
  if (n == 0) {
    return;
  }
  const uint64_t base = queue_.ReserveSeqs(n);
  const SimTime first = time_of(0);
  // Checked in every build: one compare per stream, and a stream into the past means the
  // caller reused a clock it should not have.
  DS_CHECK(first >= now_) << "scheduling into the past: " << first << " < " << now_;
  queue_.BeginStream(first, base, Event{this, 0, n, std::move(time_of), std::move(fire)});
}

}  // namespace distserve::simcore

#endif  // DISTSERVE_SIMCORE_SIMULATOR_H_
