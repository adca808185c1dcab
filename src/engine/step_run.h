// The run of engine steps in flight (StepRun) that the DES engines step their decode batches
// (engine/batch_former.h) with.
//
// Between membership changes a decode batch is fixed and its context sum grows by exactly
// `batch` tokens per step, so the next steps' workloads are known when the run starts. A run
// prices them up front with the batch's LatencyModel::DecodePricer (the batch-dependent terms
// once, then one KV-read term per step; bit-identical to FullTime), accumulates each step's
// end time in step order — the same additions the per-step event chain made — and the engine
// schedules one DES event at the run's last boundary instead of one per step. Steps that
// carry prefill work are runs of length 1.
//
// The engine commits a step's start (busy time, step count, per-member trace transitions)
// lazily: when it next handles an event, it commits every start at or before that event's
// time. An interior boundary at exactly an event's time counts as passed: the step ending
// there has ended and the next one has started. A membership change mid-run cuts the run at
// the end of the step in flight (CutAfterCommitted), and the engine moves the run's event there.
// A join that nothing else can act on at that boundary folds into the run instead
// (FoldDecode): the steps through the one in flight stay, the rest are re-priced for the
// merged batch with their ends summed on from the in-flight step's end, and the run's one
// event moves to the new last boundary. The engine merges the joiners when it commits the
// fold's boundary, and DropBeforeFold then makes that boundary step 0, so a run never holds
// more than the steps through the one in flight plus kDecodeStepChunk more.
#ifndef DISTSERVE_ENGINE_STEP_RUN_H_
#define DISTSERVE_ENGINE_STEP_RUN_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "common/logging.h"
#include "engine/batch_former.h"
#include "model/latency_model.h"
#include "simcore/event_queue.h"

namespace distserve::engine {

// Longest run, in steps. Sizes the StepRun arrays and caps a run's length, so an
// uninterrupted stretch of decoding costs one DES event per kDecodeStepChunk steps: the event
// counts the benches print (fig_fleet's among them) depend on this value.
inline constexpr int kDecodeStepChunk = 32;

class StepRun {
 public:
  // Steps a run can hold: a fresh run has at most kDecodeStepChunk, and a fold keeps the steps
  // through the one in flight (at most kDecodeStepChunk, since the fold's boundary drops the
  // steps before it once committed) and adds at most kDecodeStepChunk more.
  static constexpr int kCapacity = 2 * kDecodeStepChunk;

  // Starts a run of `steps` decode-only steps at time `start`: `batch` members whose contexts
  // sum to `ctx_tokens` before the first step. Step i costs
  // FullTime(Decode(batch, ctx_tokens + i * batch)) + overhead.
  void StartDecode(const model::LatencyModel& lm, double start, int64_t batch,
                   int64_t ctx_tokens, int steps, double overhead) {
    DS_DCHECK(steps > 0 && steps <= kDecodeStepChunk);
    Begin(start);
    PriceDecode(lm, 0, start, batch, ctx_tokens, steps, overhead);
  }

  // Starts a one-step run of known duration (a step that carries prefill work).
  void StartSingle(double start, double step_time) {
    Begin(start);
    times_[0] = step_time;
    ends_[0] = start + step_time;
    len_ = 1;
  }

  // Folds a change of membership at the end of the step in flight (the last committed one)
  // into the run: keeps the steps through it and replaces the rest with `steps` decode steps
  // priced as StartDecode would price them from that end, their ends summed on from it. The
  // first of them is the fold boundary (fold_step()) until the engine commits it; folding
  // again before then re-prices from the same boundary. Requires a step after the one in
  // flight (committed() < len()).
  void FoldDecode(const model::LatencyModel& lm, int64_t batch, int64_t ctx_tokens, int steps,
                  double overhead) {
    DS_DCHECK(committed_ > 0 && committed_ < len_);
    DS_DCHECK(steps > 0 && steps <= kDecodeStepChunk && committed_ + steps <= kCapacity);
    fold_ = committed_;
    PriceDecode(lm, committed_, end_of(committed_ - 1), batch, ctx_tokens, steps, overhead);
  }

  bool in_flight() const { return len_ > 0; }
  void Clear() {
    len_ = 0;
    fold_ = 0;
  }

  int len() const { return len_; }
  double start_of(int i) const { return i == 0 ? start_ : ends_[static_cast<size_t>(i - 1)]; }
  double time_of(int i) const { return times_[static_cast<size_t>(i)]; }
  double end_of(int i) const { return ends_[static_cast<size_t>(i)]; }
  // The run's last boundary: where its event fires.
  double end() const { return ends_[static_cast<size_t>(len_ - 1)]; }

  // Steps whose start the engine has committed. Step i > 0 starts where step i - 1 ends, so
  // committed() - 1 interior boundaries have passed.
  int committed() const { return committed_; }
  // True when the next uncommitted step starts at or before `now`.
  bool StartDueBy(double now) const {
    return committed_ < len_ && start_of(committed_) <= now;
  }
  // Commits the next step's start; returns its index. The fold boundary is committed with
  // DropBeforeFold instead.
  int CommitStart() {
    DS_DCHECK(!AtFold());
    return committed_++;
  }
  // Steps started at or before `now`, committed or not (read-only views of the counters).
  int StartedBy(double now) const {
    int i = committed_;
    while (i < len_ && start_of(i) <= now) {
      ++i;
    }
    return i;
  }

  // The first step of a fold whose start is not committed yet; 0 when none is pending.
  int fold_step() const { return fold_; }
  bool fold_pending() const { return fold_ > 0; }
  // True when the next step to commit is the fold boundary.
  bool AtFold() const { return fold_ > 0 && committed_ == fold_; }
  // At the fold boundary: drops the steps before it, so the boundary becomes step 0 of a
  // fresh run starting there (uncommitted). The caller traces the dropped steps first.
  void DropBeforeFold() {
    DS_DCHECK(AtFold());
    const auto first = static_cast<std::ptrdiff_t>(fold_);
    const auto last = static_cast<std::ptrdiff_t>(len_);
    start_ = ends_[static_cast<size_t>(fold_ - 1)];
    std::copy(times_.begin() + first, times_.begin() + last, times_.begin());
    std::copy(ends_.begin() + first, ends_.begin() + last, ends_.begin());
    len_ -= fold_;
    committed_ = 0;
    fold_ = 0;
  }

  // Shortens the run to end with the step in flight (the last committed one), dropping a
  // pending fold. Returns false when it already does, so the run's event needs no move. The
  // caller must have committed every start at or before now.
  bool CutAfterCommitted() {
    DS_DCHECK(committed_ > 0);
    if (committed_ == len_) {
      return false;
    }
    len_ = committed_;
    fold_ = 0;
    return true;
  }

  // The pending event at end(); re-timed in place (Simulator::Reschedule or Retime) on a cut
  // or a fold.
  simcore::EventHandle event;

 private:
  void Begin(double start) {
    start_ = start;
    committed_ = 0;
    fold_ = 0;
  }

  // Prices steps first .. first + steps - 1 of one batch, summing their ends on from `start`
  // in step order, and ends the run with them.
  void PriceDecode(const model::LatencyModel& lm, int first, double start, int64_t batch,
                   int64_t ctx_tokens, int steps, double overhead) {
    const model::DecodeStepPricer pricer = lm.DecodePricer(batch);
    double now = start;
    for (int i = 0; i < steps; ++i) {
      const auto s = static_cast<size_t>(first + i);
      times_[s] = pricer.FullTime(ctx_tokens + static_cast<int64_t>(i) * batch);
      times_[s] += overhead;
      now += times_[s];
      ends_[s] = now;
    }
    len_ = first + steps;
  }

  double start_ = 0.0;
  int len_ = 0;
  int committed_ = 0;
  int fold_ = 0;
  std::array<double, kCapacity> times_{};
  std::array<double, kCapacity> ends_{};
};

}  // namespace distserve::engine

#endif  // DISTSERVE_ENGINE_STEP_RUN_H_
