// A fixed-size worker pool and the speculative ordered-evaluation helper the placement search
// is built on.
//
// Design constraint (see DESIGN.md §10): every DES goodput simulation is pure and
// single-threaded, so candidate configurations can be evaluated concurrently — but the
// planner's winner selection (`Improves`) is an order-dependent fold, and its search-space
// pruning consults the incumbent. To keep N-thread results bit-identical to the serial
// search, all decisions (prune / keep / select) happen on the calling thread in enumeration
// order; workers only *speculate* on tasks ahead of the fold. A task the fold decides to
// skip is cancelled if no worker has claimed it yet, and its value is discarded otherwise —
// either way the fold's trajectory is exactly the serial one.
//
// ThreadPool(0) spawns no threads and runs everything inline on the caller, which is both the
// serial reference implementation and the fallback on single-core hosts.
#ifndef DISTSERVE_COMMON_THREAD_POOL_H_
#define DISTSERVE_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace distserve {

class ThreadPool {
 public:
  // Spawns `num_workers` persistent threads; 0 is valid (all work runs on the caller).
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Enqueues `fn` for asynchronous execution on a worker (runs inline when num_workers()==0).
  void Submit(std::function<void()> fn);

  // Runs fn(0..n-1), distributing iterations dynamically over the workers plus the calling
  // thread; returns when all iterations completed. `fn` must not throw.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

  // Host core count (>= 1); the natural default worker count for CPU-bound search.
  static int HardwareConcurrency();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

// A batch of independent pure tasks evaluated speculatively by pool workers while the owner
// consumes them in its own (serial, deterministic) order via Force/Cancel. Workers claim
// tasks in index order; each task runs at most once. `R` must be default-constructible.
template <typename R>
class SpeculativeTaskSet {
 public:
  // `pool` may be null (no speculation; Force runs inline — the serial path).
  SpeculativeTaskSet(ThreadPool* pool, std::vector<std::function<R()>> tasks)
      : state_(std::make_shared<State>()) {
    state_->tasks = std::move(tasks);
    const size_t n = state_->tasks.size();
    state_->status = std::make_unique<std::atomic<int>[]>(n);
    for (size_t i = 0; i < n; ++i) {
      state_->status[i].store(kPending, std::memory_order_relaxed);
    }
    state_->values.resize(n);
    if (pool != nullptr && pool->num_workers() > 0 && n > 1) {
      const int spawn = static_cast<int>(
          std::min<size_t>(static_cast<size_t>(pool->num_workers()), n));
      for (int w = 0; w < spawn; ++w) {
        pool->Submit([state = state_] { WorkerScan(*state); });
      }
    }
  }

  // Cancels still-pending tasks and waits for in-flight speculative ones to finish, so task
  // closures never outlive the data they reference.
  ~SpeculativeTaskSet() {
    for (size_t i = 0; i < state_->tasks.size(); ++i) {
      Cancel(i);
    }
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] {
      for (size_t i = 0; i < state_->tasks.size(); ++i) {
        if (state_->status[i].load(std::memory_order_acquire) == kRunning) {
          return false;
        }
      }
      return true;
    });
  }

  SpeculativeTaskSet(const SpeculativeTaskSet&) = delete;
  SpeculativeTaskSet& operator=(const SpeculativeTaskSet&) = delete;

  size_t size() const { return state_->tasks.size(); }

  // Returns task i's value, running it inline if no worker claimed it yet (or it was
  // cancelled) and waiting for the worker otherwise.
  const R& Force(size_t i) {
    std::atomic<int>& st = state_->status[i];
    int expected = kPending;
    // Workers never claim a cancelled task, so only the owner can revive it.
    if (st.compare_exchange_strong(expected, kRunning, std::memory_order_acq_rel) ||
        (expected == kCancelled &&
         st.compare_exchange_strong(expected, kRunning, std::memory_order_acq_rel))) {
      RunOne(*state_, i);
    } else if (expected == kRunning) {
      std::unique_lock<std::mutex> lock(state_->mu);
      state_->cv.wait(lock,
                      [&] { return st.load(std::memory_order_acquire) == kDone; });
    }
    return *state_->values[i];
  }

  // Stops workers from starting task i; a no-op if it already ran or is running (the value is
  // simply never consumed). A later Force still runs it inline. Returns true when the task
  // has not started.
  bool Cancel(size_t i) {
    int expected = kPending;
    if (state_->status[i].compare_exchange_strong(expected, kCancelled,
                                                  std::memory_order_acq_rel)) {
      return true;
    }
    return expected == kCancelled;
  }

  // Whether task i produced (or is producing) a value — i.e. speculation or Force ran it.
  bool Started(size_t i) const {
    const int st = state_->status[i].load(std::memory_order_acquire);
    return st == kRunning || st == kDone;
  }

 private:
  enum Status { kPending = 0, kRunning = 1, kDone = 2, kCancelled = 3 };

  struct State {
    std::vector<std::function<R()>> tasks;
    std::unique_ptr<std::atomic<int>[]> status;
    std::vector<std::optional<R>> values;
    std::atomic<size_t> scan_hint{0};
    std::mutex mu;
    std::condition_variable cv;
  };

  static void RunOne(State& state, size_t i) {
    state.values[i].emplace(state.tasks[i]());
    state.status[i].store(kDone, std::memory_order_release);
    std::lock_guard<std::mutex> lock(state.mu);
    state.cv.notify_all();
  }

  static void WorkerScan(State& state) {
    const size_t n = state.tasks.size();
    while (true) {
      const size_t i = state.scan_hint.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      int expected = kPending;
      if (state.status[i].compare_exchange_strong(expected, kRunning,
                                                  std::memory_order_acq_rel)) {
        RunOne(state, i);
      }
    }
  }

  std::shared_ptr<State> state_;
};

}  // namespace distserve

#endif  // DISTSERVE_COMMON_THREAD_POOL_H_
