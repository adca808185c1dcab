// KV-cache transfer modelling.
//
// A Link is a FIFO bandwidth pipe: concurrent transfers serialize (NIC or NVLink contention)
// and each completes `latency + bytes/bandwidth` after it reaches the head of the pipe. The
// serving system gives every decode instance one ingress link whose bandwidth depends on the
// placement: NVLink when the plan colocates corresponding pipeline stages per node
// (Algorithm 2), the cross-node NIC otherwise. This reproduces the §6.3 measurement setup:
// per-request transfer time and its CDF, with contention under bursts.
#ifndef DISTSERVE_SERVING_TRANSFER_H_
#define DISTSERVE_SERVING_TRANSFER_H_

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "simcore/simulator.h"

namespace distserve::trace {
class Recorder;
}

namespace distserve::serving {

class Link {
 public:
  // `bandwidth` bytes/second, `latency` seconds per transfer.
  Link(simcore::Simulator* sim, double bandwidth, double latency, std::string name);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Optional span recorder; records each transfer's service window (queue-head occupancy) on
  // the link's own instance track under `pid`.
  void set_recorder(trace::Recorder* recorder, int32_t pid) {
    recorder_ = recorder;
    trace_pid_ = pid;
  }

  // Enqueues a transfer; `done` (any callable) fires at completion time, which is returned.
  // Issuing on a dead link drops the transfer silently (the bytes vanish; callers detect via
  // their own watchdog timeout) and returns +infinity; a Fail() while the transfer is in
  // flight drops it too. `done` moves straight into the completion event, so a callable of up
  // to 48 bytes costs no heap allocation.
  template <typename Done>
  double Transfer(int64_t bytes, Done&& done) {
    if (!StartService(bytes)) {
      return std::numeric_limits<double>::infinity();
    }
    const double completes_at = busy_until_ + latency_;
    sim_->ScheduleAt(completes_at,
                     [this, epoch = epoch_, done = std::forward<Done>(done)]() mutable {
                       if (epoch != epoch_) {
                         return;  // the link died while this transfer was in flight
                       }
                       done();
                     });
    return completes_at;
  }

  // Fault injection (serving::FaultPlan): a dead link moves no bytes and never completes a
  // transfer. Fail() aborts in-flight transfers without notification — modelling a dark NIC,
  // not a polite connection reset — so the serving layer times pulls out with a watchdog, which
  // it arms for every pull in flight when the link fails.
  // Idempotent; Recover() resets the pipe to empty.
  void Fail();
  void Recover();
  bool alive() const { return alive_; }

  double bandwidth() const { return bandwidth_; }
  const std::string& name() const { return name_; }
  int64_t bytes_transferred() const { return bytes_transferred_; }
  int64_t transfers() const { return transfers_; }
  int64_t transfers_dropped() const { return transfers_dropped_; }
  double busy_seconds() const { return busy_seconds_; }

 private:
  // Queues `bytes` behind the transfers in flight and books the service window; false (the
  // bytes vanish) when the link is dead.
  bool StartService(int64_t bytes);

  simcore::Simulator* sim_;
  double bandwidth_;
  double latency_;
  std::string name_;

  trace::Recorder* recorder_ = nullptr;
  int32_t trace_pid_ = 0;

  bool alive_ = true;
  uint64_t epoch_ = 0;  // completions scheduled before a Fail() become no-ops

  double busy_until_ = 0.0;
  int64_t bytes_transferred_ = 0;
  int64_t transfers_ = 0;
  int64_t transfers_dropped_ = 0;
  double busy_seconds_ = 0.0;
};

}  // namespace distserve::serving

#endif  // DISTSERVE_SERVING_TRANSFER_H_
