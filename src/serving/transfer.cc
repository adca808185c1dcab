#include "serving/transfer.h"

#include <algorithm>

#include "common/logging.h"
#include "trace/recorder.h"

namespace distserve::serving {

Link::Link(simcore::Simulator* sim, double bandwidth, double latency, std::string name)
    : sim_(sim), bandwidth_(bandwidth), latency_(latency), name_(std::move(name)) {
  DS_CHECK(sim != nullptr);
  DS_CHECK_GT(bandwidth, 0.0);
  DS_CHECK_GE(latency, 0.0);
}

bool Link::StartService(int64_t bytes) {
  DS_CHECK_GE(bytes, 0);
  if (!alive_) {
    ++transfers_dropped_;
    return false;  // bytes vanish; the caller's watchdog fires eventually
  }
  const double service = static_cast<double>(bytes) / bandwidth_;
  const double start = std::max(sim_->now(), busy_until_);
  busy_until_ = start + service;
  // Service window only; the fixed latency tail may overlap the next queued transfer.
  DS_TRACE(recorder_, InstanceSpan(trace_pid_, 0, trace::SpanKind::kKvTransfer, start,
                                   busy_until_, bytes));
  busy_seconds_ += service;
  bytes_transferred_ += bytes;
  ++transfers_;
  return true;
}

void Link::Fail() {
  if (!alive_) {
    return;
  }
  alive_ = false;
  ++epoch_;
  busy_until_ = 0.0;
}

void Link::Recover() { alive_ = true; }

}  // namespace distserve::serving
