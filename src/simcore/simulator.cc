#include "simcore/simulator.h"

#include <cmath>

namespace distserve::simcore {

int64_t Simulator::Run(SimTime until) {
  DS_CHECK(!running_) << "Simulator::Run called from inside an event";
  running_ = true;
  int64_t processed = 0;
  while (FireNext(until)) {
    ++processed;
    ++events_processed_;
  }
  running_ = false;
  // With a finite horizon, every event at or before it has fired; the clock reads the horizon
  // even when later events remain pending.
  if (until != std::numeric_limits<SimTime>::infinity() && now_ < until) {
    now_ = until;
  }
  return processed;
}

int64_t Simulator::RunBefore(SimTime bound) {
  // "Strictly before bound" is "at or before the largest double below it".
  const SimTime until = std::nextafter(bound, -std::numeric_limits<SimTime>::infinity());
  DS_CHECK(!running_) << "Simulator::RunBefore called from inside an event";
  running_ = true;
  int64_t processed = 0;
  while (FireNext(until)) {
    ++processed;
    ++events_processed_;
  }
  running_ = false;
  if (now_ < bound) {
    now_ = bound;
  }
  return processed;
}

}  // namespace distserve::simcore
