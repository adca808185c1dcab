#include "simcore/simulator.h"

#include <cmath>

namespace distserve::simcore {

int64_t Simulator::Run(SimTime until) {
  int64_t processed = 0;
  while (FireNext(until)) {
    ++processed;
    ++events_processed_;
  }
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
  int64_t processed = 0;
  while (FireNext(until)) {
    ++processed;
    ++events_processed_;
  }
  if (now_ < bound) {
    now_ = bound;
  }
  return processed;
}

}  // namespace distserve::simcore
