// The discrete-event simulator driving every scenario in this repository.
//
// This replaces the paper's Narses simulator (§6.2): a single-threaded,
// deterministic event loop with a monotonically advancing clock. Expensive
// peer-side computations (hashing an archival unit, generating or verifying a
// memory-bound-function proof) are modelled by scheduling their completion
// rather than performing real work, exactly as Narses "provides facilities
// for modeling computationally expensive operations".
#ifndef LOCKSS_SIM_SIMULATOR_HPP_
#define LOCKSS_SIM_SIMULATOR_HPP_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace lockss::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time.
  SimTime now() const { return now_; }

  // Schedules `fn` to run after `delay` (>= 0) from now.
  EventHandle schedule_in(SimTime delay, EventFn fn);

  // Schedules `fn` at absolute time `at` (>= now()).
  EventHandle schedule_at(SimTime at, EventFn fn);

  // Runs until the queue drains or the horizon is reached, whichever is
  // first. Events scheduled exactly at the horizon do not run; the clock is
  // left at the horizon (or at the last event if the queue drained early).
  void run_until(SimTime horizon);

  // Runs until the queue drains. Intended for tests and small scenarios.
  void run();

  // Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  uint64_t events_processed() const { return events_processed_; }
  // Number of pending (uncancelled, unfired) events. Const: the queue keeps
  // a live count, so no lazy cleanup happens on this query path.
  size_t events_pending() const { return queue_.size(); }
  // High-water mark of the event queue, for the perf reports.
  size_t peak_queue_depth() const { return queue_.peak_depth(); }

 private:
  EventQueue queue_;
  SimTime now_;
  bool stopped_ = false;
  uint64_t events_processed_ = 0;
};

}  // namespace lockss::sim

#endif  // LOCKSS_SIM_SIMULATOR_HPP_
