#include "sim/simulator.hpp"

#include <cassert>

namespace lockss::sim {

EventHandle Simulator::schedule_in(SimTime delay, EventFn fn) {
  assert(!delay.is_negative());
  // Saturating add: a delay at (or near) SimTime::max() means "effectively
  // never" and must not wrap past the end of representable time.
  const SimTime at =
      delay < SimTime::max() - now_ ? now_ + delay : SimTime::max();
  return queue_.push(at, std::move(fn));
}

EventHandle Simulator::schedule_at(SimTime at, EventFn fn) {
  assert(at >= now_);
  return queue_.push(at, std::move(fn));
}

void Simulator::run_until(SimTime horizon) {
  stopped_ = false;
  while (!stopped_ && !queue_.empty() && queue_.next_time() < horizon) {
    auto popped = queue_.pop();
    assert(popped.at >= now_);
    now_ = popped.at;
    popped.fn();
    ++events_processed_;
  }
  if (!stopped_ && now_ < horizon) {
    now_ = horizon;
  }
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && !queue_.empty()) {
    auto popped = queue_.pop();
    assert(popped.at >= now_);
    now_ = popped.at;
    popped.fn();
    ++events_processed_;
  }
}

}  // namespace lockss::sim
