// Deterministic sim-time event tracing (docs/observability.md).
//
// One run owns one EventLog, and the log owns one EventSink. Every
// recording site (peers, the network's fault hook, churn, operators, the
// adversary policy engine) runs on the run's single simulator, so recording
// never takes a lock. The sink's buffer is put into canonical order at
// finalize time.
//
// Canonical order & the determinism contract
// ------------------------------------------
// Every event carries a static (domain, origin) stream tag, and the
// canonical trace is the stable sort of all events by
// (time_ns, domain, origin). Within one stream the recording order is the
// execution order, so the sorted sequence is a pure function of the
// scenario config and identical at every worker count. The golden trace
// fixtures pin these bytes.
//
// Sampling is a pure hash of (time_ns, origin, kind) — no RNG stream is
// consumed, so enabling a trace never perturbs the simulation.
//
// Ring capacity: 0 means unbounded. A bounded sink keeps the first
// `ring_capacity` events of the run, drops the rest and counts the drops.
#ifndef LOCKSS_OBS_EVENT_LOG_HPP_
#define LOCKSS_OBS_EVENT_LOG_HPP_

#include <cstdint>
#include <vector>

#include "obs/event.hpp"

namespace lockss::obs {

struct TraceConfig {
  bool enabled = false;
  uint32_t kind_mask = kMaskAll;
  double sample_rate = 1.0;    // fraction of mask-passing events kept
  uint64_t ring_capacity = 0;  // events kept per run; 0 = unbounded

  friend bool operator==(const TraceConfig&, const TraceConfig&) = default;
};

class EventSink {
 public:
  EventSink() = default;

  void configure(const TraceConfig& config, uint32_t peer_domain_limit) {
    config_ = config;
    peer_domain_limit_ = peer_domain_limit;
  }

  // Hot path: mask check first (an installed-but-inert hook costs one load
  // and a branch), then deterministic sampling, then the capacity gate.
  void record(Event e) {
    if (((config_.kind_mask >> static_cast<uint32_t>(e.kind)) & 1u) == 0) {
      return;
    }
    if (config_.sample_rate < 1.0 && !sampled(e)) {
      return;
    }
    if (config_.ring_capacity != 0 && events_.size() >= config_.ring_capacity) {
      ++dropped_;
      return;
    }
    events_.push_back(e);
  }

  // Fault events are recorded by the Network, which knows only the sender
  // id; the static domain tag falls out of the id space (minions live above
  // the dense loyal-peer range).
  uint8_t fault_domain(uint32_t sender) const {
    return sender < peer_domain_limit_ ? 1 : 0;
  }

  uint64_t dropped() const { return dropped_; }
  const std::vector<Event>& events() const { return events_; }

 private:
  friend class EventLog;

  bool sampled(const Event& e) const;

  TraceConfig config_;
  uint32_t peer_domain_limit_ = 0;
  std::vector<Event> events_;
  uint64_t dropped_ = 0;
};

// The merged, canonically ordered trace of one run, carried in
// experiment::RunResult. `enabled` distinguishes "tracing off" from "traced
// but nothing matched".
struct EventTrace {
  bool enabled = false;
  uint64_t dropped = 0;
  std::vector<Event> events;

  friend bool operator==(const EventTrace&, const EventTrace&) = default;
};

class EventLog {
 public:
  // `peer_domain_limit` bounds the dense loyal NodeId range (peers,
  // newcomers, arrivals); ids at or above it are adversary actors.
  EventLog(const TraceConfig& config, uint32_t peer_domain_limit) {
    sink_.configure(config, peer_domain_limit);
  }

  EventSink* sink() { return &sink_; }

  // Returns the canonical trace. Call once, at the end of the run.
  EventTrace finalize();

 private:
  EventSink sink_;
};

// Stable-sorts `events` into canonical (time_ns, domain, origin) order.
// Exposed for exporters and tests.
void canonicalize(std::vector<Event>* events);

}  // namespace lockss::obs

#endif  // LOCKSS_OBS_EVENT_LOG_HPP_
