#include "obs/event_log.hpp"

#include <algorithm>
#include <cstring>

namespace lockss::obs {
namespace {

// splitmix64 finalizer — the same mix sim::Rng seeds from, duplicated here so
// obs stays at the bottom of the layering (and consumes no RNG stream).
constexpr uint64_t mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

const char* const kEventKindNames[kEventKindCount] = {
    "poll_opened",
    "invitation_sent",
    "solicitation_retry",
    "ack_received",
    "ack_refused",
    "ack_timeout",
    "vote_timeout",
    "vote_received",
    "outer_circle_started",
    "repair_requested",
    "repair_received",
    "poll_concluded",
    "invitation_considered",
    "vote_sent",
    "repair_served",
    "receipt_checked",
    "churn_arrival",
    "churn_leave",
    "churn_crash",
    "churn_recover",
    "operator_action",
    "fault_loss",
    "fault_burst_drop",
    "fault_duplicate",
    "fault_jitter",
    "adversary_policy_trigger",
    "adversary_policy_action",
};

}  // namespace

const char* event_kind_name(EventKind kind) {
  const size_t index = static_cast<size_t>(kind);
  return index < kEventKindCount ? kEventKindNames[index] : "?";
}

bool parse_event_kind(const char* name, EventKind* out) {
  for (size_t i = 0; i < kEventKindCount; ++i) {
    if (std::strcmp(name, kEventKindNames[i]) == 0) {
      *out = static_cast<EventKind>(i);
      return true;
    }
  }
  return false;
}

bool EventSink::sampled(const Event& e) const {
  if (config_.sample_rate <= 0.0) {
    return false;
  }
  // Pure function of the event's stream coordinates, so the identical
  // event is kept or dropped in every run of the config.
  const uint64_t h = mix64(static_cast<uint64_t>(e.time_ns) ^
                           (static_cast<uint64_t>(e.origin) << 32) ^
                           (static_cast<uint64_t>(e.kind) * 0x9E3779B97F4A7C15ull));
  const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  return unit < config_.sample_rate;
}

EventTrace EventLog::finalize() {
  EventTrace trace;
  trace.enabled = true;
  trace.dropped = sink_.dropped_;
  trace.events = std::move(sink_.events_);
  sink_.events_.clear();
  canonicalize(&trace.events);
  return trace;
}

void canonicalize(std::vector<Event>* events) {
  std::stable_sort(events->begin(), events->end(), [](const Event& a, const Event& b) {
    if (a.time_ns != b.time_ns) {
      return a.time_ns < b.time_ns;
    }
    if (a.domain != b.domain) {
      return a.domain < b.domain;
    }
    return a.origin < b.origin;
  });
}

}  // namespace lockss::obs
