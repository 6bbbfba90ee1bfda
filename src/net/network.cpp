#include "net/network.hpp"

#include <algorithm>
#include <cassert>

#include "crypto/digest.hpp"
#include "net/fault_model.hpp"
#include "obs/event_log.hpp"

namespace lockss::net {

Network::Network(sim::Simulator& simulator, sim::Rng rng, NetworkConfig config)
    : simulator_(simulator),
      rng_(rng),
      config_(std::move(config)),
      latency_salt_(rng_.next_u64()),
      bandwidth_salt_(rng_.next_u64()) {}

void Network::register_node(NodeId id, MessageHandler* handler) {
  assert(id.valid());
  assert(handler != nullptr);
  handlers_[id] = handler;
}

void Network::unregister_node(NodeId id) { handlers_.erase(id); }

sim::SimTime Network::latency(NodeId a, NodeId b) const {
  if (a == b) {
    return sim::SimTime::zero();
  }
  // Deterministic, symmetric: derive from the unordered pair and a run salt.
  const uint64_t lo = std::min(a.value, b.value);
  const uint64_t hi = std::max(a.value, b.value);
  const uint64_t h = crypto::mix64(latency_salt_ ^ (lo << 32 | hi));
  const int64_t span = config_.max_latency.ns() - config_.min_latency.ns();
  return config_.min_latency + sim::SimTime::nanoseconds(static_cast<int64_t>(h % static_cast<uint64_t>(span + 1)));
}

double Network::bandwidth_bps(NodeId id) const {
  const auto& choices = config_.bandwidth_choices_bps;
  assert(!choices.empty());
  const uint64_t h = crypto::mix64(bandwidth_salt_ ^ id.value);
  return choices[h % choices.size()];
}

sim::SimTime Network::delivery_delay(NodeId from, NodeId to, uint64_t bytes) const {
  const double bottleneck = std::min(bandwidth_bps(from), bandwidth_bps(to));
  const double transfer_secs = static_cast<double>(bytes) * 8.0 / bottleneck;
  return latency(from, to) + sim::SimTime::seconds(transfer_secs);
}

bool Network::allowed(NodeId from, NodeId to) const {
  return std::all_of(filters_.begin(), filters_.end(),
                     [&](const LinkFilter* f) { return f->allow(from, to); });
}

void Network::send(MessagePtr message) {
  assert(message != nullptr);
  assert(message->from.valid() && message->to.valid());
  ++stats_.messages_sent;
  if (!allowed(message->from, message->to)) {
    ++stats_.messages_filtered;
    return;
  }
  auto handler_it = handlers_.find(message->to);
  if (handler_it == handlers_.end()) {
    ++stats_.messages_no_handler;
    return;
  }
  const sim::SimTime base_delay = delivery_delay(message->from, message->to, message->size_bytes());
  if (faults_ == nullptr) {
    schedule_delivery(std::move(message), base_delay);
    return;
  }
  // Faults are decided once, here — never at delivery — so the decision
  // stream is a pure function of the sender's send sequence
  // (docs/faults.md).
  const sim::SimTime now = simulator_.now();
  const FaultDecision verdict = faults_->decide(message->from, message->to, now);
  // The trace attributes every lost/duplicated/jittered message to its
  // sender (docs/observability.md); the domain tag comes from the sender id.
  auto record_fault = [&](obs::EventKind kind, uint64_t arg) {
    obs::Event e;
    e.time_ns = now.ns();
    e.arg = arg;
    e.origin = static_cast<uint32_t>(message->from.value);
    e.other = static_cast<uint32_t>(message->to.value);
    e.kind = kind;
    e.domain = events_->fault_domain(message->from.value);
    events_->record(e);
  };
  if (verdict.drop) {
    ++(verdict.burst ? stats_.messages_burst_dropped : stats_.messages_lost);
    if (events_ != nullptr) {
      record_fault(verdict.burst ? obs::EventKind::kFaultBurstDrop : obs::EventKind::kFaultLoss,
                   0);
    }
    return;
  }
  if (verdict.extra_delay > sim::SimTime::zero()) {
    ++stats_.messages_jittered;
    if (events_ != nullptr) {
      record_fault(obs::EventKind::kFaultJitter,
                   static_cast<uint64_t>(verdict.extra_delay.ns()));
    }
  }
  MessagePtr copy;
  if (verdict.duplicate) {
    // Messages that cannot clone (kOther diagnostics) are simply never
    // duplicated; the dup draw was still consumed, so lane streams do not
    // depend on message types.
    copy = message->clone();
    if (copy != nullptr) {
      ++stats_.messages_duplicated;
      if (events_ != nullptr) {
        record_fault(obs::EventKind::kFaultDuplicate, 0);
      }
    }
  }
  schedule_delivery(std::move(message), base_delay + verdict.extra_delay);
  if (copy != nullptr) {
    schedule_delivery(std::move(copy), base_delay + verdict.dup_extra_delay);
  }
}

void Network::schedule_delivery(MessagePtr message, sim::SimTime delay) {
  // EventFn supports move-only callables, so the unique_ptr rides in the
  // capture directly — no shared box, no allocation beyond the message.
  sim::EventFn deliver = [this, msg = std::move(message)]() mutable {
    assert(msg != nullptr);
    // Deliver through a fresh handler lookup: the recipient may unregister
    // (or be replaced) while the message is in flight.
    auto it = handlers_.find(msg->to);
    if (it == handlers_.end()) {
      ++stats_.messages_no_handler;
      return;
    }
    // Re-check filters at delivery: pipe stoppage that starts mid-flight
    // drowns packets already on the wire too.
    if (!allowed(msg->from, msg->to)) {
      ++stats_.messages_filtered;
      return;
    }
    ++stats_.messages_delivered;
    stats_.bytes_delivered += msg->size_bytes();
    it->second->handle_message(std::move(msg));
  };
  simulator_.schedule_in(delay, std::move(deliver));
}

void Network::add_filter(const LinkFilter* filter) { filters_.push_back(filter); }

void Network::remove_filter(const LinkFilter* filter) {
  filters_.erase(std::remove(filters_.begin(), filters_.end(), filter), filters_.end());
}

}  // namespace lockss::net
