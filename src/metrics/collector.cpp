#include "metrics/collector.hpp"

#include <cassert>

namespace lockss::metrics {

void MetricsCollector::register_peer(net::NodeId id) {
  const uint32_t rows_before = slots_.peer_count();
  slots_.register_peer(id);
  if (slots_.peer_count() != rows_before) {
    // Peer-major layout: a new peer is a fresh row at the end.
    last_success_.resize(slots_.slot_count(), kNever);
  }
}

void MetricsCollector::register_au(storage::AuId au) {
  const uint32_t stride_before = slots_.au_count();
  slots_.register_au(au);
  if (slots_.au_count() == stride_before) {
    return;
  }
  // The row stride grew: re-lay the grid out. Registration is setup-time
  // (or a lazy one-off), so the O(peers x aus) copy is off the poll path.
  std::vector<sim::SimTime> grid(slots_.slot_count(), kNever);
  const uint32_t stride_after = slots_.au_count();
  for (uint32_t p = 0; p < slots_.peer_count(); ++p) {
    for (uint32_t a = 0; a < stride_before; ++a) {
      grid[static_cast<size_t>(p) * stride_after + a] =
          last_success_[static_cast<size_t>(p) * stride_before + a];
    }
  }
  last_success_ = std::move(grid);
}

size_t MetricsCollector::success_slot(net::NodeId poller, storage::AuId au) {
  uint32_t p = slots_.peer_index(poller);
  if (p == SlotRegistry::kUnassigned) {
    register_peer(poller);
    p = slots_.peer_index(poller);
  }
  uint32_t a = slots_.au_index(au);
  if (a == SlotRegistry::kUnassigned) {
    register_au(au);
    a = slots_.au_index(au);
  }
  return slots_.slot(p, a);
}

void MetricsCollector::accumulate(sim::SimTime now) {
  assert(now >= last_change_);
  damaged_replica_seconds_ +=
      static_cast<double>(damaged_now_) * (now - last_change_).to_seconds();
  last_change_ = now;
}

double MetricsCollector::afp_to_date(sim::SimTime now) const {
  assert(now >= last_change_);
  if (total_replicas_ == 0 || now <= sim::SimTime::zero()) {
    return 0.0;
  }
  const double integral =
      damaged_replica_seconds_ +
      static_cast<double>(damaged_now_) * (now - last_change_).to_seconds();
  return integral / (static_cast<double>(total_replicas_) * now.to_seconds());
}

void MetricsCollector::on_damage_state_change(sim::SimTime now, int64_t delta) {
  accumulate(now);
  assert(delta >= 0 || damaged_now_ >= static_cast<uint64_t>(-delta));
  damaged_now_ = static_cast<uint64_t>(static_cast<int64_t>(damaged_now_) + delta);
}

void MetricsCollector::on_damage_event() {
  ++damage_events_;
}

void MetricsCollector::record_poll(net::NodeId poller, const protocol::PollOutcome& outcome) {
  repairs_ += outcome.repairs;
  switch (outcome.kind) {
    case protocol::PollOutcomeKind::kSuccess: {
      ++successful_polls_;
      sim::SimTime& last = last_success_[success_slot(poller, outcome.au)];
      if (last != kNever) {
        gap_seconds_sum_ += (outcome.concluded - last).to_seconds();
        ++gap_count_;
      }
      last = outcome.concluded;
      break;
    }
    case protocol::PollOutcomeKind::kInquorate:
      ++inquorate_polls_;
      break;
    case protocol::PollOutcomeKind::kAlarm:
      ++alarms_;
      break;
  }
}

void MetricsCollector::set_effort_totals(double loyal_seconds, double adversary_seconds) {
  loyal_effort_seconds_ = loyal_seconds;
  adversary_effort_seconds_ = adversary_seconds;
}

MetricsReport MetricsCollector::finalize(sim::SimTime end) {
  assert(!finalized_ && "MetricsCollector::finalize() called twice");
  finalized_ = true;
  accumulate(end);
  MetricsReport report;
  report.duration = end;
  if (total_replicas_ > 0 && end > sim::SimTime::zero()) {
    report.access_failure_probability =
        damaged_replica_seconds_ / (static_cast<double>(total_replicas_) * end.to_seconds());
  }
  report.successful_polls = successful_polls_;
  report.inquorate_polls = inquorate_polls_;
  report.alarms = alarms_;
  report.repairs = repairs_;
  report.damage_events = damage_events_;
  report.mean_observed_gap_days =
      gap_count_ > 0 ? gap_seconds_sum_ / static_cast<double>(gap_count_) / 86400.0 : 0.0;
  if (successful_polls_ > 0 && total_replicas_ > 0) {
    report.mean_success_gap_days = end.to_days() * static_cast<double>(total_replicas_) /
                                   static_cast<double>(successful_polls_);
  }
  report.loyal_effort_seconds = loyal_effort_seconds_;
  report.adversary_effort_seconds = adversary_effort_seconds_;
  report.effort_per_successful_poll =
      successful_polls_ > 0 ? loyal_effort_seconds_ / static_cast<double>(successful_polls_) : 0.0;
  report.cost_ratio =
      loyal_effort_seconds_ > 0.0 ? adversary_effort_seconds_ / loyal_effort_seconds_ : 0.0;
  return report;
}

}  // namespace lockss::metrics
