// Evaluation metrics (§6.1).
//
//   * access failure probability — "the fraction of all replicas in the
//     system that are damaged, averaged over all time points": a
//     time-weighted integral of the damaged-replica fraction;
//   * delay ratio — "mean time between successful polls at loyal peers with
//     the system under attack divided by the same measurement without the
//     attack": this collector reports the mean gap; the experiment harness
//     divides attack by baseline;
//   * coefficient of friction — "average effort expended by loyal peers per
//     successful poll during an attack divided by their average per-poll
//     effort absent an attack": the collector reports effort-per-success
//     (effort totals are pushed in at finalize time from the peers' effort
//     meters); the harness forms the ratio;
//   * cost ratio — attacker total effort over defender total effort.
//
// Per-(peer, AU) state lives in a dense array keyed by the SlotRegistry:
// peers and AUs register once at scenario setup, after which record_poll()
// and on_damage_state_change() are O(1) array operations with zero
// allocations. Unregistered ids are registered lazily on first use (the
// allocation then happens once, outside the steady state), so hand-built
// collectors in tests and examples keep working without setup calls.
//
// Every recording call comes from the run's one simulator, in event order.
// The damage integral and the observed-gap sum are order-dependent
// floating-point accumulations, so that single ordered feed is what makes
// the report bytes reproducible.
#ifndef LOCKSS_METRICS_COLLECTOR_HPP_
#define LOCKSS_METRICS_COLLECTOR_HPP_

#include <cstdint>
#include <vector>

#include "metrics/slot_registry.hpp"
#include "net/node_id.hpp"
#include "protocol/host.hpp"
#include "sim/time.hpp"
#include "storage/au.hpp"

namespace lockss::metrics {

struct MetricsReport {
  double access_failure_probability = 0.0;
  // Mean time between successful polls per (peer, AU), censoring-robust:
  // total observation time across all replicas divided by total successes.
  // Pairs that never succeed lengthen this mean instead of vanishing from
  // it (survivor bias would otherwise hide severe attacks).
  double mean_success_gap_days = 0.0;
  // Mean of the directly observed gaps between consecutive successes of the
  // same (peer, AU) — the naive estimator, kept for diagnostics.
  double mean_observed_gap_days = 0.0;
  uint64_t successful_polls = 0;
  uint64_t inquorate_polls = 0;
  uint64_t alarms = 0;
  uint64_t repairs = 0;
  uint64_t damage_events = 0;
  double loyal_effort_seconds = 0.0;
  double adversary_effort_seconds = 0.0;
  // Loyal effort per successful poll (friction numerator before dividing by
  // the baseline's value).
  double effort_per_successful_poll = 0.0;
  // Attacker / defender effort.
  double cost_ratio = 0.0;
  sim::SimTime duration;
};

class MetricsCollector {
 public:
  // --- Setup-time registration ---------------------------------------------
  // Announces a participant; idempotent. Registering everything up front
  // (scenario.cpp does) keeps the poll path allocation-free.
  void register_peer(net::NodeId id);
  void register_au(storage::AuId au);
  const SlotRegistry& slots() const { return slots_; }

  // Total number of (peer, AU) replicas in the deployment; the denominator
  // of the damaged fraction. Kept explicit rather than derived from the
  // registry because partial-coverage deployments hold fewer replicas than
  // peers x AUs.
  void set_total_replicas(uint64_t n) { total_replicas_ = n; }

  // --- Run-time recording ----------------------------------------------------
  // A replica flipped between damaged and clean. `delta` is +1 (damaged) or
  // -1 (repaired).
  void on_damage_state_change(sim::SimTime now, int64_t delta);

  // A bit-rot injection occurred (rate bookkeeping).
  void on_damage_event();

  // Poll lifecycle.
  void record_poll(net::NodeId poller, const protocol::PollOutcome& outcome);

  // Effort totals, pushed by the scenario runner at the end of a run.
  void set_effort_totals(double loyal_seconds, double adversary_seconds);

  // Closes the damage integral and computes the report. Must be called
  // exactly once: the integrals are closed and the collector retired, and a
  // second finalize (e.g. a scenario also closing its trace recorder at
  // end-of-run) would silently double-count observation time — so it
  // asserts instead.
  MetricsReport finalize(sim::SimTime end);

  // --- Instantaneous views (trace sampling, examples, debugging) -------------
  uint64_t damaged_replicas_now() const { return damaged_now_; }
  uint64_t total_replicas() const { return total_replicas_; }
  double damaged_fraction_now() const {
    return total_replicas_ > 0
               ? static_cast<double>(damaged_now_) / static_cast<double>(total_replicas_)
               : 0.0;
  }
  // Time-weighted mean damaged fraction over [0, now]. A pure peek: the
  // stored integral is NOT advanced, so sampling never perturbs the
  // summation order (and hence the bit-exact value) of the final report —
  // traced and untraced runs of one config stay bit-identical.
  double afp_to_date(sim::SimTime now) const;
  uint64_t successful_polls() const { return successful_polls_; }
  uint64_t inquorate_polls() const { return inquorate_polls_; }
  uint64_t alarms() const { return alarms_; }
  uint64_t repairs() const { return repairs_; }
  uint64_t damage_events() const { return damage_events_; }

 private:
  void accumulate(sim::SimTime now);
  // Dense index of the (peer, au) pair, registering lazily as needed.
  size_t success_slot(net::NodeId poller, storage::AuId au);

  SlotRegistry slots_;
  uint64_t total_replicas_ = 0;
  uint64_t damaged_now_ = 0;
  sim::SimTime last_change_;
  double damaged_replica_seconds_ = 0.0;

  uint64_t successful_polls_ = 0;
  uint64_t inquorate_polls_ = 0;
  uint64_t alarms_ = 0;
  uint64_t repairs_ = 0;
  uint64_t damage_events_ = 0;

  // Per-(peer, AU) last-success times, peer-major (SlotRegistry::slot).
  // kNever marks a pair with no success yet.
  static constexpr sim::SimTime kNever = sim::SimTime::nanoseconds(INT64_MIN);
  std::vector<sim::SimTime> last_success_;
  double gap_seconds_sum_ = 0.0;
  uint64_t gap_count_ = 0;

  double loyal_effort_seconds_ = 0.0;
  double adversary_effort_seconds_ = 0.0;
  bool finalized_ = false;

};

}  // namespace lockss::metrics

#endif  // LOCKSS_METRICS_COLLECTOR_HPP_
