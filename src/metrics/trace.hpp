// Fixed-interval time series of the §6.1 metrics over one run.
//
// The MetricsCollector reduces a whole run to scalars; the LOCKSS voting
// paper (Maniatis et al., SOSP 2003) evaluates the same quantities as time
// series, which is what operators actually watch during an attack: how fast
// the damaged fraction climbs, when polls stop succeeding, how the effort
// integrals diverge. A TraceRecorder samples those quantities on a fixed
// grid (the scenario schedules the sampling events), producing a RunTrace
// that rides along in experiment::RunResult, merges across seed replicas,
// and is emitted as CSV by tools/bench_report and campaign figure outputs.
//
// Sampling is part of the simulation's deterministic event stream, so a
// trace is bit-identical across ParallelRunner worker counts like every
// other RunResult field.
#ifndef LOCKSS_METRICS_TRACE_HPP_
#define LOCKSS_METRICS_TRACE_HPP_

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace lockss::metrics {

struct TracePoint {
  sim::SimTime t;
  // Instantaneous damaged-replica fraction at t.
  double damaged_fraction = 0.0;
  // Time-weighted mean of the damaged fraction over [0, t] — the access
  // failure probability the run would report if it ended at t.
  double afp_to_date = 0.0;
  // Cumulative counters at t.
  uint64_t successful_polls = 0;
  uint64_t inquorate_polls = 0;
  uint64_t alarms = 0;
  uint64_t repairs = 0;
  // Cumulative effort integrals at t (loyal peers / the adversary).
  double loyal_effort_seconds = 0.0;
  double adversary_effort_seconds = 0.0;
  // Deployment-dynamics series (dynamics::ChurnModel). Static deployments
  // keep the defaults, so fixtures and merges for churn-free runs are
  // unchanged. `online_fraction` is the instantaneous availability of the
  // established population; `departures`/`recoveries` are cumulative;
  // `mean_recovery_days` is the mean completed downtime to date.
  double online_fraction = 1.0;
  uint64_t departures = 0;
  uint64_t recoveries = 0;
  double mean_recovery_days = 0.0;
  // Robustness series (net::FaultModel + poll timeout/retry accounting;
  // docs/faults.md). All cumulative; fault-free runs keep the zero
  // defaults, so existing fixtures and merges are unchanged.
  uint64_t faults_injected = 0;
  uint64_t ack_timeouts = 0;
  uint64_t vote_timeouts = 0;
  uint64_t solicitation_retries = 0;

  // Exact equality over every field — the determinism gates (bench_report,
  // the parallel-runner tests) compare through this so a future field
  // cannot silently escape coverage.
  friend bool operator==(const TracePoint&, const TracePoint&) = default;
};

struct RunTrace {
  // Zero interval means tracing was disabled for the run.
  sim::SimTime interval;
  std::vector<TracePoint> points;

  bool enabled() const { return !interval.is_zero(); }
  friend bool operator==(const RunTrace&, const RunTrace&) = default;
};

class TraceRecorder {
 public:
  // A zero interval disables the recorder (record() must not be called).
  explicit TraceRecorder(sim::SimTime interval);

  bool enabled() const { return trace_.enabled(); }
  sim::SimTime interval() const { return trace_.interval; }

  // Appends one sample; times must be strictly increasing.
  void record(const TracePoint& point);

  // Closes the series and surrenders it. The final point (at end-of-run)
  // must already be recorded; like MetricsCollector::finalize(), closing
  // twice is a bug and asserts.
  RunTrace close(sim::SimTime end);

  size_t sample_count() const { return trace_.points.size(); }

 private:
  RunTrace trace_;
  bool closed_ = false;
};

// Pointwise combination across parts (seed replicas or layers), mirroring
// combine_results(): fractions average, counts and efforts sum. Parts must
// share the sampling interval; the series is truncated to the shortest
// part. Returns a disabled trace if any part is disabled (a mixed grid has
// no meaningful combined series).
RunTrace merge_traces(const std::vector<const RunTrace*>& parts);

}  // namespace lockss::metrics

#endif  // LOCKSS_METRICS_TRACE_HPP_
