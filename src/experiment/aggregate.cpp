#include "experiment/aggregate.hpp"

#include <algorithm>
#include <cassert>

#include "experiment/runner.hpp"

namespace lockss::experiment {

Aggregate aggregate(const std::vector<double>& values) {
  Aggregate out;
  if (values.empty()) {
    return out;
  }
  out.n = values.size();
  out.min = *std::min_element(values.begin(), values.end());
  out.max = *std::max_element(values.begin(), values.end());
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  out.mean = sum / static_cast<double>(values.size());
  return out;
}

std::vector<RunResult> run_replicated(const ScenarioConfig& config, uint32_t seeds) {
  // Replicated runs are independent; fan them out across the default worker
  // pool. Results come back in seed order whatever the completion order.
  std::vector<ScenarioConfig> jobs;
  jobs.reserve(seeds);
  for (uint32_t s = 0; s < seeds; ++s) {
    ScenarioConfig c = config;
    c.seed = config.seed + s;
    jobs.push_back(c);
  }
  return run_grid(jobs);
}

namespace {

RunResult combine_range(const RunResult* parts, size_t count) {
  assert(count > 0);
  RunResult out;
  out.report.duration = parts[0].report.duration;
  {
    // Pointwise trace merge (disabled unless every part carries one).
    std::vector<const metrics::RunTrace*> traces;
    traces.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      traces.push_back(&parts[i].trace);
    }
    out.trace = metrics::merge_traces(traces);
  }
  double afp_sum = 0.0;
  double gap_weighted = 0.0;
  double gap_weight = 0.0;
  double availability_sum = 0.0;
  double recovery_weighted = 0.0;
  for (size_t i = 0; i < count; ++i) {
    const RunResult& part = parts[i];
    const metrics::MetricsReport& r = part.report;
    afp_sum += r.access_failure_probability;
    out.report.successful_polls += r.successful_polls;
    out.report.inquorate_polls += r.inquorate_polls;
    out.report.alarms += r.alarms;
    out.report.repairs += r.repairs;
    out.report.damage_events += r.damage_events;
    out.report.loyal_effort_seconds += r.loyal_effort_seconds;
    out.report.adversary_effort_seconds += r.adversary_effort_seconds;
    // mean_success_gap is duration*replicas/successes per part, so the
    // success-weighted mean reconstructs duration*total_replicas/total_successes.
    const double w = static_cast<double>(r.successful_polls);
    gap_weighted += r.mean_success_gap_days * w;
    gap_weight += w;
    out.polls_started += part.polls_started;
    out.solicitations_sent += part.solicitations_sent;
    out.messages_delivered += part.messages_delivered;
    out.messages_filtered += part.messages_filtered;
    out.adversary_invitations += part.adversary_invitations;
    out.adversary_admissions += part.adversary_admissions;
    out.events_processed += part.events_processed;
    out.peak_queue_depth = std::max(out.peak_queue_depth, part.peak_queue_depth);
    out.churn_departures += part.churn_departures;
    out.churn_recoveries += part.churn_recoveries;
    out.churn_arrivals += part.churn_arrivals;
    availability_sum += part.availability_mean;
    recovery_weighted += part.mean_recovery_days * static_cast<double>(part.churn_recoveries);
    for (size_t a = 0; a < out.operator_interventions.size(); ++a) {
      out.operator_interventions[a] += part.operator_interventions[a];
    }
    out.policy_triggers += part.policy_triggers;
    for (size_t a = 0; a < out.policy_actions.size(); ++a) {
      out.policy_actions[a] += part.policy_actions[a];
    }
    out.faults_lost += part.faults_lost;
    out.faults_burst_dropped += part.faults_burst_dropped;
    out.faults_duplicated += part.faults_duplicated;
    out.faults_jittered += part.faults_jittered;
    out.ack_timeouts += part.ack_timeouts;
    out.vote_timeouts += part.vote_timeouts;
    out.solicitation_retries += part.solicitation_retries;
    for (size_t a = 0; a < out.polls_aborted.size(); ++a) {
      out.polls_aborted[a] += part.polls_aborted[a];
    }
    out.sessions_live_at_end += part.sessions_live_at_end;
    out.stale_sessions_at_end += part.stale_sessions_at_end;
    out.reservations_beyond_horizon += part.reservations_beyond_horizon;
  }
  // Parts share one duration and population, so availability averages;
  // recovery times pool weighted by how many recoveries each part saw.
  out.availability_mean = availability_sum / static_cast<double>(count);
  out.mean_recovery_days =
      out.churn_recoveries > 0
          ? recovery_weighted / static_cast<double>(out.churn_recoveries)
          : 0.0;
  out.report.access_failure_probability = afp_sum / static_cast<double>(count);
  out.report.mean_success_gap_days = gap_weight > 0.0 ? gap_weighted / gap_weight : 0.0;
  out.report.effort_per_successful_poll =
      out.report.successful_polls > 0
          ? out.report.loyal_effort_seconds / static_cast<double>(out.report.successful_polls)
          : 0.0;
  out.report.cost_ratio = out.report.loyal_effort_seconds > 0.0
                              ? out.report.adversary_effort_seconds /
                                    out.report.loyal_effort_seconds
                              : 0.0;
  return out;
}

}  // namespace

RunResult combine_results(const std::vector<RunResult>& parts) {
  return combine_range(parts.data(), parts.size());
}

RunResult combine_block(const std::vector<RunResult>& grid_runs, size_t block,
                        uint32_t per_block) {
  assert((block + 1) * per_block <= grid_runs.size());
  return combine_range(grid_runs.data() + block * per_block, per_block);
}

std::vector<RunResult> run_replicated_grid(const std::vector<ScenarioConfig>& configs,
                                           uint32_t seeds) {
  assert(seeds > 0);
  std::vector<ScenarioConfig> jobs;
  jobs.reserve(configs.size() * seeds);
  for (const ScenarioConfig& config : configs) {
    for (uint32_t s = 0; s < seeds; ++s) {
      ScenarioConfig c = config;
      c.seed = config.seed + s;
      jobs.push_back(c);
    }
  }
  const std::vector<RunResult> runs = run_grid(jobs);
  std::vector<RunResult> combined;
  combined.reserve(configs.size());
  for (size_t block = 0; block < configs.size(); ++block) {
    combined.push_back(combine_block(runs, block, seeds));
  }
  return combined;
}

Aggregate aggregate_metric(const std::vector<RunResult>& runs,
                           const std::function<double(const RunResult&)>& metric) {
  std::vector<double> values;
  values.reserve(runs.size());
  for (const RunResult& run : runs) {
    values.push_back(metric(run));
  }
  return aggregate(values);
}

RelativeMetrics relative_metrics(const RunResult& attack, const RunResult& baseline) {
  RelativeMetrics out;
  out.access_failure = attack.report.access_failure_probability;
  if (baseline.report.mean_success_gap_days > 0.0 && attack.report.mean_success_gap_days > 0.0) {
    out.delay_ratio =
        attack.report.mean_success_gap_days / baseline.report.mean_success_gap_days;
  } else if (attack.report.successful_polls == 0 && baseline.report.successful_polls > 0) {
    // Nothing ever succeeded under attack: the delay is unbounded; report
    // the ratio as if exactly one poll had succeeded (a lower bound).
    out.delay_ratio = static_cast<double>(baseline.report.successful_polls);
  }
  if (baseline.report.effort_per_successful_poll > 0.0 &&
      attack.report.effort_per_successful_poll > 0.0) {
    out.friction =
        attack.report.effort_per_successful_poll / baseline.report.effort_per_successful_poll;
  }
  out.cost_ratio = attack.report.cost_ratio;
  return out;
}

}  // namespace lockss::experiment
