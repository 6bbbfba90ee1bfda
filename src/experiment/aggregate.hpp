// Aggregation helpers: multi-seed replication (§6.3 runs 3 seeds per data
// point) and combination of per-layer results for 600-AU collections.
#ifndef LOCKSS_EXPERIMENT_AGGREGATE_HPP_
#define LOCKSS_EXPERIMENT_AGGREGATE_HPP_

#include <functional>
#include <vector>

#include "experiment/scenario.hpp"

namespace lockss::experiment {

// Mean/min/max of one scalar across runs.
struct Aggregate {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  size_t n = 0;
};

Aggregate aggregate(const std::vector<double>& values);

// Runs `config` under `seeds` different seeds (seed, seed+1, ...).
std::vector<RunResult> run_replicated(const ScenarioConfig& config, uint32_t seeds);

// Combines per-layer (or per-seed) results into one deployment-level result:
// access-failure probabilities average (equal replica counts per part);
// counts and efforts sum; success gaps pool weighted by gap count. Traces
// merge pointwise (metrics::merge_traces) when every part carries one.
RunResult combine_results(const std::vector<RunResult>& parts);

// Combines the `block`-th group of `per_block` consecutive results from a
// flattened grid (as produced by run_grid over a job list built in blocks of
// `per_block` seed-replicas), so the slicing arithmetic lives in one place
// and results are not copied.
RunResult combine_block(const std::vector<RunResult>& grid_runs, size_t block,
                        uint32_t per_block);

// Runs every config `seeds` times (seed, seed+1, ...) as one flat parallel
// grid and returns one seed-combined result per config, in config order.
// The seed replication and the block slicing live here, so a caller's
// build loop and consume loop only have to agree on config order.
std::vector<RunResult> run_replicated_grid(const std::vector<ScenarioConfig>& configs,
                                           uint32_t seeds);

// Extracts a metric across runs.
Aggregate aggregate_metric(const std::vector<RunResult>& runs,
                           const std::function<double(const RunResult&)>& metric);

// The four §6.1 metrics relative to a baseline run.
struct RelativeMetrics {
  double access_failure = 0.0;  // absolute probability (the paper plots this)
  double delay_ratio = 1.0;     // attack mean gap / baseline mean gap
  double friction = 1.0;        // attack effort-per-success / baseline's
  double cost_ratio = 0.0;      // adversary effort / loyal effort
};

RelativeMetrics relative_metrics(const RunResult& attack, const RunResult& baseline);

}  // namespace lockss::experiment

#endif  // LOCKSS_EXPERIMENT_AGGREGATE_HPP_
