// Parallel scenario execution.
//
// Every figure and table in the paper is a grid of *independent* runs —
// durations × coverage levels × seeds (§6.3) — and each run owns its entire
// world (Simulator, Rng, Network, peers), so runs parallelize with no shared
// state. ParallelRunner fans a job list out across a fixed set of worker
// threads and writes each result into the slot matching its job index, so
// the output order is the job order regardless of completion order.
//
// Determinism contract: run_scenario(config) is a pure function of its
// config (all randomness flows from config.seed). Therefore the result
// vector is bit-identical for any worker count, including 1; the tier-1
// suite enforces this. There is no work stealing and no cross-run
// communication — scheduling only decides *when* a job runs, never *what*
// it computes.
#ifndef LOCKSS_EXPERIMENT_RUNNER_HPP_
#define LOCKSS_EXPERIMENT_RUNNER_HPP_

#include <functional>
#include <string>
#include <vector>

#include "experiment/scenario.hpp"

namespace lockss::experiment {

// Outcome of one fault-isolated job (ParallelRunner::run_protected): either
// a result, or the diagnostic of the last failed attempt.
struct JobOutcome {
  RunResult result;
  bool ok = false;
  uint32_t attempts = 0;  // attempts actually made (final one decided ok)
  std::string error;      // last attempt's diagnostic when !ok
};

class ParallelRunner {
 public:
  // `workers` = 0 picks default_workers().
  explicit ParallelRunner(unsigned workers = 0);

  unsigned workers() const { return workers_; }

  // Runs every config and returns results in job order. Jobs carrying a
  // poll_observer run serially: the observer is a shared callback with no
  // thread-safety contract, and results are identical either way.
  std::vector<RunResult> run(const std::vector<ScenarioConfig>& jobs) const;

  // Runs every config as one §6.3 layered *campaign* of `layers` runs
  // (run_layered). Layers within a campaign are sequentially dependent —
  // each injects the accumulated busy schedule of its predecessors — so a
  // campaign is the unit of work: campaigns fan out across the workers,
  // layers inside each stay ordered. Returns the per-layer results per
  // campaign, in job order; bit-identical for any worker count (each
  // campaign is a pure function of its config, like run()).
  std::vector<std::vector<RunResult>> run_layered_grid(
      const std::vector<ScenarioConfig>& jobs, uint32_t layers) const;

  // Fault-isolated execution with bounded, deterministically ordered retry
  // (the campaign engine's crash-resumable path rides on this).
  //
  // Runs `count` jobs through `run_job(index, attempt)` — a pure function
  // of (index, attempt) that returns the job's result or throws. A throw
  // marks one failed attempt and never escapes: attempt 1 of every job runs
  // in the normal parallel fan-out; jobs that failed are then retried in
  // rounds, each round re-running the surviving failures *in ascending
  // index order* (the deterministic backoff ordering — no wall-clock
  // backoff, which would break reproducibility), up to `max_attempts`
  // attempts per job. A job whose every attempt threw comes back with
  // ok == false and the last diagnostic.
  //
  // `on_complete(index, outcome)`, when given, fires exactly once per job —
  // as soon as that job reaches its final state, serialized under an
  // internal mutex (safe for journal appends) — in completion order, which
  // may differ across runs; callers needing determinism must key on the
  // index, not the order.
  std::vector<JobOutcome> run_protected(
      size_t count, const std::function<RunResult(size_t index, uint32_t attempt)>& run_job,
      uint32_t max_attempts,
      const std::function<void(size_t index, const JobOutcome&)>& on_complete = nullptr) const;

  // Worker count used when none is given: the LOCKSS_WORKERS environment
  // variable if set (>= 1), else std::thread::hardware_concurrency().
  static unsigned default_workers();
  // Process-wide override (tests, benches); 0 restores automatic selection.
  static void set_default_workers(unsigned n);

 private:
  unsigned workers_;
};

// Convenience: one-shot grid execution with the default (or given) workers.
std::vector<RunResult> run_grid(const std::vector<ScenarioConfig>& jobs, unsigned workers = 0);

}  // namespace lockss::experiment

#endif  // LOCKSS_EXPERIMENT_RUNNER_HPP_
