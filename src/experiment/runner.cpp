#include "experiment/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

namespace lockss::experiment {

namespace {
std::atomic<unsigned> g_default_workers_override{0};

// Shared fan-out: each index is claimed exactly once off an atomic counter
// and each result slot written exactly once, so the only synchronization is
// the counter and the joins. `fn(i)` must be a pure function of i.
template <typename Fn>
void parallel_for_index(unsigned workers, size_t count, const Fn& fn) {
  if (workers <= 1 || count <= 1) {
    for (size_t i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      while (true) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) {
          return;
        }
        fn(i);
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
}

bool any_observer(const std::vector<ScenarioConfig>& jobs) {
  return std::any_of(jobs.begin(), jobs.end(),
                     [](const ScenarioConfig& job) { return job.poll_observer != nullptr; });
}

}  // namespace

ParallelRunner::ParallelRunner(unsigned workers)
    : workers_(workers > 0 ? workers : default_workers()) {}

unsigned ParallelRunner::default_workers() {
  const unsigned override = g_default_workers_override.load(std::memory_order_relaxed);
  if (override > 0) {
    return override;
  }
  if (const char* env = std::getenv("LOCKSS_WORKERS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n >= 1) {
      return static_cast<unsigned>(n);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void ParallelRunner::set_default_workers(unsigned n) {
  g_default_workers_override.store(n, std::memory_order_relaxed);
}

std::vector<RunResult> ParallelRunner::run(const std::vector<ScenarioConfig>& jobs) const {
  std::vector<RunResult> results(jobs.size());
  // A caller-supplied poll_observer is a shared std::function with no
  // thread-safety contract (established callers mutate captured probes);
  // degrade to serial execution rather than race it. Results are identical
  // either way — that is the runner's determinism contract.
  const unsigned workers =
      any_observer(jobs) ? 1u : static_cast<unsigned>(std::min<size_t>(workers_, jobs.size()));
  parallel_for_index(workers, jobs.size(),
                     [&](size_t i) { results[i] = run_scenario(jobs[i]); });
  return results;
}

std::vector<std::vector<RunResult>> ParallelRunner::run_layered_grid(
    const std::vector<ScenarioConfig>& jobs, uint32_t layers) const {
  std::vector<std::vector<RunResult>> results(jobs.size());
  const unsigned workers =
      any_observer(jobs) ? 1u : static_cast<unsigned>(std::min<size_t>(workers_, jobs.size()));
  parallel_for_index(workers, jobs.size(),
                     [&](size_t i) { results[i] = run_layered(jobs[i], layers); });
  return results;
}

std::vector<JobOutcome> ParallelRunner::run_protected(
    size_t count, const std::function<RunResult(size_t index, uint32_t attempt)>& run_job,
    uint32_t max_attempts,
    const std::function<void(size_t index, const JobOutcome&)>& on_complete) const {
  if (max_attempts == 0) {
    max_attempts = 1;
  }
  std::vector<JobOutcome> outcomes(count);
  std::vector<size_t> pending(count);
  for (size_t i = 0; i < count; ++i) {
    pending[i] = i;
  }
  std::mutex mutex;  // guards `failed` collection and serializes on_complete
  for (uint32_t attempt = 1; attempt <= max_attempts && !pending.empty(); ++attempt) {
    std::vector<size_t> failed;
    const unsigned workers =
        static_cast<unsigned>(std::min<size_t>(workers_, pending.size()));
    parallel_for_index(workers, pending.size(), [&](size_t j) {
      const size_t i = pending[j];
      JobOutcome& outcome = outcomes[i];
      outcome.attempts = attempt;
      try {
        outcome.result = run_job(i, attempt);
        outcome.ok = true;
        outcome.error.clear();
      } catch (const std::exception& e) {
        outcome.ok = false;
        outcome.error = e.what();
      } catch (...) {
        outcome.ok = false;
        outcome.error = "unknown exception";
      }
      const bool final = outcome.ok || attempt == max_attempts;
      std::lock_guard<std::mutex> lock(mutex);
      if (final) {
        if (on_complete) {
          on_complete(i, outcome);
        }
      } else {
        failed.push_back(i);
      }
    });
    // Retry rounds are barriers: the failed set is fixed, sorted, and
    // re-run in index order, so the attempt sequence every job sees is a
    // pure function of (jobs, max_attempts) — never of scheduling.
    std::sort(failed.begin(), failed.end());
    pending = std::move(failed);
  }
  return outcomes;
}

std::vector<RunResult> run_grid(const std::vector<ScenarioConfig>& jobs, unsigned workers) {
  return ParallelRunner(workers).run(jobs);
}

}  // namespace lockss::experiment
