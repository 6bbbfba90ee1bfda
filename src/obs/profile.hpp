// Wall-clock self-profiling (docs/observability.md, domain 2).
//
// Unlike the sim-time event trace, everything here measures the *host*: how
// long setup/run/harvest actually took and how big the process grew. None of it is
// deterministic, so profile data never feeds the journal, the golden corpus,
// or any determinism comparison — it is reporting only, gated off by
// default.
#ifndef LOCKSS_OBS_PROFILE_HPP_
#define LOCKSS_OBS_PROFILE_HPP_

#include <array>
#include <chrono>
#include <cstdint>

namespace lockss::obs {

// Process peak / current resident set from /proc/self/status, in KiB; 0 when
// unavailable (non-Linux hosts).
uint64_t vm_hwm_kb();
uint64_t vm_rss_kb();

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     start_)
        .count();
  }
  double elapsed_seconds() const { return elapsed_ms() / 1000.0; }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Engine window statistics from the retired intra-run sharded engine.
// Nothing fills them any more, so every field stays zero. The only reader is
// perfbench/driver.cpp, which still reports them; drop this struct when the
// benchmark drops its --shards option.
struct EngineProfile {
  uint64_t windows = 0;
  uint64_t barriers = 0;
  double window_exec_seconds = 0.0;
  double barrier_stall_seconds = 0.0;
  static constexpr size_t kOccupancyBuckets = 17;
  std::array<uint64_t, kOccupancyBuckets> occupancy{};
};

// One run's wall-clock profile, carried in experiment::RunResult when
// ScenarioConfig::obs_profile is on.
struct RunProfile {
  bool enabled = false;
  double setup_ms = 0.0;    // deployment construction, wiring
  double run_ms = 0.0;      // event-loop execution
  double harvest_ms = 0.0;  // counter harvest + report build
  double total_ms = 0.0;
  uint64_t peak_rss_kb = 0;
  EngineProfile engine;  // always zero; see EngineProfile
};

}  // namespace lockss::obs

#endif  // LOCKSS_OBS_PROFILE_HPP_
