// Campaign execution: compiled cells through the parallel runner, results
// onto disk — crash-resumably.
//
// run_campaign() fans the baseline and every compiled cell — each unit
// running its seeds (and §6.3 layers) internally — through
// experiment::ParallelRunner::run_protected, then writes:
//
//   <out_dir>/<name>.journal  append-only, checksum-framed, fsync'd record
//                             per completed/failed unit (campaign/journal.hpp);
//                             --resume replays it and skips computed units
//   <out_dir>/<manifest>      deterministic JSON: spec echo, per-cell and
//                             baseline metrics (%.17g doubles — golden-
//                             pinnable, see tests/campaign_golden_test.cpp);
//                             failed cells carry status/attempts/error
//   <out_dir>/<cells>         long-form CSV, one row per cell
//   <out_dir>/<figure.csv>    only when the spec has a figure output:
//                             the Figure 3–8 layout (pinned by
//                             tests/campaign_fig_identity_test.cpp), plus
//                             the companion .trace.csv and .gp
//
// Every artifact is written via temp file + atomic rename, so a kill at
// any instant leaves either the previous artifact or the new one — never a
// torn file. Everything written is a pure function of the spec (wall-clock
// and worker count never reach the files), and a resumed run reconstructs
// units from the journal bit-exactly, so kill + --resume at any journal
// offset and any worker count reproduces the uninterrupted artifacts
// byte for byte (tests/campaign_resilience_test.cpp proves it under the
// fault-injection plans of campaign/fault.hpp). The one deliberate
// exception: a spec with `observability.profile: true` opts into wall_ms /
// peak_rss_kb / worker-count keys in its manifest — those are measurements
// of the machine, not of the experiment, and such manifests are never
// golden-pinned or resume-compared (docs/observability.md).
//
// Failure isolation: a unit that throws is retried (deterministic rounds,
// see run_protected), then recorded as failed — in the journal, the
// manifest, and CampaignOutcome — while the rest of the grid completes.
#ifndef LOCKSS_CAMPAIGN_ENGINE_HPP_
#define LOCKSS_CAMPAIGN_ENGINE_HPP_

#include <functional>
#include <string>
#include <vector>

#include "campaign/fault.hpp"
#include "campaign/spec.hpp"
#include "experiment/scenario.hpp"

namespace lockss::campaign {

struct RunOptions {
  std::string out_dir = ".";  // created if missing
  // Worker count comes from ParallelRunner::default_workers(); override it
  // process-wide with ParallelRunner::set_default_workers (the
  // lockss_campaign --workers flag does exactly that).
  bool quiet = false;         // suppress the stdout report (incl. figure table)
  // false = run only, leave no files behind (in-memory consumers like the
  // campaign-driven examples). Also disables journaling.
  bool write_outputs = true;
  // Replay <out_dir>/<name>.journal: skip units it already holds (a torn
  // trailing record is truncated away; units recorded as failed are
  // re-attempted). A missing or headerless journal starts fresh; a journal
  // whose campaign hash differs from this spec is an error.
  bool resume = false;
  // Extra attempts per unit after the first (per-cell retry bound).
  uint32_t retries = 0;
  // Deterministic fault injection (campaign/fault.hpp); default disabled.
  FaultPlan faults;
  // Live progress (lockss_campaign --progress): fired once before execution
  // (done = units replayed from the journal) and once per unit as it
  // reaches its final state, serialized under the runner's completion
  // mutex. Completion order is wall-clock-dependent — reporting only, never
  // an input to anything written to disk.
  struct Progress {
    size_t units_done = 0;    // includes journal-resumed units
    size_t units_total = 0;
    size_t units_failed = 0;  // exhausted their retry budget so far
    uint32_t extra_attempts = 0;  // retry attempts beyond each unit's first
  };
  std::function<void(const Progress&)> progress;
};

// Final state of one unit of work (the baseline or one cell).
struct UnitStatus {
  bool ok = true;
  bool from_journal = false;  // resumed, not recomputed
  uint32_t attempts = 0;      // 0 when resumed from the journal
  std::string error;          // last diagnostic when !ok
};

struct CampaignOutcome {
  // Seed-combined (and, when layered, layer-combined) results.
  experiment::RunResult baseline;  // meaningful only when spec.baseline
  std::vector<experiment::RunResult> cells;  // compiled-cell order
  UnitStatus baseline_status;
  std::vector<UnitStatus> cell_status;       // compiled-cell order
  size_t units_resumed = 0;  // skipped via the journal
  size_t units_failed = 0;   // exhausted their retry budget
  std::vector<std::string> files_written;
  std::string journal_path;  // empty when journaling was off
  // Wall-clock accounting (reporting only; reaches the manifest only when
  // the spec sets observability.profile).
  double total_wall_ms = 0.0;
  unsigned workers_used = 0;

  bool all_ok() const { return units_failed == 0; }
};

// Executes a compiled campaign and writes its outputs. Returns false with a
// diagnostic on I/O failure or a spec-mismatched resume journal. Cell
// failures are NOT an I/O failure: the grid completes, the manifest records
// them, run_campaign returns true, and the caller checks outcome->all_ok()
// (lockss_campaign exits non-zero on it).
bool run_campaign(const CompiledCampaign& campaign, const RunOptions& options,
                  CampaignOutcome* outcome, std::string* error);

// Renders the deterministic run manifest (exposed for the golden test).
std::string render_manifest(const CompiledCampaign& campaign, const CampaignOutcome& outcome);

// Renders the tournament payoff-matrix CSV (exposed for the determinism
// tests; docs/adversaries.md). Three blocks — afp, adversary_effort_seconds,
// and score = afp / effort (afp when the strategy spent nothing) — each a
// matrix of adversary strategies (rows) × operator strategies (columns).
// Lower scores mean the defense won: less damage per attacker-second spent.
// Empty for non-tournament campaigns.
std::string render_payoff_csv(const CompiledCampaign& campaign, const CampaignOutcome& outcome);

}  // namespace lockss::campaign

#endif  // LOCKSS_CAMPAIGN_ENGINE_HPP_
