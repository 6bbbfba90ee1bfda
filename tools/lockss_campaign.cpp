// Campaign driver: compile and run declarative scenario specs.
//
//   lockss_campaign <campaign.json> [options]
//
//   --validate        parse + compile only; print the plan and exit
//                     (CI runs this over every shipped campaigns/*.json)
//   --dry-run         alias for --validate
//   --out-dir DIR     where outputs land (default: current directory)
//   --workers N       parallel runner workers (default: auto; must be >= 1)
//   --quiet           suppress the per-cell stdout report
//   --resume          replay <out-dir>/<name>.journal and skip computed
//                     units; a torn trailing record is recovered, failed
//                     units are re-attempted
//   --retries N       extra attempts per unit after the first (default 0)
//   --fault-inject S  deterministic fault plan (see campaign/fault.hpp);
//                     also honoured from $LOCKSS_FAULT_INJECT
//   --progress        live stderr heartbeat: units done/total, rate, ETA,
//                     retry count. stderr only — stdout and every artifact
//                     stay byte-identical with or without it. Implied off
//                     by --quiet
//
// Unknown flags and stray positionals are an error (exit 2): a misspelled
// option must never silently run the wrong experiment. Exit codes: 0 ok,
// 1 spec/IO error, 2 usage error, 3 grid completed but some unit(s)
// exhausted their retry budget (the manifest records them as failed).
//
// A campaign file describes a whole experiment — deployment, protocol and
// damage overrides, a composable multi-adversary pipeline, sweep axes, seed
// replication, §6.3 layering, traces, and outputs — so new workloads are a
// data file, not a recompile. Shipped campaigns live under campaigns/;
// schema in docs/campaigns.md.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>

#include "campaign/engine.hpp"
#include "campaign/fault.hpp"
#include "campaign/spec.hpp"
#include "experiment/cli.hpp"
#include "experiment/runner.hpp"
#include "obs/profile.hpp"

using namespace lockss;

namespace {

void print_plan(const campaign::CompiledCampaign& compiled) {
  const campaign::Spec& spec = compiled.spec;
  std::printf("campaign: %s\n", spec.name.c_str());
  if (!spec.description.empty()) {
    std::printf("  %s\n", spec.description.c_str());
  }
  std::printf("  deployment: %u peers, %u AUs (coverage %.2f), %u newcomers, %.2f years\n",
              spec.peers, spec.aus, spec.au_coverage, spec.newcomers,
              spec.duration.to_days() / 365.0);
  std::printf("  replication: %u seed(s) from %llu%s\n", spec.seeds,
              static_cast<unsigned long long>(spec.seed),
              spec.layers > 0 ? (", " + std::to_string(spec.layers) + " layers").c_str() : "");
  if (spec.churn.enabled()) {
    std::printf("  dynamics: leave=%g/peer-yr crash=%g/peer-yr downtime=%gd arrivals=%g/yr",
                spec.churn.leave_rate_per_peer_year, spec.churn.crash_rate_per_peer_year,
                spec.churn.mean_downtime_days, spec.churn.arrival_rate_per_year);
    if (spec.churn.regional_outages()) {
      std::printf(" regions=%u@%g/yr (%gd, stagger %gh%s)", spec.churn.regions,
                  spec.churn.regional_outage_rate_per_year, spec.churn.regional_outage_days,
                  spec.churn.regional_recovery_stagger_hours,
                  spec.churn.regional_state_loss ? ", state loss" : "");
    }
    std::printf("\n");
  }
  if (spec.operators.enabled()) {
    std::printf("  operators: detection latency %gd\n",
                spec.operators.detection_latency.to_days());
    for (const dynamics::OperatorPolicy& policy : spec.operators.policies) {
      std::printf("    - on %-9s -> %s%s\n",
                  dynamics::operator_trigger_name(policy.trigger),
                  dynamics::operator_action_name(policy.action),
                  policy.action == dynamics::OperatorAction::kRateTighten
                      ? (" (x" + std::to_string(policy.factor) + ")").c_str()
                      : "");
    }
  }
  std::printf("  pipeline: %zu phase(s)\n", spec.pipeline.size());
  for (const adversary::AdversaryPhase& phase : spec.pipeline) {
    std::printf("    - %-16s attack=%gd recup=%gd coverage=%.0f%% defection=%s window=[%gd, %s]\n",
                adversary::phase_kind_name(phase.kind),
                phase.cadence.attack_duration.to_days(), phase.cadence.recuperation.to_days(),
                phase.cadence.coverage * 100.0,
                adversary::defection_point_name(phase.defection), phase.start.to_days(),
                phase.stop == sim::SimTime::zero()
                    ? "end"
                    : (std::to_string(phase.stop.to_days()) + "d").c_str());
  }
  size_t cells = compiled.cells.size();
  std::printf("  grid: %zu cell(s)", cells);
  for (const campaign::SweepAxis& axis : spec.axes) {
    std::printf(" x %s[%zu]", axis.param.c_str(), axis.size());
  }
  std::printf(" -> %zu run(s)\n",
              (cells + (spec.baseline ? 1 : 0)) * spec.seeds *
                  (spec.layers > 0 ? spec.layers : 1));
}

// Rejects misspelled options up front. One line, non-zero exit — never
// silently run a different experiment than the one asked for.
bool check_flags(const experiment::CliArgs& args) {
  static const std::set<std::string> known = {
      "validate", "dry-run", "out-dir",      "workers",  "quiet",
      "resume",   "retries", "fault-inject", "progress",
  };
  for (const std::string& key : args.keys()) {
    if (!known.contains(key)) {
      std::fprintf(stderr, "error: unknown flag --%s (see lockss_campaign --help)\n",
                   key.c_str());
      return false;
    }
  }
  if (!args.extras().empty()) {
    std::fprintf(stderr, "error: unexpected argument '%s' (one campaign file, then flags)\n",
                 args.extras().front().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argv[1][0] == '-') {
    std::fprintf(stderr,
                 "usage: lockss_campaign <campaign.json> [--validate] [--out-dir DIR] "
                 "[--workers N] [--quiet] [--resume] [--retries N] "
                 "[--fault-inject SPEC] [--progress]\n");
    return 2;
  }
  const std::string spec_path = argv[1];
  experiment::CliArgs args(argc - 1, argv + 1);
  if (!check_flags(args)) {
    return 2;
  }

  campaign::Spec spec;
  std::string error;
  if (!campaign::load_spec_file(spec_path, &spec, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  campaign::CompiledCampaign compiled;
  if (!campaign::compile_campaign(spec, &compiled, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  print_plan(compiled);
  if (args.flag("validate") || args.flag("dry-run")) {
    std::printf("ok: %s compiles to %zu cell(s)\n", spec_path.c_str(), compiled.cells.size());
    return 0;
  }

  campaign::RunOptions options;
  options.out_dir = args.text("out-dir", ".");
  options.quiet = args.flag("quiet");
  options.resume = args.flag("resume");

  const int64_t workers = args.integer("workers", 0);
  if (args.flag("workers") && workers < 1) {
    std::fprintf(stderr, "error: --workers must be >= 1 (got %lld)\n",
                 static_cast<long long>(workers));
    return 2;
  }
  if (workers > 0) {
    experiment::ParallelRunner::set_default_workers(static_cast<unsigned>(workers));
  }

  const int64_t retries = args.integer("retries", 0);
  if (retries < 0) {
    std::fprintf(stderr, "error: --retries must be >= 0 (got %lld)\n",
                 static_cast<long long>(retries));
    return 2;
  }
  options.retries = static_cast<uint32_t>(retries);

  std::string fault_spec = args.text("fault-inject", "");
  if (fault_spec.empty()) {
    if (const char* env = std::getenv("LOCKSS_FAULT_INJECT")) {
      fault_spec = env;
    }
  }
  if (!fault_spec.empty() && !campaign::parse_fault_plan(fault_spec, &options.faults, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }

  // Heartbeat: one stderr line per completed unit. The rate counts only
  // units computed this invocation — journal-resumed units complete
  // instantly and would otherwise inflate the ETA into fiction.
  const bool show_progress = args.flag("progress") && !options.quiet;
  if (show_progress) {
    auto watch = std::make_shared<obs::Stopwatch>();
    auto resumed = std::make_shared<size_t>(SIZE_MAX);
    options.progress = [watch, resumed](const campaign::RunOptions::Progress& p) {
      if (*resumed == SIZE_MAX) {
        *resumed = p.units_done;
        if (p.units_done > 0) {
          std::fprintf(stderr, "progress: %zu/%zu unit(s) resumed from the journal\n",
                       p.units_done, p.units_total);
        }
        return;
      }
      const size_t computed = p.units_done - *resumed;
      const double elapsed = watch->elapsed_seconds();
      const double rate = elapsed > 0.0 ? static_cast<double>(computed) / elapsed : 0.0;
      const size_t remaining = p.units_total - p.units_done;
      char eta[32];
      if (rate > 0.0 && remaining > 0) {
        std::snprintf(eta, sizeof(eta), "%.0fs", static_cast<double>(remaining) / rate);
      } else {
        std::snprintf(eta, sizeof(eta), "%s", remaining == 0 ? "done" : "--");
      }
      std::fprintf(stderr, "progress: %zu/%zu units, %.2f units/s, eta %s, %u retries%s\n",
                   p.units_done, p.units_total, rate, eta, p.extra_attempts,
                   p.units_failed > 0
                       ? (", " + std::to_string(p.units_failed) + " FAILED").c_str()
                       : "");
    };
  }

  // Probe out-dir writability before spending CPU on the grid: create it
  // (if needed) and touch a file inside. Catches read-only and
  // file-shadowed paths regardless of euid.
  {
    std::error_code ec;
    std::filesystem::create_directories(options.out_dir.empty() ? "." : options.out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "error: --out-dir %s: %s\n", options.out_dir.c_str(),
                   ec.message().c_str());
      return 2;
    }
    const std::filesystem::path probe =
        std::filesystem::path(options.out_dir.empty() ? "." : options.out_dir) /
        ".lockss_campaign.probe";
    if (std::FILE* f = std::fopen(probe.c_str(), "wb")) {
      std::fclose(f);
      std::filesystem::remove(probe, ec);
    } else {
      std::fprintf(stderr, "error: --out-dir %s is not writable\n", options.out_dir.c_str());
      return 2;
    }
  }

  campaign::CampaignOutcome outcome;
  if (!campaign::run_campaign(compiled, options, &outcome, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  if (show_progress) {
    std::fprintf(stderr, "progress: total wall %.1fs with %u worker(s)\n",
                 outcome.total_wall_ms / 1000.0, outcome.workers_used);
  }
  for (const std::string& file : outcome.files_written) {
    std::printf("# wrote %s\n", file.c_str());
  }
  if (!outcome.all_ok()) {
    std::fprintf(stderr,
                 "error: %zu unit(s) failed after exhausting retries; the rest of the grid "
                 "completed and the manifest records the failures\n",
                 outcome.units_failed);
    return 3;
  }
  return 0;
}
