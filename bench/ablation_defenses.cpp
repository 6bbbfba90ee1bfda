// Ablation study: each attrition defense of §5, toggled off under attack.
//
// DESIGN.md calls out the defense stack as the paper's contribution; this
// harness quantifies what each layer buys by disabling one at a time and
// re-running the §7.3 admission-control flood and the §7.4 brute-force
// (NONE) attack:
//
//   full            — every defense on (the paper's system)
//   no_refractory   — refractory period zeroed: every garbage invitation
//                     that survives the coin reaches costed verification
//   no_random_drop  — drop probabilities zeroed: unknown/debt invitations
//                     sail through to verification/scheduling
//   no_effort_bal   — introductory effort priced at ~zero: invitations are
//                     cheap for *everyone*, including attackers
//   sync_solicit    — desynchronization weakened: the solicitation window
//                     collapses to 5% of the poll, re-creating the
//                     synchronized-voter problem of §5.2
//
// Expected shape: each ablation raises friction (or, for sync_solicit,
// inquorate polls) relative to the full defense stack.
//
// Not a campaign file: every row's friction is measured against a baseline
// with the same ablation, and a campaign has only one baseline.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "experiment/aggregate.hpp"
#include "experiment/cli.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "experiment/table.hpp"

using namespace lockss;

namespace {

struct Ablation {
  const char* name;
  void (*apply)(experiment::ScenarioConfig&);
};

void apply_full(experiment::ScenarioConfig&) {}
void apply_no_refractory(experiment::ScenarioConfig& c) {
  c.params.refractory_period = sim::SimTime::seconds(1);
}
void apply_no_random_drop(experiment::ScenarioConfig& c) {
  c.params.unknown_drop_probability = 0.0;
  c.params.debt_drop_probability = 0.0;
}
void apply_no_effort_balancing(experiment::ScenarioConfig& c) {
  c.params.introductory_effort_fraction = 0.001;
}
void apply_sync_solicit(experiment::ScenarioConfig& c) {
  c.params.solicitation_window_fraction = 0.05;
}

constexpr Ablation kAblations[] = {
    {"full", apply_full},
    {"no_refractory", apply_no_refractory},
    {"no_random_drop", apply_no_random_drop},
    {"no_effort_bal", apply_no_effort_balancing},
    {"sync_solicit", apply_sync_solicit},
};

}  // namespace

int main(int argc, char** argv) {
  experiment::CliArgs args(argc, argv);
  const auto profile = experiment::resolve_profile(args, /*peers=*/50, /*aus=*/3,
                                                   /*years=*/1.0, /*seeds=*/1);
  experiment::print_preamble("Ablation: the §5 defense stack, one layer at a time", profile);

  experiment::TableWriter table({"ablation", "attack", "friction", "success_polls",
                                 "inquorate", "afp"},
                                profile.csv);
  table.header();

  const std::vector<experiment::AdversarySpec::Kind> kinds = {
      experiment::AdversarySpec::Kind::kAdmissionFlood,
      experiment::AdversarySpec::Kind::kBruteForce};

  // Flatten the whole study — per ablation: one baseline (with the same
  // ablation, so friction isolates the attack) plus one campaign per attack
  // kind — into a single parallel grid; run_replicated_grid replicates each
  // config over the profile's seeds.
  std::vector<experiment::ScenarioConfig> grid;
  for (const Ablation& ablation : kAblations) {
    experiment::ScenarioConfig config = experiment::base_config(profile);
    ablation.apply(config);
    grid.push_back(config);
    for (auto kind : kinds) {
      experiment::ScenarioConfig attack = config;
      attack.adversary.kind = kind;
      attack.adversary.defection = adversary::DefectionPoint::kNone;
      attack.adversary.cadence.coverage = 1.0;
      attack.adversary.cadence.attack_duration = attack.duration;
      attack.adversary.cadence.recuperation = sim::SimTime::days(30);
      grid.push_back(attack);
    }
  }
  const auto combined_results = experiment::run_replicated_grid(grid, profile.seeds);

  size_t block = 0;
  for (const Ablation& ablation : kAblations) {
    const experiment::RunResult& baseline = combined_results[block++];
    for (auto kind : kinds) {
      const experiment::RunResult& attacked = combined_results[block++];
      const auto rel = experiment::relative_metrics(attacked, baseline);
      table.row({ablation.name,
                 kind == experiment::AdversarySpec::Kind::kAdmissionFlood ? "admission_flood"
                                                                          : "brute_force",
                 experiment::TableWriter::fixed(rel.friction, 2),
                 std::to_string(attacked.report.successful_polls),
                 std::to_string(attacked.report.inquorate_polls),
                 experiment::TableWriter::scientific(rel.access_failure, 2)});
    }
  }
  return 0;
}
