// Extension experiment (§9): a dynamic population.
//
// "We need to understand how our defenses against attrition work in a more
// dynamic environment, where new loyal peers continually join the system
// over time." The tension: the same admission-control machinery that starves
// unknown *attackers* (0.90 random drop, refractory periods) also stands
// between an unknown *newcomer* and its first vote; introductions (§5.1) are
// the designed escape hatch.
//
// This harness joins successively larger newcomer cohorts into a running
// deployment — with and without a concurrent admission-control garbage flood
// — and reports how long integration takes: the mean delay from a
// newcomer's join to its first successful poll, plus the established
// population's health.
//
// Not a campaign file: the newcomer first-success probe is a poll observer,
// and its result is not a RunResult field.
#include <cstdio>
#include <map>

#include "experiment/aggregate.hpp"
#include "experiment/cli.hpp"
#include "experiment/scenario.hpp"
#include "experiment/table.hpp"

using namespace lockss;

namespace {

struct IntegrationProbe {
  uint32_t established = 0;
  std::map<uint32_t, sim::SimTime> first_success;  // newcomer id -> time

  void observe(net::NodeId poller, const protocol::PollOutcome& outcome) {
    if (poller.value >= established &&
        outcome.kind == protocol::PollOutcomeKind::kSuccess &&
        !first_success.contains(poller.value)) {
      first_success[poller.value] = outcome.concluded;
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  experiment::CliArgs args(argc, argv);
  const auto profile = experiment::resolve_profile(args, /*peers=*/40, /*aus=*/2,
                                                   /*years=*/2.0, /*seeds=*/1);
  experiment::print_preamble("Extension (§9): newcomers joining a dynamic population", profile);

  experiment::TableWriter table({"newcomers", "attack", "integrated", "first_success_days",
                                 "established_successes"},
                                profile.csv);
  table.header();

  for (double cohort : args.reals("cohorts", {2, 5, 10})) {
    for (const bool under_attack : {false, true}) {
      experiment::ScenarioConfig config = experiment::base_config(profile);
      config.newcomer_count = static_cast<uint32_t>(cohort);
      config.newcomer_join_window = sim::SimTime::months(6);
      if (under_attack) {
        config.adversary.kind = experiment::AdversarySpec::Kind::kAdmissionFlood;
        config.adversary.cadence.coverage = 1.0;
        config.adversary.cadence.attack_duration = config.duration;
        config.adversary.cadence.recuperation = sim::SimTime::days(30);
      }
      IntegrationProbe probe;
      probe.established = config.peer_count;
      config.poll_observer = [&probe](net::NodeId poller, const protocol::PollOutcome& outcome) {
        probe.observe(poller, outcome);
      };
      const auto result = run_scenario(config);
      double mean_days = 0.0;
      for (const auto& [id, at] : probe.first_success) {
        mean_days += at.to_days();
      }
      if (!probe.first_success.empty()) {
        mean_days /= static_cast<double>(probe.first_success.size());
      }
      table.row({experiment::TableWriter::fixed(cohort, 0),
                 under_attack ? "admission_flood" : "none",
                 std::to_string(probe.first_success.size()) + "/" +
                     std::to_string(config.newcomer_count),
                 experiment::TableWriter::fixed(mean_days, 0),
                 std::to_string(result.report.successful_polls)});
    }
  }
  std::printf(
      "# expectation: absent an attack newcomers integrate within a couple of poll\n"
      "# intervals. A sustained full-coverage admission flood drastically impedes\n"
      "# them: it keeps every refractory period hot, and introductions — the only\n"
      "# bypass — are earned by voting, which is what newcomers cannot yet do.\n"
      "# This quantifies the discovery slowdown §7.3 warns about ('loyal peers no\n"
      "# longer admit poll invitations from unknown ... peers, unless supported by\n"
      "# an introduction').\n");
  return 0;
}
