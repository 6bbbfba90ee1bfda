// Adversarial-voting battery for the adaptive adversary PolicyEngine
// (adversary/policy.hpp; docs/adversaries.md).
//
// The hostile-mix deployment puts ~200 voter identities in play — 40 loyal
// peers plus brute-force and vote-flood minion pools — over a churning
// population, and drives it under each policy action in turn. The battery
// asserts the protocol-level outcomes the paper's attrition analysis cares
// about: stalemated polls surface as alarms, not-committable polls land in
// the inquorate / quorum-not-reached taxonomy slots, and every concluded
// poll is accounted to exactly one PollAbortReason.
//
// The determinism half: an installed-but-never-firing policy engine is
// bit-identical to no engine at all (it consumes no RNG and schedules no
// events), and a 50-configuration seeded fuzz over random trigger/action tables × churn ×
// network faults tears down cleanly (no stale sessions, no schedule
// reservations leaked past the audit horizon) with sampled replays
// reproducing bit for bit.
//
// Labelled `tournament` in CMake so the CI sanitizer matrix runs it by
// name: policy reactions restart and stop attack phases mid-flight, which
// is exactly where lifetime and reservation-leak bugs would live.
#include <gtest/gtest.h>

#include <string>

#include "adversary/policy.hpp"
#include "experiment/scenario.hpp"
#include "sim/rng.hpp"

namespace lockss::experiment {
namespace {

// 40 loyal peers + 100 brute-force minions + 60 vote-flood minions = 200
// voter identities. Small AU set and ~8 months keep the battery inside the
// CI budget while the ~3-month poll cycle still turns over.
ScenarioConfig hostile_mix() {
  ScenarioConfig config;
  config.peer_count = 40;
  config.au_count = 2;
  config.duration = sim::SimTime::days(240);
  config.seed = 20260809;
  config.damage.mean_disk_years_between_failures = 0.5;
  config.damage.aus_per_disk = config.au_count;
  // Session churn opens the outage windows the kOutage policies watch.
  config.churn.leave_rate_per_peer_year = 2.0;
  config.churn.crash_rate_per_peer_year = 0.5;
  config.churn.mean_downtime_days = 12.0;

  adversary::AdversaryPhase stoppage;
  stoppage.kind = adversary::PhaseKind::kPipeStoppage;
  stoppage.cadence.attack_duration = sim::SimTime::days(20);
  stoppage.cadence.recuperation = sim::SimTime::days(15);
  stoppage.cadence.coverage = 0.6;

  adversary::AdversaryPhase brute;
  brute.kind = adversary::PhaseKind::kBruteForce;
  brute.defection = adversary::DefectionPoint::kRemaining;
  brute.minion_count = 100;
  brute.minion_id_base = 1000;

  adversary::AdversaryPhase flood;
  flood.kind = adversary::PhaseKind::kVoteFlood;
  flood.minion_count = 60;
  flood.minion_id_base = 2000;

  config.adversary.pipeline = {stoppage, brute, flood};
  return config;
}

adversary::AdversaryPolicy rule(adversary::PolicyTrigger trigger,
                                adversary::PolicyAction action, uint32_t phase,
                                double factor = 0.5) {
  adversary::AdversaryPolicy r;
  r.trigger = trigger;
  r.action = action;
  r.phase = phase;
  r.factor = factor;
  return r;
}

// Every concluded poll is accounted to exactly one abort reason (slot
// kNone = full success), and the harvest-time liveness audit is clean:
// policy reactions that stop/restart phases mid-flight must not leak
// sessions or schedule reservations.
void expect_clean_accounting(const RunResult& result, const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(result.stale_sessions_at_end, 0u);
  EXPECT_EQ(result.reservations_beyond_horizon, 0u);
  uint64_t concluded = 0;
  for (uint64_t count : result.polls_aborted) {
    concluded += count;
  }
  EXPECT_EQ(concluded, result.report.successful_polls + result.report.inquorate_polls +
                           result.report.alarms);
}

void expect_bit_identical(const RunResult& a, const RunResult& b, const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.report.access_failure_probability, b.report.access_failure_probability);
  EXPECT_EQ(a.report.mean_success_gap_days, b.report.mean_success_gap_days);
  EXPECT_EQ(a.report.successful_polls, b.report.successful_polls);
  EXPECT_EQ(a.report.inquorate_polls, b.report.inquorate_polls);
  EXPECT_EQ(a.report.alarms, b.report.alarms);
  EXPECT_EQ(a.report.repairs, b.report.repairs);
  EXPECT_EQ(a.report.loyal_effort_seconds, b.report.loyal_effort_seconds);
  EXPECT_EQ(a.report.adversary_effort_seconds, b.report.adversary_effort_seconds);
  EXPECT_EQ(a.polls_started, b.polls_started);
  EXPECT_EQ(a.solicitations_sent, b.solicitations_sent);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.adversary_invitations, b.adversary_invitations);
  EXPECT_EQ(a.adversary_admissions, b.adversary_admissions);
  EXPECT_EQ(a.admission_verdicts, b.admission_verdicts);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.peak_queue_depth, b.peak_queue_depth);
  EXPECT_EQ(a.churn_departures, b.churn_departures);
  EXPECT_EQ(a.churn_recoveries, b.churn_recoveries);
  EXPECT_EQ(a.availability_mean, b.availability_mean);
  EXPECT_EQ(a.operator_interventions, b.operator_interventions);
  EXPECT_EQ(a.policy_triggers, b.policy_triggers);
  EXPECT_EQ(a.policy_actions, b.policy_actions);
  EXPECT_EQ(a.ack_timeouts, b.ack_timeouts);
  EXPECT_EQ(a.vote_timeouts, b.vote_timeouts);
  EXPECT_EQ(a.solicitation_retries, b.solicitation_retries);
  EXPECT_EQ(a.polls_aborted, b.polls_aborted);
  EXPECT_EQ(a.sessions_live_at_end, b.sessions_live_at_end);
}

// --- The adversarial-voting battery, one policy action at a time ----------

// "Attack during outages": switch the fleet onto the brute-force phase when
// a churn outage window opens, back to pipe stoppage when it closes. The
// hostile mix must produce the full outcome taxonomy — stalemates (alarms),
// not-committable polls (inquorate / quorum-not-reached) — and the policy
// must demonstrably fire both ways.
TEST(AdversaryPolicyTest, OutageOpportunistProducesFullPollTaxonomy) {
  ScenarioConfig config = hostile_mix();
  // The default quorum (10) is trivially satisfiable by 40 loyal peers even
  // under stoppage windows; tighten it to most of the population so the
  // pipe-stoppage phase genuinely starves some polls below quorum — the
  // not-committable half of the taxonomy this test exists to pin.
  config.params.quorum = 24;
  config.adversary_policy.outage_threshold = 0.10;
  config.adversary_policy.cooldown = sim::SimTime::days(2);
  config.adversary_policy.policies = {
      rule(adversary::PolicyTrigger::kOutage, adversary::PolicyAction::kSwitchPhase, 1),
      rule(adversary::PolicyTrigger::kRecovery, adversary::PolicyAction::kSwitchPhase, 0),
  };
  const RunResult result = run_scenario(config);
  expect_clean_accounting(result, "outage opportunist");

  // The policy actually fired: outage windows opened and closed.
  EXPECT_GT(result.policy_triggers, 0u);
  EXPECT_GT(result.policy_actions[static_cast<size_t>(
                adversary::PolicyAction::kSwitchPhase)],
            0u);
  // Stalemates: hostile voting drove polls to landslide-loss alarms.
  EXPECT_GT(result.report.alarms, 0u);
  // Not-committable polls: the mix kept some polls from reaching quorum.
  EXPECT_GT(result.report.inquorate_polls, 0u);
  EXPECT_GT(result.polls_aborted[static_cast<size_t>(
                protocol::PollAbortReason::kQuorumNotReached)],
            0u);
  // The deployment still made progress (the battery is hostile, not dead).
  EXPECT_GT(result.report.successful_polls, 0u);
  // And the adversary genuinely voted: invitations flowed.
  EXPECT_GT(result.adversary_invitations, 0u);
}

// Alarm-triggered retarget: every attrition alarm the defenders raise makes
// the adversary resample victims and rebuild attack lanes.
TEST(AdversaryPolicyTest, AlarmRetargetFiresAndTearsDownCleanly) {
  ScenarioConfig config = hostile_mix();
  config.adversary_policy.cooldown = sim::SimTime::days(1);
  config.adversary_policy.policies = {
      rule(adversary::PolicyTrigger::kAlarm, adversary::PolicyAction::kRetarget, 0),
  };
  const RunResult result = run_scenario(config);
  expect_clean_accounting(result, "alarm retarget");
  EXPECT_GT(result.report.alarms, 0u);
  EXPECT_GT(result.policy_triggers, 0u);
  EXPECT_GT(
      result.policy_actions[static_cast<size_t>(adversary::PolicyAction::kRetarget)], 0u);
}

// Backoff-sensed throttle: when the victims' rate limiters refuse the
// fleet's invitations, the cadence-driven stoppage phase scales down.
TEST(AdversaryPolicyTest, BackoffThrottleFiresAndTearsDownCleanly) {
  ScenarioConfig config = hostile_mix();
  config.adversary_policy.backoff_threshold = 0.9;  // trips on mild refusal
  config.adversary_policy.sensor_interval = sim::SimTime::days(1);
  config.adversary_policy.cooldown = sim::SimTime::days(5);
  config.adversary_policy.policies = {
      rule(adversary::PolicyTrigger::kBackoff, adversary::PolicyAction::kThrottle, 0, 0.5),
  };
  const RunResult result = run_scenario(config);
  expect_clean_accounting(result, "backoff throttle");
  EXPECT_GT(result.policy_triggers, 0u);
  EXPECT_GT(
      result.policy_actions[static_cast<size_t>(adversary::PolicyAction::kThrottle)], 0u);
}

// Grade-collapse dormancy: when the minions' standing collapses, the
// brute-force phase goes dormant for an exponentially-sampled span — the
// only consumer of the policy RNG stream.
TEST(AdversaryPolicyTest, GradeCollapseDormancyFiresAndTearsDownCleanly) {
  ScenarioConfig config = hostile_mix();
  config.adversary_policy.collapse_threshold = 0.95;  // trips under any friction
  config.adversary_policy.sensor_interval = sim::SimTime::days(2);
  config.adversary_policy.cooldown = sim::SimTime::days(10);
  config.adversary_policy.dormant_mean = sim::SimTime::days(5);
  config.adversary_policy.policies = {
      rule(adversary::PolicyTrigger::kGradeCollapse, adversary::PolicyAction::kGoDormant, 1),
  };
  const RunResult result = run_scenario(config);
  expect_clean_accounting(result, "grade-collapse dormancy");
  EXPECT_GT(result.policy_triggers, 0u);
  EXPECT_GT(
      result.policy_actions[static_cast<size_t>(adversary::PolicyAction::kGoDormant)], 0u);
}

// --- Determinism contract -------------------------------------------------

// An installed policy engine whose rules can never fire (outage-triggered,
// but the deployment has no churn, so no outage window ever opens) is
// bit-identical to running with no policy table at all — including
// events_processed: the engine schedules nothing and draws no RNG.
TEST(AdversaryPolicyTest, NeverFiringPolicyIsBitIdenticalToNoPolicy) {
  ScenarioConfig plain = hostile_mix();
  plain.churn = dynamics::ChurnConfig{};  // static population: no outages
  const RunResult without = run_scenario(plain);

  ScenarioConfig policied = plain;
  policied.adversary_policy.policies = {
      rule(adversary::PolicyTrigger::kOutage, adversary::PolicyAction::kSwitchPhase, 1),
      rule(adversary::PolicyTrigger::kRecovery, adversary::PolicyAction::kSwitchPhase, 0),
  };
  const RunResult with = run_scenario(policied);
  EXPECT_EQ(with.policy_triggers, 0u);
  EXPECT_EQ(with.policy_actions, decltype(with.policy_actions){});
  expect_bit_identical(without, with, "inert policy engine");
}

// --- Seeded policy fuzz ---------------------------------------------------

adversary::AdversaryPolicy random_rule(sim::Rng& rng, size_t phase_count) {
  adversary::AdversaryPolicy r;
  r.trigger = static_cast<adversary::PolicyTrigger>(rng.index(adversary::kPolicyTriggerCount));
  r.action = static_cast<adversary::PolicyAction>(rng.index(adversary::kPolicyActionCount));
  r.phase = static_cast<uint32_t>(rng.index(phase_count));
  r.factor = 0.1 + rng.uniform() * 0.9;  // (0, 1]
  return r;
}

// 50 seeded random trigger/action tables × random knobs × churn × network
// faults. Whatever the policies do to the pipeline mid-flight — switching,
// restarting, throttling, dormancy — every session reaches a terminal
// state, no schedule reservation leaks past the audit horizon (the
// AttackSchedule reservation-release audit), and every concluded poll is
// taxonomized. Every tenth configuration replays bit-identically.
TEST(AdversaryPolicyTest, FiftyRandomPolicyConfigsTearDownCleanly) {
  sim::Rng fuzz(20260810);
  uint64_t total_actions = 0;
  for (int i = 0; i < 50; ++i) {
    ScenarioConfig config = hostile_mix();
    // Smaller deployment per fuzz iteration keeps 50 runs in CI budget.
    config.peer_count = 12;
    config.duration = sim::SimTime::days(200);
    config.adversary.pipeline[1].minion_count = 24;
    config.adversary.pipeline[2].minion_count = 16;
    config.seed = 9000 + static_cast<uint64_t>(i);
    config.churn.leave_rate_per_peer_year = fuzz.uniform() * 3.0;
    config.churn.crash_rate_per_peer_year = fuzz.uniform() * 1.0;
    config.churn.mean_downtime_days = 2.0 + fuzz.uniform() * 18.0;
    if (fuzz.bernoulli(0.5)) {
      config.faults.loss_rate = fuzz.uniform() * 0.25;
      config.faults.dup_rate = fuzz.uniform() * 0.05;
    }
    config.adversary_policy.reaction_latency = sim::SimTime::hours(1 + fuzz.index(12));
    config.adversary_policy.sensor_interval = sim::SimTime::days(0.5 + fuzz.uniform() * 3.0);
    config.adversary_policy.cooldown = sim::SimTime::days(0.5 + fuzz.uniform() * 6.0);
    config.adversary_policy.outage_threshold = fuzz.uniform() * 0.4;
    config.adversary_policy.backoff_threshold = fuzz.uniform();
    config.adversary_policy.collapse_threshold = fuzz.uniform();
    config.adversary_policy.dormant_mean = sim::SimTime::days(1.0 + fuzz.uniform() * 9.0);
    const size_t rules = 1 + fuzz.index(4);
    config.adversary_policy.policies.clear();
    for (size_t r = 0; r < rules; ++r) {
      config.adversary_policy.policies.push_back(
          random_rule(fuzz, config.adversary.pipeline.size()));
    }
    ASSERT_EQ(adversary::validate_policies(config.adversary_policy,
                                           config.adversary.pipeline.size()),
              "");
    const RunResult result = run_scenario(config);
    expect_clean_accounting(result, "policy fuzz config " + std::to_string(i));
    for (uint64_t count : result.policy_actions) {
      total_actions += count;
    }
    if (i % 10 == 0) {
      const RunResult replay = run_scenario(config);
      expect_bit_identical(result, replay, "replay of policy fuzz config " + std::to_string(i));
    }
  }
  // The fuzz must actually have exercised the policy machinery.
  EXPECT_GT(total_actions, 20u);
}

// --- Table validation -----------------------------------------------------

TEST(AdversaryPolicyTest, ValidatePoliciesDiagnostics) {
  adversary::AdversaryPolicyConfig config;
  config.policies = {rule(adversary::PolicyTrigger::kOutage,
                          adversary::PolicyAction::kSwitchPhase, 0)};
  EXPECT_EQ(adversary::validate_policies(config, 2), "");
  EXPECT_EQ(adversary::validate_policies(config, 0),
            "adversary policies require an adversary pipeline to act on");

  config.policies[0].phase = 5;
  EXPECT_EQ(adversary::validate_policies(config, 2),
            "policy 0 (outage -> switch_phase): phase 5 is out of range (pipeline has 2 "
            "phases)");

  config.policies[0] =
      rule(adversary::PolicyTrigger::kAlarm, adversary::PolicyAction::kThrottle, 0, 1.5);
  EXPECT_EQ(adversary::validate_policies(config, 2),
            "policy 0 (alarm -> throttle): factor must be within (0, 1]");

  config.policies[0].factor = 0.5;
  config.outage_threshold = 1.5;
  EXPECT_EQ(adversary::validate_policies(config, 2),
            "outage_threshold must be within [0, 1]");
}

TEST(AdversaryPolicyTest, TriggerAndActionNamesRoundTrip) {
  for (size_t i = 0; i < adversary::kPolicyTriggerCount; ++i) {
    const auto trigger = static_cast<adversary::PolicyTrigger>(i);
    adversary::PolicyTrigger parsed;
    ASSERT_TRUE(
        adversary::parse_policy_trigger(adversary::policy_trigger_name(trigger), &parsed));
    EXPECT_EQ(parsed, trigger);
  }
  for (size_t i = 0; i < adversary::kPolicyActionCount; ++i) {
    const auto action = static_cast<adversary::PolicyAction>(i);
    adversary::PolicyAction parsed;
    ASSERT_TRUE(
        adversary::parse_policy_action(adversary::policy_action_name(action), &parsed));
    EXPECT_EQ(parsed, action);
  }
  adversary::PolicyTrigger trigger;
  adversary::PolicyAction action;
  EXPECT_FALSE(adversary::parse_policy_trigger("Alarm", &trigger));
  EXPECT_FALSE(adversary::parse_policy_action("sleep", &action));
}

}  // namespace
}  // namespace lockss::experiment
