// Adaptive adversary policies (§9 "adversaries that react").
//
// Every attack module in this directory follows a fixed schedule; the
// paper's closing question is what happens when the adversary *observes*
// the defenders and adapts. This engine is the adversary-side mirror of
// dynamics::OperatorResponseEngine: deterministic trigger→action rules
// with one shared reaction latency, driving the installed
// adversary::AdversaryFleet.
//
// Triggers (what the adversary notices):
//   kAlarm         a loyal poll raised an attrition alarm — the defenders
//                  are onto something; observed through the scenario's
//                  poll-observer chain (the adversary eavesdrops on the
//                  same signal the operators act on).
//   kBackoff       the victims' rate limiters are refusing the fleet's
//                  invitations: over the last sensor interval the
//                  admission ratio fell below `backoff_threshold`.
//   kOutage        a churn/outage window opened — the offline fraction of
//                  the established population crossed `outage_threshold`
//                  ("attack during outages", the first shipped policy).
//   kRecovery      that window closed again (offline fraction fell back
//                  under the threshold).
//   kGradeCollapse the owned minions' standing has collapsed: cumulative
//                  admissions ran below `collapse_threshold` of cumulative
//                  invitations (grades sit at debt everywhere; continuing
//                  to spend effort is pointless).
//
// Actions (what it does about it, `reaction_latency` later):
//   kSwitchPhase   stop every other active phase and activate the target.
//   kRetarget      restart the target phase: victims resample, attack
//                  lanes rebuild.
//   kThrottle      scale the target phase down to stay under detection —
//                  cadence-driven phases shorten attack windows and
//                  lengthen recuperation by `factor`; continuous phases
//                  duty-cycle (stop now, resume after `throttle_pause`).
//   kGoDormant     stop the target phase and resume after an
//                  exponentially-sampled dormancy (mean `dormant_mean`) —
//                  irregular enough that defenders cannot calibrate to it.
//
// Determinism contract: the engine's RNG is a domain-separated hash of the
// scenario seed (kPolicyStreamTag) — never a root split — so installing a
// policy engine (even an inert one) shifts no other stream; policy-free
// configs reproduce the golden corpus byte for byte. Alarm observations
// arrive through the poll-observer chain, like operator alarms. All
// scheduled reactions are ordinary simulator events, so enabled-policy
// runs are bit-identical across worker counts too.
#ifndef LOCKSS_ADVERSARY_POLICY_HPP_
#define LOCKSS_ADVERSARY_POLICY_HPP_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/node_id.hpp"
#include "protocol/host.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace lockss::adversary {

class AdversaryFleet;

enum class PolicyTrigger : uint8_t {
  kAlarm = 0,
  kBackoff,
  kOutage,
  kRecovery,
  kGradeCollapse,
};
constexpr size_t kPolicyTriggerCount = 5;

enum class PolicyAction : uint8_t {
  kSwitchPhase = 0,
  kRetarget,
  kThrottle,
  kGoDormant,
};
constexpr size_t kPolicyActionCount = 4;

const char* policy_trigger_name(PolicyTrigger trigger);
const char* policy_action_name(PolicyAction action);
// Case-sensitive inverses ("alarm" | "backoff" | "outage" | "recovery" |
// "grade_collapse"; "switch_phase" | "retarget" | "throttle" |
// "go_dormant"); return false on unknown names.
bool parse_policy_trigger(const std::string& name, PolicyTrigger* out);
bool parse_policy_action(const std::string& name, PolicyAction* out);

// One trigger→action rule. `phase` indexes the installed pipeline: the
// phase to activate for kSwitchPhase, the phase acted on otherwise.
struct AdversaryPolicy {
  PolicyTrigger trigger = PolicyTrigger::kOutage;
  PolicyAction action = PolicyAction::kSwitchPhase;
  uint32_t phase = 0;
  // kThrottle: multiplicative cadence factor in (0, 1]. Other actions
  // ignore it.
  double factor = 0.5;
};

struct AdversaryPolicyConfig {
  // Adversaries watch their own telemetry, so they react faster than
  // operators detect — but not instantly (botnet command fan-out).
  sim::SimTime reaction_latency = sim::SimTime::hours(6);
  // Cadence of the backoff/grade-collapse sensor sweep over the fleet's
  // own counters. Only scheduled when some policy needs a sensed trigger.
  sim::SimTime sensor_interval = sim::SimTime::days(1);
  // Per-rule refractory: once a rule fires it stays quiet this long, so a
  // sustained outage does not re-trigger every churn transition.
  sim::SimTime cooldown = sim::SimTime::days(2);
  // Offline fraction of the established population at/above which an
  // outage window is considered open.
  double outage_threshold = 0.10;
  // kBackoff fires when interval admissions < threshold * interval
  // invitations (and at least one invitation went out).
  double backoff_threshold = 0.5;
  // kGradeCollapse fires when cumulative admissions < threshold *
  // cumulative invitations, after at least kCollapseMinInvitations.
  double collapse_threshold = 0.05;
  // kGoDormant dormancy mean (exponential, from the policy stream).
  sim::SimTime dormant_mean = sim::SimTime::days(7);
  // kThrottle pause for continuous (non-cadence) phases.
  sim::SimTime throttle_pause = sim::SimTime::days(3);
  std::vector<AdversaryPolicy> policies;

  bool enabled() const { return !policies.empty(); }
};

// Domain-separation tag for the policy RNG stream (seed ^ tag through
// splitmix64_mix — the net::FaultModel pattern).
inline constexpr uint64_t kPolicyStreamTag = 0xADAB71FEAD5E65EDull;

// Cumulative invitations before kGradeCollapse may fire (a fleet that has
// barely attacked has no evidence its grades collapsed).
inline constexpr uint64_t kCollapseMinInvitations = 100;

// Validates a policy table against an installed pipeline shape. Returns an
// empty string when valid, else a human-readable reason (mirrors
// validate_pipeline).
std::string validate_policies(const AdversaryPolicyConfig& config, size_t phase_count);

class PolicyEngine {
 public:
  // Consumes no root split: the RNG stream is derived from `scenario_seed`
  // under kPolicyStreamTag.
  PolicyEngine(sim::Simulator& simulator, AdversaryPolicyConfig config,
               uint64_t scenario_seed);

  // Points the engine at the fleet it drives; call after fleet
  // construction, before start(). `established_count` scales the
  // outage-fraction sensor. Aborts (assert) on a policy table that does
  // not validate against the fleet's phase count.
  void arm(AdversaryFleet* fleet, uint32_t established_count);

  // Schedules the sensor sweep when some policy needs it. Call after
  // arm(), alongside fleet start.
  void start();

  // The observer to install in PeerEnvironment::poll_observer; chains to
  // `next`, exactly like OperatorResponseEngine::observer.
  std::function<void(net::NodeId, const protocol::PollOutcome&)> observer(
      std::function<void(net::NodeId, const protocol::PollOutcome&)> next = nullptr);

  // Churn-transition feed (the scenario calls this from the churn model's
  // transition hook): the current offline count of
  // the established population after the transition applied.
  void on_churn_sample(sim::SimTime at, uint32_t offline_count);

  // Trace hooks (docs/observability.md): fired per rule trigger and per
  // applied action.
  void set_trigger_hook(std::function<void(PolicyTrigger, uint32_t)> hook) {
    trigger_hook_ = std::move(hook);
  }
  void set_action_hook(std::function<void(PolicyAction, uint32_t)> hook) {
    action_hook_ = std::move(hook);
  }

  // --- Pure reads ----------------------------------------------------------
  uint64_t triggers_seen() const { return triggers_seen_; }
  // Applied actions, indexed by PolicyAction.
  const std::array<uint64_t, kPolicyActionCount>& actions_applied() const {
    return actions_applied_;
  }
  uint64_t actions_total() const;

 private:
  void on_trigger_at(PolicyTrigger trigger, sim::SimTime observed_at);
  void apply(size_t policy_index);
  void sensor_tick();
  bool wants(PolicyTrigger trigger) const;

  sim::Simulator& simulator_;
  AdversaryPolicyConfig config_;
  sim::Rng rng_;
  AdversaryFleet* fleet_ = nullptr;
  uint32_t established_ = 0;
  bool outage_live_ = false;
  uint64_t sensed_invitations_ = 0;  // counter snapshot at the last sweep
  uint64_t sensed_admissions_ = 0;
  std::vector<sim::SimTime> next_allowed_;  // per rule, cooldown gate
  std::function<void(PolicyTrigger, uint32_t)> trigger_hook_;
  std::function<void(PolicyAction, uint32_t)> action_hook_;
  uint64_t triggers_seen_ = 0;
  std::array<uint64_t, kPolicyActionCount> actions_applied_{};
};

}  // namespace lockss::adversary

#endif  // LOCKSS_ADVERSARY_POLICY_HPP_
