#include "adversary/policy.hpp"

#include <cassert>

#include "adversary/pipeline.hpp"

namespace lockss::adversary {

const char* policy_trigger_name(PolicyTrigger trigger) {
  switch (trigger) {
    case PolicyTrigger::kAlarm:
      return "alarm";
    case PolicyTrigger::kBackoff:
      return "backoff";
    case PolicyTrigger::kOutage:
      return "outage";
    case PolicyTrigger::kRecovery:
      return "recovery";
    case PolicyTrigger::kGradeCollapse:
      return "grade_collapse";
  }
  return "?";
}

const char* policy_action_name(PolicyAction action) {
  switch (action) {
    case PolicyAction::kSwitchPhase:
      return "switch_phase";
    case PolicyAction::kRetarget:
      return "retarget";
    case PolicyAction::kThrottle:
      return "throttle";
    case PolicyAction::kGoDormant:
      return "go_dormant";
  }
  return "?";
}

bool parse_policy_trigger(const std::string& name, PolicyTrigger* out) {
  for (PolicyTrigger trigger :
       {PolicyTrigger::kAlarm, PolicyTrigger::kBackoff, PolicyTrigger::kOutage,
        PolicyTrigger::kRecovery, PolicyTrigger::kGradeCollapse}) {
    if (name == policy_trigger_name(trigger)) {
      *out = trigger;
      return true;
    }
  }
  return false;
}

bool parse_policy_action(const std::string& name, PolicyAction* out) {
  for (PolicyAction action : {PolicyAction::kSwitchPhase, PolicyAction::kRetarget,
                              PolicyAction::kThrottle, PolicyAction::kGoDormant}) {
    if (name == policy_action_name(action)) {
      *out = action;
      return true;
    }
  }
  return false;
}

std::string validate_policies(const AdversaryPolicyConfig& config, size_t phase_count) {
  if (config.policies.empty()) {
    return "";  // disabled — nothing to validate
  }
  if (phase_count == 0) {
    return "adversary policies require an adversary pipeline to act on";
  }
  if (config.reaction_latency <= sim::SimTime::zero()) {
    return "reaction_latency must be positive";
  }
  if (config.sensor_interval <= sim::SimTime::zero()) {
    return "sensor_interval must be positive";
  }
  if (config.cooldown < sim::SimTime::zero()) {
    return "cooldown must be non-negative";
  }
  if (config.outage_threshold < 0.0 || config.outage_threshold > 1.0) {
    return "outage_threshold must be within [0, 1]";
  }
  if (config.backoff_threshold < 0.0 || config.backoff_threshold > 1.0) {
    return "backoff_threshold must be within [0, 1]";
  }
  if (config.collapse_threshold < 0.0 || config.collapse_threshold > 1.0) {
    return "collapse_threshold must be within [0, 1]";
  }
  if (config.dormant_mean <= sim::SimTime::zero()) {
    return "dormant_mean must be positive";
  }
  if (config.throttle_pause <= sim::SimTime::zero()) {
    return "throttle_pause must be positive";
  }
  for (size_t i = 0; i < config.policies.size(); ++i) {
    const AdversaryPolicy& policy = config.policies[i];
    if (policy.phase >= phase_count) {
      return "policy " + std::to_string(i) + " (" + policy_trigger_name(policy.trigger) +
             " -> " + policy_action_name(policy.action) + "): phase " +
             std::to_string(policy.phase) + " is out of range (pipeline has " +
             std::to_string(phase_count) + (phase_count == 1 ? " phase)" : " phases)");
    }
    if (policy.action == PolicyAction::kThrottle &&
        (policy.factor <= 0.0 || policy.factor > 1.0)) {
      return "policy " + std::to_string(i) + " (" + policy_trigger_name(policy.trigger) +
             " -> throttle): factor must be within (0, 1]";
    }
  }
  return "";
}

PolicyEngine::PolicyEngine(sim::Simulator& simulator, AdversaryPolicyConfig config,
                           uint64_t scenario_seed)
    : simulator_(simulator),
      config_(std::move(config)),
      rng_(sim::splitmix64_mix(scenario_seed ^ kPolicyStreamTag)) {}

void PolicyEngine::arm(AdversaryFleet* fleet, uint32_t established_count) {
  assert(fleet != nullptr);
  assert(validate_policies(config_, fleet->phase_count()).empty() &&
         "invalid policy table; run validate_policies first for the diagnostic");
  fleet_ = fleet;
  established_ = established_count;
  next_allowed_.assign(config_.policies.size(), sim::SimTime::zero());
}

bool PolicyEngine::wants(PolicyTrigger trigger) const {
  for (const AdversaryPolicy& policy : config_.policies) {
    if (policy.trigger == trigger) {
      return true;
    }
  }
  return false;
}

void PolicyEngine::start() {
  assert(fleet_ != nullptr && "arm() before start()");
  if (wants(PolicyTrigger::kBackoff) || wants(PolicyTrigger::kGradeCollapse)) {
    simulator_.schedule_in(config_.sensor_interval, [this] { sensor_tick(); });
  }
}

std::function<void(net::NodeId, const protocol::PollOutcome&)> PolicyEngine::observer(
    std::function<void(net::NodeId, const protocol::PollOutcome&)> next) {
  return [this, next = std::move(next)](net::NodeId poller,
                                        const protocol::PollOutcome& outcome) {
    if (outcome.kind == protocol::PollOutcomeKind::kAlarm) {
      on_trigger_at(PolicyTrigger::kAlarm, simulator_.now());
    }
    if (next) {
      next(poller, outcome);
    }
  };
}

void PolicyEngine::on_churn_sample(sim::SimTime at, uint32_t offline_count) {
  if (established_ == 0) {
    return;
  }
  const double fraction =
      static_cast<double>(offline_count) / static_cast<double>(established_);
  const bool open = fraction >= config_.outage_threshold;
  if (open && !outage_live_) {
    outage_live_ = true;
    on_trigger_at(PolicyTrigger::kOutage, at);
  } else if (!open && outage_live_) {
    outage_live_ = false;
    on_trigger_at(PolicyTrigger::kRecovery, at);
  }
}

void PolicyEngine::sensor_tick() {
  const uint64_t invitations = fleet_->invitations();
  const uint64_t admissions = fleet_->admissions();
  const uint64_t delta_inv = invitations - sensed_invitations_;
  const uint64_t delta_adm = admissions - sensed_admissions_;
  sensed_invitations_ = invitations;
  sensed_admissions_ = admissions;
  const sim::SimTime now = simulator_.now();
  if (delta_inv > 0 && static_cast<double>(delta_adm) <
                           config_.backoff_threshold * static_cast<double>(delta_inv)) {
    on_trigger_at(PolicyTrigger::kBackoff, now);
  }
  if (invitations >= kCollapseMinInvitations &&
      static_cast<double>(admissions) <
          config_.collapse_threshold * static_cast<double>(invitations)) {
    on_trigger_at(PolicyTrigger::kGradeCollapse, now);
  }
  simulator_.schedule_in(config_.sensor_interval, [this] { sensor_tick(); });
}

void PolicyEngine::on_trigger_at(PolicyTrigger trigger, sim::SimTime observed_at) {
  // Rules fire in table order, each gated by its own cooldown — the
  // adversary notices once, then works through its playbook (the
  // OperatorResponseEngine discipline).
  for (size_t i = 0; i < config_.policies.size(); ++i) {
    const AdversaryPolicy& policy = config_.policies[i];
    if (policy.trigger != trigger || observed_at < next_allowed_[i]) {
      continue;
    }
    next_allowed_[i] = observed_at + config_.cooldown;
    ++triggers_seen_;
    if (trigger_hook_) {
      trigger_hook_(trigger, static_cast<uint32_t>(i));
    }
    simulator_.schedule_at(observed_at + config_.reaction_latency,
                           [this, i] { apply(i); });
  }
}

void PolicyEngine::apply(size_t policy_index) {
  const AdversaryPolicy& policy = config_.policies[policy_index];
  const size_t target = policy.phase;
  switch (policy.action) {
    case PolicyAction::kSwitchPhase:
      for (size_t p = 0; p < fleet_->phase_count(); ++p) {
        if (p != target) {
          fleet_->stop_phase(p);
        }
      }
      fleet_->start_phase(target);
      break;
    case PolicyAction::kRetarget:
      fleet_->restart_phase(target);
      break;
    case PolicyAction::kThrottle:
      fleet_->throttle_phase(target, policy.factor, config_.throttle_pause);
      break;
    case PolicyAction::kGoDormant: {
      fleet_->stop_phase(target);
      // Irregular dormancy (the one legitimate use of the policy stream):
      // a fixed sleep would let defenders calibrate to the cadence.
      const sim::SimTime sleep = rng_.exponential_time(config_.dormant_mean);
      simulator_.schedule_in(sleep, [this, target] { fleet_->start_phase(target); });
      break;
    }
  }
  ++actions_applied_[static_cast<size_t>(policy.action)];
  if (action_hook_) {
    action_hook_(policy.action, static_cast<uint32_t>(target));
  }
}

uint64_t PolicyEngine::actions_total() const {
  uint64_t total = 0;
  for (uint64_t n : actions_applied_) {
    total += n;
  }
  return total;
}

}  // namespace lockss::adversary
