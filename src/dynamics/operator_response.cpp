#include "dynamics/operator_response.hpp"

#include "peer/peer.hpp"

namespace lockss::dynamics {

OperatorResponseEngine::OperatorResponseEngine(sim::Simulator& simulator,
                                               OperatorResponseConfig config, sim::Rng rng)
    : simulator_(simulator), config_(std::move(config)), rng_(rng) {}

void OperatorResponseEngine::attend(peer::Peer* peer_ptr) {
  peers_[peer_ptr->id()] = peer_ptr;
}

void OperatorResponseEngine::set_roster(std::vector<net::NodeId> roster) {
  roster_ = std::move(roster);
}

std::function<void(net::NodeId, const protocol::PollOutcome&)> OperatorResponseEngine::observer(
    std::function<void(net::NodeId, const protocol::PollOutcome&)> next) {
  return [this, next = std::move(next)](net::NodeId poller,
                                        const protocol::PollOutcome& outcome) {
    if (outcome.kind == protocol::PollOutcomeKind::kAlarm) {
      on_trigger(OperatorTrigger::kAlarm, poller);
    }
    if (next) {
      next(poller, outcome);
    }
  };
}

void OperatorResponseEngine::on_peer_recovered(peer::Peer& peer) {
  on_trigger(OperatorTrigger::kRecovery, peer.id());
}

void OperatorResponseEngine::on_trigger(OperatorTrigger trigger, net::NodeId peer) {
  if (!peers_.contains(peer)) {
    return;  // unattended (e.g. a hand-built host in tests)
  }
  ++triggers_seen_;
  // Policies fire in file order, all sharing the one detection latency: the
  // operator notices once, then works through the playbook.
  for (const OperatorPolicy& policy : config_.policies) {
    if (policy.trigger != trigger) {
      continue;
    }
    simulator_.schedule_at(simulator_.now() + config_.detection_latency,
                           [this, policy, peer] { apply(policy, peer); });
  }
}

void OperatorResponseEngine::apply(const OperatorPolicy& policy, net::NodeId peer_id) {
  auto it = peers_.find(peer_id);
  if (it == peers_.end()) {
    return;
  }
  peer::Peer& peer = *it->second;
  if (!peer.online()) {
    return;  // the machine went dark again before the operator got to it
  }
  switch (policy.action) {
    case OperatorAction::kRekey:
      peer.operator_rekey();
      break;
    case OperatorAction::kFriendRefresh: {
      std::vector<net::NodeId> pool;
      pool.reserve(roster_.size());
      for (net::NodeId id : roster_) {
        if (id != peer_id) {
          pool.push_back(id);
        }
      }
      peer.set_friends(rng_.sample(pool, peer.params().friends_list_size));
      break;
    }
    case OperatorAction::kRateTighten:
      peer.tighten_consideration_rate(policy.factor);
      break;
    case OperatorAction::kAuRecrawl:
      peer.operator_recrawl(config_.recrawl_cost_factor);
      break;
  }
  ++interventions_[static_cast<size_t>(policy.action)];
  if (action_hook_) {
    action_hook_(policy.action, peer_id);
  }
}

uint64_t OperatorResponseEngine::interventions_total() const {
  uint64_t total = 0;
  for (uint64_t n : interventions_) {
    total += n;
  }
  return total;
}

}  // namespace lockss::dynamics
