// Operator-response policy engine: detection-latency-delayed interventions.
//
// peer::OperatorModel closes the §4.3 alarm loop with one hard-coded
// response (a manual audit). Real archive operators have a playbook:
// re-key a peer that looks compromised, re-provision its friends list,
// tighten its admission-control budget while an attack is on, or re-crawl
// its AUs from the publisher. This engine generalizes the model into
// trigger→action policies (dynamics/spec.hpp) with one shared detection
// latency — the window an attacker races (campaigns/operator_response_race
// sweeps it).
//
// Triggers:   poll alarms (observed through the scenario's poll-observer
//             chain, like OperatorModel) and churn recoveries (hooked by
//             dynamics::ChurnModel).
// Actions:    applied `detection_latency` after the trigger, to the peer
//             that raised it, through the Peer operator APIs
//             (operator_rekey / set_friends / tighten_consideration_rate /
//             operator_recrawl). Friend refreshes draw from one dedicated
//             RNG stream (a root split the scenario hands over), so
//             operator randomness never perturbs the protocol streams.
//
// Determinism: interventions are ordinary simulator events; a departed
// peer's pending interventions apply at their scheduled time only if the
// peer is back online (an operator cannot service a dark machine), checked
// at apply time — a pure function of the deterministic churn schedule.
#ifndef LOCKSS_DYNAMICS_OPERATOR_RESPONSE_HPP_
#define LOCKSS_DYNAMICS_OPERATOR_RESPONSE_HPP_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "dynamics/spec.hpp"
#include "net/node_id.hpp"
#include "protocol/host.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace lockss::peer {
class Peer;
}

namespace lockss::dynamics {

class OperatorResponseEngine {
 public:
  OperatorResponseEngine(sim::Simulator& simulator, OperatorResponseConfig config,
                         sim::Rng rng);

  // Registers `peer_ptr` for operator attention; call for every loyal peer
  // before traffic starts. The roster is the id pool friend refreshes
  // sample from (normally the established population).
  void attend(peer::Peer* peer_ptr);
  void set_roster(std::vector<net::NodeId> roster);

  // The observer to install in PeerEnvironment::poll_observer; chains to
  // `next` (which may be empty), exactly like peer::OperatorModel.
  std::function<void(net::NodeId, const protocol::PollOutcome&)> observer(
      std::function<void(net::NodeId, const protocol::PollOutcome&)> next = nullptr);

  // ChurnModel recovery hook entry point.
  void on_peer_recovered(peer::Peer& peer);

  // Optional observer invoked after every applied intervention (the
  // scenario's trace hook, docs/observability.md).
  void set_action_hook(std::function<void(OperatorAction, net::NodeId)> hook) {
    action_hook_ = std::move(hook);
  }

  // --- Pure reads ----------------------------------------------------------
  uint64_t triggers_seen() const { return triggers_seen_; }
  // Applied interventions, indexed by OperatorAction.
  const std::array<uint64_t, kOperatorActionCount>& interventions() const {
    return interventions_;
  }
  uint64_t interventions_total() const;

 private:
  void on_trigger(OperatorTrigger trigger, net::NodeId peer);
  void apply(const OperatorPolicy& policy, net::NodeId peer);

  sim::Simulator& simulator_;
  OperatorResponseConfig config_;
  sim::Rng rng_;
  std::map<net::NodeId, peer::Peer*> peers_;
  std::vector<net::NodeId> roster_;
  std::function<void(OperatorAction, net::NodeId)> action_hook_;
  uint64_t triggers_seen_ = 0;
  std::array<uint64_t, kOperatorActionCount> interventions_{};
};

}  // namespace lockss::dynamics

#endif  // LOCKSS_DYNAMICS_OPERATOR_RESPONSE_HPP_
