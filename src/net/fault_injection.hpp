// Non-adversarial network fault injection.
//
// The paper's adversaries suppress traffic deliberately; real deployments
// additionally lose messages to congestion, reboots, and flaky links. These
// filters let tests and experiments inject such faults independently of any
// adversary, to verify that the protocol's retry and desynchronization
// machinery absorbs them (§5.2: a poll is "a sequence of two-party
// interactions" precisely so sporadic unavailability cannot stall it).
//
//   * OutageLinkFilter  — takes one node fully offline between two
//                         instants (a crash-and-reboot, or an operator
//                         unplugging a peer), without re-randomizing like
//                         the pipe-stoppage adversary does;
//   * OfflineSetFilter  — a dynamic membership set of fully-offline nodes,
//                         flipped at runtime by a driver (the deployment-
//                         dynamics churn model layers its departures,
//                         crashes, and correlated regional outages on this
//                         one filter instead of stacking per-window
//                         OutageLinkFilters).
//
// Both are plain net::LinkFilters: install with Network::add_filter() and
// keep alive until removed. Binary outages are all a veto filter can say;
// probabilistic loss, duplication, and jitter live in net::FaultModel
// (fault_model.hpp), whose per-sender RNG lanes keep each outcome a
// function of the sender's own send sequence — a LinkFilter rolling its own
// `mutable sim::Rng` (the retired LossLinkFilter) ran its dice once at send
// and once at delivery, so unrelated traffic shifted its outcomes.
#ifndef LOCKSS_NET_FAULT_INJECTION_HPP_
#define LOCKSS_NET_FAULT_INJECTION_HPP_

#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace lockss::net {

// Silences every node currently in the set: nothing is delivered to or
// from an offline node. Membership is driver-maintained (see
// dynamics::ChurnModel); timers at the silenced node keep running, exactly
// like OutageLinkFilter.
//
// allow() sits on the per-message delivery path of every churned run, so
// membership is a flat bitmap indexed by NodeId value — churned peers are
// the established population, whose ids are small dense integers by the
// scenario's registration contract — with a live count fast-path for the
// (common) fully-online state. High ids (adversary minions) never enter
// the set and fall off the end of the bitmap in one bounds check.
class OfflineSetFilter : public LinkFilter {
 public:
  // Idempotent either way.
  void set_offline(NodeId node, bool down);
  bool offline(NodeId node) const {
    return node.value < offline_.size() && offline_[node.value];
  }
  size_t offline_count() const { return count_; }

  bool allow(NodeId from, NodeId to) const override {
    if (count_ == 0) {
      return true;
    }
    return !offline(from) && !offline(to);
  }

 private:
  std::vector<bool> offline_;
  size_t count_ = 0;
};

// Silences one node during [start, end): nothing is delivered to or from it.
// The node's timers keep running (a crashed peer loses its in-flight
// sessions to timeouts, exactly as the protocol expects).
class OutageLinkFilter : public LinkFilter {
 public:
  OutageLinkFilter(sim::Simulator& simulator, NodeId node, sim::SimTime start, sim::SimTime end)
      : simulator_(simulator), node_(node), start_(start), end_(end) {}

  bool allow(NodeId from, NodeId to) const override;

  bool active() const;

 private:
  sim::Simulator& simulator_;
  NodeId node_;
  sim::SimTime start_;
  sim::SimTime end_;
};

}  // namespace lockss::net

#endif  // LOCKSS_NET_FAULT_INJECTION_HPP_
