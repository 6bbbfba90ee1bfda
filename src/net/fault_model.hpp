// First-class unreliable-link model on the message delivery path.
//
// The paper designs a poll as "a sequence of two-party interactions" (§5.2)
// precisely so sporadic unavailability cannot stall it; this layer is what
// actually exercises that claim. Unlike the veto `LinkFilter`s (which model
// deliberate suppression and binary outages), the fault model perturbs every
// send probabilistically:
//
//   * loss        — the message silently disappears in flight;
//   * duplication — the receiver gets a second, independent copy;
//   * jitter      — delivery is delayed by an extra uniform [0, jitter)
//                   beyond the Narses latency+transfer time, which also
//                   yields bounded reordering between messages of one pair;
//   * bursts      — Gilbert–Elliott-style flaky-link episodes: each
//                   directed pair spends a configured fraction of every
//                   burst cycle in a hard outage window whose placement is
//                   a pure hash of (pair, cycle index).
//
// Determinism contract (docs/faults.md): all decisions for messages sent by
// node S are drawn from S's private lane — a generator seeded from the
// scenario seed and S's id alone, created on S's first send. Lane
// consumption therefore depends only on S's own send sequence, never on
// which other nodes sent first. This replaced a test-only LossLinkFilter
// whose `mutable sim::Rng` rolled once at send and once at delivery, so its
// outcomes shifted with every unrelated message. Burst membership consumes
// no lane draws at all: it is a pure function of (pair, time, salt).
//
// Jitter only ever *adds* delay, so total delivery time never drops below
// the Narses latency + transfer time.
#ifndef LOCKSS_NET_FAULT_MODEL_HPP_
#define LOCKSS_NET_FAULT_MODEL_HPP_

#include <cstdint>
#include <unordered_map>

#include "net/node_id.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace lockss::net {

// Pure configuration; the campaign `network_faults` section parses into one
// of these (mirroring dynamics::ChurnConfig: no engine dependencies, and an
// enabled() predicate that keeps zero-fault runs off the fault path
// entirely).
struct FaultConfig {
  // Per-message drop probability, [0, 1].
  double loss_rate = 0.0;
  // Per-message duplication probability, [0, 1]. A duplicated message is
  // delivered twice; the copy gets its own jitter draw.
  double dup_rate = 0.0;
  // Maximum extra delivery delay; each message is delayed by an extra
  // uniform [0, jitter) on top of latency + transfer time.
  sim::SimTime jitter = sim::SimTime::zero();
  // Fraction of every burst cycle each directed pair spends in a hard
  // outage episode, [0, 1]. 0 disables bursts; 1 is a permanent outage.
  double burst_outage_rate = 0.0;
  // Length of the burst cycle (> 0 when bursts are enabled).
  sim::SimTime burst_cycle = sim::SimTime::days(1.0);
  // Installs the model even when every knob above is zero. The inert model
  // consumes lane draws but changes nothing observable — bench_report's
  // overhead row uses this to measure the delivery-path cost of the fault
  // hook against an ideal run with identical metrics.
  bool install_when_inert = false;

  bool enabled() const {
    return loss_rate > 0.0 || dup_rate > 0.0 || burst_outage_rate > 0.0 ||
           jitter > sim::SimTime::zero() || install_when_inert;
  }
};

// Verdict for one send. At most one of {drop, duplicate} is set; jitter
// fields are zero when the message is dropped.
struct FaultDecision {
  bool drop = false;
  bool burst = false;  // the drop was a burst-episode casualty, not i.i.d. loss
  bool duplicate = false;
  sim::SimTime extra_delay = sim::SimTime::zero();      // original's jitter
  sim::SimTime dup_extra_delay = sim::SimTime::zero();  // duplicate's jitter
};

class FaultModel {
 public:
  // `rng` seeds the lane and burst salts (two draws, like Network's ctor).
  FaultModel(const FaultConfig& config, sim::Rng rng);

  // Decides the fate of one message sent now. Mutates the sender's lane:
  // exactly three draws per non-burst send (loss, duplication, jitter, in
  // that order, regardless of outcome) plus one extra jitter draw when the
  // duplicate fires — so a lane's position depends only on the sender's
  // send count, never on which faults happened to fire.
  FaultDecision decide(NodeId from, NodeId to, sim::SimTime now);

  // True when the directed pair is inside a burst outage episode at `at`.
  // Pure function of (pair, at, burst salt); consumes no randomness.
  bool in_burst(NodeId from, NodeId to, sim::SimTime at) const;

  const FaultConfig& config() const { return config_; }

 private:
  sim::Rng& lane(NodeId sender);

  FaultConfig config_;
  uint64_t lane_salt_;
  uint64_t burst_salt_;
  // Keyed by raw sender id: peers are dense from 0, but adversary minions
  // and spoofed identities sit at arbitrary high ids.
  std::unordered_map<uint64_t, sim::Rng> lanes_;
};

}  // namespace lockss::net

#endif  // LOCKSS_NET_FAULT_MODEL_HPP_
