// A loyal LOCKSS peer: the composition of every substrate behind the
// protocol::PeerHost interface.
//
// A Peer owns its AU replicas, task schedule, effort meter, per-AU
// reputation state (known-peers lists, introduction tables, reference
// lists), the admission-control machinery (consideration rate limiter,
// refractory tracker, random-drop policy), its bit-rot damage process, and
// the active poller/voter sessions. It registers itself as the network
// handler for its NodeId and dispatches protocol messages to sessions.
//
// Polls run at a fixed autonomous rate (§5.1): one poll per AU per
// inter-poll interval, phase-randomized at startup (desynchronization),
// never adapted to load or adversity.
#ifndef LOCKSS_PEER_PEER_HPP_
#define LOCKSS_PEER_PEER_HPP_

#include <array>
#include <memory>
#include <vector>

#include "crypto/cost_model.hpp"
#include "crypto/mbf.hpp"
#include "metrics/collector.hpp"
#include "net/network.hpp"
#include "net/node_slot_registry.hpp"
#include "protocol/host.hpp"
#include "protocol/poller_session.hpp"
#include "protocol/session_table.hpp"
#include "protocol/voter_session.hpp"
#include "reputation/admission_policy.hpp"
#include "storage/damage.hpp"
#include "storage/storage_node.hpp"

namespace lockss::peer {

// Everything shared across the deployment; owned by the scenario.
struct PeerEnvironment {
  sim::Simulator* simulator = nullptr;
  net::Network* network = nullptr;
  metrics::MetricsCollector* metrics = nullptr;  // optional
  // Deployment-wide identity registry backing the dense per-AU substrates
  // (optional; null hosts fall back to the substrates' ordered-map paths).
  // When set, every identity must be registered before traffic starts —
  // scenario setup registers loyal peers, newcomers, then adversary
  // minions, in ascending NodeId order (the registry's ordering contract).
  const net::NodeSlotRegistry* nodes = nullptr;
  protocol::Params params;
  crypto::CostModel costs;
  storage::DamageConfig damage;
  bool enable_damage = true;
  // Keep completed tasks in the schedule instead of pruning them (the §6.3
  // layering methodology exports the full busy history after a run).
  bool retain_schedule_history = false;
  // Optional observer invoked for every concluded poll (examples, debugging,
  // custom experiment instrumentation).
  std::function<void(net::NodeId poller, const protocol::PollOutcome&)> poll_observer;
  // Protocol event sink for this peer's sessions (docs/observability.md), or
  // nullptr when tracing is off.
  obs::EventSink* events = nullptr;
};

class Peer : public protocol::PeerHost, public net::MessageHandler {
 public:
  Peer(const PeerEnvironment& env, net::NodeId id, sim::Rng rng);
  ~Peer() override;

  // --- Deployment-time setup (before start()) ------------------------------
  // Adds a replica of `au` (publisher-correct).
  void join_au(storage::AuId au);
  // Seeds the initial reference list for `au`.
  void seed_reference_list(storage::AuId au, const std::vector<net::NodeId>& peers);
  // Seeds first-hand reputation (e.g. mutual `even` grades inside the
  // bootstrap population, or `debt` for a §7.4 adversary identity).
  void seed_grade(storage::AuId au, net::NodeId peer, reputation::Grade grade);
  void set_friends(std::vector<net::NodeId> friends) { friends_ = std::move(friends); }

  // Starts the damage process, the per-AU poll cycles (random initial
  // phase), and periodic maintenance.
  void start();

  // --- Deployment dynamics (dynamics::ChurnModel) --------------------------
  // Takes the peer offline: every live poller/voter session is closed
  // (pending events cancelled, booked schedule slots released — no leaked
  // reservations), in-flight polls simply vanish (no outcome is recorded),
  // and incoming messages are dropped until recovery. The poll cycle and
  // maintenance timers keep ticking but no-op while offline, so recovery
  // needs no re-randomized phases — determinism is preserved. Departing
  // twice is a driver bug and asserts (the churn model merges overlapping
  // down intervals at build time precisely so this cannot fire).
  void depart();
  // Brings the peer back. `state_loss` models a crash that took the disks:
  // every replica is reinstalled from the publisher (damaged blocks
  // restored, repair-service effort charged per AU). Recovering while
  // online asserts.
  void recover(bool state_loss);
  bool online() const { return online_; }

  // --- Operator interventions (dynamics::OperatorResponseEngine) -----------
  // Re-keys the peer: its admission-control state (refractory periods and
  // per-peer admission allowances) restarts from scratch, as a freshly
  // provisioned identity's would.
  void operator_rekey();
  // Multiplies the invitation-consideration budget by `factor` (cumulative,
  // floored so the peer never wedges shut entirely).
  void tighten_consideration_rate(double factor);
  // Re-fetches every AU from the publisher, restoring damaged blocks and
  // charging `cost_factor` replica hashes per AU (peer::OperatorModel's
  // audit cost model). Returns the number of blocks restored.
  uint32_t operator_recrawl(double cost_factor);

  // --- net::MessageHandler --------------------------------------------------
  void handle_message(net::MessagePtr message) override;

  // --- protocol::PeerHost ----------------------------------------------------
  net::NodeId id() const override { return id_; }
  const protocol::Params& params() const override { return env_.params; }
  const protocol::EffortSchedule& efforts() const override { return efforts_; }
  const crypto::CostModel& costs() const override { return env_.costs; }
  sim::Simulator& simulator() override { return *env_.simulator; }
  sim::Rng& rng() override { return rng_; }
  crypto::MbfService& mbf() override { return mbf_; }
  storage::AuReplica& replica(storage::AuId au) override { return storage_.replica(au); }
  bool has_replica(storage::AuId au) const override { return storage_.has_replica(au); }
  sched::TaskSchedule& schedule() override { return schedule_; }
  sched::EffortMeter& meter() override { return meter_; }
  sched::InvitationRateLimiter& consideration_limiter() override { return limiter_; }
  sched::RefractoryTracker& refractory() override { return refractory_; }
  reputation::KnownPeers& known_peers(storage::AuId au) override;
  reputation::IntroductionTable& introductions(storage::AuId au) override;
  protocol::ReferenceList& reference_list(storage::AuId au) override;
  const std::vector<net::NodeId>& friends() const override { return friends_; }
  const net::NodeSlotRegistry* node_registry() const override { return env_.nodes; }
  metrics::MetricsCollector* metrics() override { return env_.metrics; }
  obs::EventSink* trace_sink() override { return env_.events; }
  bool pass_random_drop(reputation::Standing standing) override {
    return admission_.pass_random_drop(standing);
  }
  bool pass_random_drop_with(double drop_probability) override {
    return !rng_.bernoulli(drop_probability);
  }
  void send(net::NodeId to, std::unique_ptr<protocol::ProtocolMessage> message) override;
  protocol::PollerSession* find_poller_session(protocol::PollId id) override;
  protocol::VoterSession* find_voter_session(protocol::PollId id) override;
  void retire_poller_session(protocol::PollId id) override;
  void retire_voter_session(protocol::PollId id) override;
  void on_poll_concluded(const protocol::PollOutcome& outcome) override;
  void on_replica_state_changed(storage::AuId au) override;
  void note_solicitation_sent() override { ++solicitations_sent_; }

  // --- Introspection ----------------------------------------------------------
  const storage::StorageNode& storage() const { return storage_; }
  const sched::EffortMeter& meter() const { return meter_; }
  uint64_t solicitations_sent() const { return solicitations_sent_; }
  uint64_t polls_started() const { return polls_started_; }
  size_t active_poller_sessions() const { return pollers_.size(); }
  size_t active_voter_sessions() const { return voters_.size(); }
  // Ids of the polls this peer is currently running as poller. Used by the
  // vote-flood adversary's replay oracle (§3.1 insider information) and by
  // diagnostics; loyal peers never need it.
  std::vector<protocol::PollId> live_poller_poll_ids() const;
  // Charges a manual operator audit (publisher re-fetch + verify + rewrite)
  // at `cost_factor` times one full replica hash. Called by OperatorModel.
  void charge_operator_audit(double cost_factor);
  const storage::DamageProcess* damage_process() const { return damage_.get(); }
  // Histogram of admission-pipeline decisions for incoming Poll invitations,
  // indexed by protocol::AdmissionVerdict.
  const std::array<uint64_t, 8>& admission_verdicts() const { return admission_verdicts_; }
  // Robustness counters accumulated from every concluded poll's outcome —
  // the observable surface of the unreliable-network fault layer
  // (docs/faults.md).
  uint64_t ack_timeouts_total() const { return ack_timeouts_total_; }
  uint64_t vote_timeouts_total() const { return vote_timeouts_total_; }
  uint64_t solicitation_retries_total() const { return solicitation_retries_total_; }
  // Histogram of poll conclusions that fell short of success, indexed by
  // protocol::PollAbortReason (slot kNone counts successes).
  const std::array<uint64_t, protocol::kPollAbortReasonCount>& poll_aborts() const {
    return poll_aborts_;
  }
  // Invokes `fn(started)` for every live poller and voter session, in
  // PollId order. The harvest-time session-liveness audit bounds each live
  // session's age against the inter-poll interval.
  void for_each_live_session_start(const std::function<void(sim::SimTime)>& fn);

 private:
  struct AuState {
    std::unique_ptr<reputation::KnownPeers> known_peers;
    std::unique_ptr<reputation::IntroductionTable> introductions;
    std::unique_ptr<protocol::ReferenceList> reference_list;
    // Last damaged-state reported to the metrics collector for this AU.
    bool damaged_cached = false;

    bool joined() const { return reference_list != nullptr; }
  };

  AuState& au_state(storage::AuId au);
  void start_poll(storage::AuId au);
  void on_damage_injected(storage::AuId au, uint32_t block);
  void refresh_damage_state(storage::AuId au);
  void maintenance();
  double expected_invitation_rate_per_second() const;

  PeerEnvironment env_;
  net::NodeId id_;
  sim::Rng rng_;
  crypto::MbfService mbf_;
  protocol::EffortSchedule efforts_;

  storage::StorageNode storage_;
  std::unique_ptr<storage::DamageProcess> damage_;
  sched::TaskSchedule schedule_;
  sched::EffortMeter meter_;
  sched::InvitationRateLimiter limiter_;
  sched::RefractoryTracker refractory_;
  reputation::AdmissionPolicy admission_;

  // Dense per-AU state, indexed by AuId.value (AU ids are small sequential
  // integers in every deployment); unjoined slots hold empty AuStates. The
  // per-message au_state() lookup is one vector index instead of a map walk.
  std::vector<AuState> au_states_;
  std::vector<net::NodeId> friends_;

  // Live sessions in open-addressed tables keyed by PollId: every message
  // dispatch and session-scheduled event resolves through them (PR 1's
  // find-by-id lifetime rule), so the lookup is hot-path.
  protocol::SessionTable<protocol::PollerSession> pollers_;
  protocol::SessionTable<protocol::VoterSession> voters_;
  uint32_t poll_sequence_ = 0;
  uint64_t solicitations_sent_ = 0;
  uint64_t polls_started_ = 0;
  std::array<uint64_t, 8> admission_verdicts_{};
  uint64_t ack_timeouts_total_ = 0;
  uint64_t vote_timeouts_total_ = 0;
  uint64_t solicitation_retries_total_ = 0;
  std::array<uint64_t, protocol::kPollAbortReasonCount> poll_aborts_{};
  bool started_ = false;
  bool online_ = true;
  // Cumulative operator rate-tightening; multiplies the §6.3 consideration
  // budget.
  double consideration_scale_ = 1.0;
};

}  // namespace lockss::peer

#endif  // LOCKSS_PEER_PEER_HPP_
