// The grade-recovery adversary — the §7.4 closing variant.
//
// "We omit experiments with an adversary whose minions may be in either even
// or credit grade. This adversary polls a victim only after he has supplied
// that victim with a vote, then defects in any of the ways described above.
// He then recovers his grade at the victim by supplying an appropriate
// number of valid votes in succession. Each vote he supplies is used to
// introduce new minions that thereby bypass the victim's admission control
// before defecting. This attack requires the victim to invite minions into
// polls and is thus rate-limited enough that it is less effective than brute
// force. It is also further limited by the decay of first-hand reputation
// toward the debt grade."
//
// The paper leaves the measurements to "an extended version"; we implement
// the adversary so the claim can be checked: campaigns/ext_grade_recovery.json
// shows its friction below the brute-force adversary's (the NONE cell of
// campaigns/table1.json, the same deployment).
//
// Infiltration model: a configurable number of minion identities start
// inside the victims' reference lists with an even grade (long-term sleeper
// behaviour predating the attack). Minions then behave as model voters —
// valid votes, valid repairs, minion-only nominations — and spend the
// standing they earn on defecting polls.
#ifndef LOCKSS_ADVERSARY_GRADE_RECOVERY_HPP_
#define LOCKSS_ADVERSARY_GRADE_RECOVERY_HPP_

#include <cstdint>
#include <map>
#include <vector>

#include "crypto/mbf.hpp"
#include "net/network.hpp"
#include "peer/peer.hpp"
#include "protocol/effort_schedule.hpp"
#include "protocol/messages.hpp"
#include "sched/effort_meter.hpp"
#include "storage/au.hpp"

namespace lockss::adversary {

struct GradeRecoveryConfig {
  // Minion identity pool; each is seeded into every victim's reference list.
  uint32_t minion_count = 32;
  uint32_t minion_id_base = 1u << 23;
  // Valid votes a minion supplies to a victim before spending the earned
  // standing on a defecting poll.
  uint32_t votes_before_defection = 1;
};

class GradeRecoveryAdversary : public net::MessageHandler {
 public:
  GradeRecoveryAdversary(sim::Simulator& simulator, net::Network& network, sim::Rng rng,
                         GradeRecoveryConfig config, std::vector<peer::Peer*> victims,
                         std::vector<storage::AuId> aus, const protocol::Params& params,
                         const crypto::CostModel& costs);
  ~GradeRecoveryAdversary() override;

  // Seeds minions into the victims' reference lists (even grade) and starts
  // listening for invitations. Restart-safe: a policy-driven reactivation
  // resumes answering without re-seeding (the infiltrated standing keeps
  // whatever it decayed to).
  void start();

  // Phase-installable teardown: minions stop answering invitations and stop
  // spending earned standing (already-seeded grades keep decaying normally).
  void stop() { stopped_ = true; }

  void handle_message(net::MessagePtr message) override;

  const sched::EffortMeter& meter() const { return meter_; }
  uint64_t votes_supplied() const { return votes_supplied_; }
  uint64_t defecting_polls() const { return defecting_polls_; }

 private:
  // Voter-side state for an accepted invitation from a victim.
  struct VoterLane {
    net::NodeId minion;
    net::NodeId victim;
    storage::AuId au;
  };

  void on_poll(const protocol::PollMsg& poll);
  void on_poll_proof(const protocol::PollProofMsg& proof);
  void on_repair_request(const protocol::RepairRequestMsg& request);
  void maybe_defect(net::NodeId minion, net::NodeId victim, storage::AuId au);
  peer::Peer* victim_by_id(net::NodeId id);

  sim::Simulator& simulator_;
  net::Network& network_;
  sim::Rng rng_;
  GradeRecoveryConfig config_;
  std::vector<peer::Peer*> victims_;
  std::vector<storage::AuId> aus_;
  const protocol::Params& params_;
  crypto::CostModel costs_;
  protocol::EffortSchedule efforts_;
  crypto::MbfService mbf_;
  sched::EffortMeter meter_;

  std::map<protocol::PollId, VoterLane> voter_lanes_;
  // Votes supplied since the last defection, per (minion, victim, au).
  std::map<std::tuple<net::NodeId, net::NodeId, storage::AuId>, uint32_t> supplied_;
  uint32_t poll_sequence_ = 0;
  uint64_t votes_supplied_ = 0;
  uint64_t defecting_polls_ = 0;
  bool stopped_ = false;
  bool seeded_ = false;  // first start() seeds; restarts only resume
};

}  // namespace lockss::adversary

#endif  // LOCKSS_ADVERSARY_GRADE_RECOVERY_HPP_
