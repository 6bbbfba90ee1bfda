// The vote-flood adversary (§5.1, "Rate Limitation").
//
// "A vote flood adversary would seek to supply as many bogus votes as
// possible hoping to exhaust loyal pollers' resources in useless but
// expensive proofs of invalidity. ... The vote flood adversary is hamstrung
// by the fact that votes can be supplied only in response to an invitation
// by the putative victim poller, and pollers solicit votes at a fixed rate.
// Unsolicited votes are ignored."
//
// This adversary sprays Vote messages at victims, fabricating poll
// identifiers three ways:
//   * random ids that have never existed;
//   * ids forged in the victim's own id space (plausible-looking sequence
//     numbers, as an adversary with insider information would craft);
//   * replays of ids observed to be live (with the optional live-poll
//     oracle), arriving from a sender that was never invited.
//
// Every variant dies at the victim's session dispatch: a vote that does not
// match a live poller session the victim itself created is dropped before
// any hashing or proof verification. The adversary exists to demonstrate —
// in tests and campaigns/ext_vote_flood.json — that the flood buys zero
// friction at any send rate, the paper's stated rationale for not even
// evaluating this adversary in §7.
#ifndef LOCKSS_ADVERSARY_VOTE_FLOOD_HPP_
#define LOCKSS_ADVERSARY_VOTE_FLOOD_HPP_

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "peer/peer.hpp"
#include "protocol/messages.hpp"
#include "sched/effort_meter.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "storage/au.hpp"

namespace lockss::adversary {

struct VoteFloodConfig {
  // Votes sprayed per victim per tick.
  uint32_t votes_per_burst = 4;
  // Tick spacing. The default floods each victim with ~1150 bogus votes per
  // day — vastly more votes than the ~30 legitimate ones a peer consumes per
  // AU per 3-month poll cycle.
  sim::SimTime burst_gap = sim::SimTime::minutes(5);
  // Fraction of sprayed votes that reuse a *live* poll id of the victim
  // (requires the oracle; the rest use forged ids).
  double replay_fraction = 0.25;
  // Bogus block hashes per vote; sized like a genuine vote so the wire cost
  // is realistic.
  uint32_t blocks_per_vote = 128;
  uint32_t minion_id_base = 1u << 24;
  uint32_t minion_count = 64;
};

class VoteFloodAdversary : public net::MessageHandler {
 public:
  VoteFloodAdversary(sim::Simulator& simulator, net::Network& network, sim::Rng rng,
                     VoteFloodConfig config, std::vector<peer::Peer*> victims,
                     std::vector<storage::AuId> aus);
  ~VoteFloodAdversary() override;

  void start();

  // Phase-installable teardown: cancels every victim's burst timer.
  void stop();

  // The adversary never expects replies; stray messages are ignored.
  void handle_message(net::MessagePtr /*message*/) override {}

  uint64_t votes_sent() const { return votes_sent_; }
  const sched::EffortMeter& meter() const { return meter_; }

 private:
  void burst(size_t victim_index);
  protocol::PollId forge_poll_id(const peer::Peer& victim);

  sim::Simulator& simulator_;
  net::Network& network_;
  sim::Rng rng_;
  VoteFloodConfig config_;
  std::vector<peer::Peer*> victims_;
  std::vector<storage::AuId> aus_;
  std::vector<sim::EventHandle> timers_;
  sched::EffortMeter meter_;
  uint64_t votes_sent_ = 0;
  uint32_t next_minion_ = 0;
};

}  // namespace lockss::adversary

#endif  // LOCKSS_ADVERSARY_VOTE_FLOOD_HPP_
