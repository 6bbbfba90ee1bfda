// Structured protocol lifecycle events (docs/observability.md).
//
// One Event per protocol-visible transition — poll opened/concluded,
// solicitation traffic, voter admission, churn transitions, operator
// interventions, injected network faults — recorded in *sim time* so an
// enabled trace is a deterministic function of the scenario config,
// bit-identical across worker counts.
//
// This header sits at the bottom of the layering (only <cstdint>): protocol,
// dynamics, net, and experiment all record through it, so it must not pull
// any of them in. Identifiers are therefore raw integers: `origin`/`other`
// are net::NodeId values, `au` is a storage::AuId value, `poll` a
// protocol::PollId.
#ifndef LOCKSS_OBS_EVENT_HPP_
#define LOCKSS_OBS_EVENT_HPP_

#include <cstddef>
#include <cstdint>

namespace lockss::obs {

enum class EventKind : uint8_t {
  // Poller-side lifecycle (origin = poller).
  kPollOpened = 0,          // au, poll
  kInvitationSent,          // other = invitee
  kSolicitationRetry,       // other = invitee
  kAckReceived,             // other = invitee (affirmative PollAck)
  kAckRefused,              // other = invitee (negative PollAck)
  kAckTimeout,              // other = invitee (silence)
  kVoteTimeout,             // other = committed voter that never delivered
  kVoteReceived,            // other = voter
  kOuterCircleStarted,      // arg = outer invitees added
  kRepairRequested,         // other = repair source, arg = block
  kRepairReceived,          // other = repair source, arg = block
  kPollConcluded,           // arg = (outcome kind << 8) | abort reason
  // Voter-side lifecycle (origin = voter).
  kInvitationConsidered,    // other = poller, arg = AdmissionVerdict
  kVoteSent,                // other = poller
  kRepairServed,            // other = poller, arg = block
  kReceiptChecked,          // other = poller, arg = 1 valid / 0 bogus
  // Churn transitions (global actors; origin = affected peer).
  kChurnArrival,
  kChurnLeave,
  kChurnCrash,
  kChurnRecover,            // arg = 1 if the crash took the disks
  // Operator interventions (origin = serviced peer, arg = OperatorAction).
  kOperatorAction,
  // Injected network faults (origin = sender, other = destination).
  kFaultLoss,
  kFaultBurstDrop,
  kFaultDuplicate,
  kFaultJitter,             // arg = extra delivery delay in ns
  // Adaptive adversary policy transitions (global actors; origin = policy
  // rule index for triggers, target phase index for actions).
  kAdversaryPolicyTrigger,  // arg = adversary::PolicyTrigger
  kAdversaryPolicyAction,   // arg = adversary::PolicyAction
  kCount,
};

constexpr size_t kEventKindCount = static_cast<size_t>(EventKind::kCount);
static_assert(kEventKindCount <= 32, "EventKind must fit a 32-bit kind mask");

const char* event_kind_name(EventKind kind);
// Reverse lookup; returns false for unknown names.
bool parse_event_kind(const char* name, EventKind* out);

// Bit masks over EventKind, grouped the way campaign specs and the
// lockss_trace CLI address them.
constexpr uint32_t kind_bit(EventKind kind) { return 1u << static_cast<uint32_t>(kind); }
constexpr uint32_t kMaskAll = (1u << kEventKindCount) - 1;
constexpr uint32_t kMaskPoll =
    (kind_bit(EventKind::kInvitationConsidered) - 1);  // bits 0..11
constexpr uint32_t kMaskVoter =
    kind_bit(EventKind::kInvitationConsidered) | kind_bit(EventKind::kVoteSent) |
    kind_bit(EventKind::kRepairServed) | kind_bit(EventKind::kReceiptChecked);
constexpr uint32_t kMaskChurn =
    kind_bit(EventKind::kChurnArrival) | kind_bit(EventKind::kChurnLeave) |
    kind_bit(EventKind::kChurnCrash) | kind_bit(EventKind::kChurnRecover);
constexpr uint32_t kMaskOperator = kind_bit(EventKind::kOperatorAction);
constexpr uint32_t kMaskFault =
    kind_bit(EventKind::kFaultLoss) | kind_bit(EventKind::kFaultBurstDrop) |
    kind_bit(EventKind::kFaultDuplicate) | kind_bit(EventKind::kFaultJitter);
constexpr uint32_t kMaskAdversary = kind_bit(EventKind::kAdversaryPolicyTrigger) |
                                    kind_bit(EventKind::kAdversaryPolicyAction);

// The canonical trace record. `domain` is a *static* tag of the recording
// actor — 0 for deployment-wide actors (churn, operators, adversary
// minions), 1 for peer-owned streams. The canonical trace order is
// (time_ns, domain, origin, per-origin record order); see event_log.hpp.
struct Event {
  int64_t time_ns = 0;
  uint64_t poll = 0;    // protocol::PollId, or 0 when not poll-scoped
  uint64_t arg = 0;     // kind-specific payload (see EventKind comments)
  uint32_t origin = 0;  // acting peer / actor NodeId
  uint32_t other = 0;   // counterpart NodeId, or 0
  uint32_t au = kNoAu;  // storage::AuId, or kNoAu when not AU-scoped
  EventKind kind = EventKind::kPollOpened;
  uint8_t domain = 1;

  static constexpr uint32_t kNoAu = 0xFFFFFFFFu;

  friend bool operator==(const Event&, const Event&) = default;
};

}  // namespace lockss::obs

#endif  // LOCKSS_OBS_EVENT_HPP_
